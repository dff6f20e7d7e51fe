"""Second-moment Haar averaging and the tree identities it produces.

The exact two-copy twirl of any operator x is a combination of the
two-copy identity and swap,

    E_U[(U (x) U) x (U (x) U)^dag] = c_I * II + c_S * SS,

and chaining twirled sites yields scalar tree values parameterized by
which pairing (straight or crossed) sits on each side.  ``diagram_exact``
contracts those networks through the exact channel and ``diagram_mc``
samples them per copy; ``tree_chain`` and ``o_tree`` are the closed forms
they must reproduce.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import haar_unitaries, real_value


class PermLabel(enum.Enum):
    """Pairing of the two copies at a cut: S is straight, A is crossed."""

    S = "S"
    A = "A"

    @property
    def index(self) -> int:
        """Row and column of this pairing in ``DesignConstants.chain``."""
        return 0 if self is PermLabel.S else 1


@dataclass(frozen=True)
class DesignConstants:
    """The scalars q, xi, eta attached to a (bond, physical) dimension pair."""

    D: int
    d: int
    q: float
    xi: float
    eta: float

    def __post_init__(self):
        q = (self.D * self.d) ** 2 - 1
        if not (
            self.D >= 1
            and self.d >= 1
            and self.q == q
            and np.isclose(self.xi, self.D * (self.d**2 - 1) / q)
            and np.isclose(self.eta, self.d * (self.D**2 - 1) / q)
        ):
            raise ValueError("inconsistent design constants")

    @classmethod
    def from_dims(cls, D: int, d: int) -> "DesignConstants":
        if D < 1 or d < 1 or D * d < 2:
            raise ValueError("need D, d >= 1 with D*d >= 2")
        q = (D * d) ** 2 - 1
        return cls(D=D, d=d, q=float(q), xi=D * (d**2 - 1) / q, eta=d * (D**2 - 1) / q)

    def chain(self, L: int) -> np.ndarray:
        """T^L for the one-site pairing transfer T = [[1, xi], [0, eta]].

        Rows and columns are the pairings (S, A) at the chain's two ends:
        T^L = [[1, xi (1 + eta + ... + eta^(L-1))], [0, eta^L]], and L = 0
        gives the identity.
        """
        if L < 0:
            raise ValueError("chain length must be >= 0")
        return np.linalg.matrix_power(np.array([[1.0, self.xi], [0.0, self.eta]]), int(L))


def perm_ops(n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-copy identity and swap on an n_dim-dimensional single-copy space."""
    if n_dim < 1:
        raise ValueError("n_dim must be >= 1")
    n2 = n_dim * n_dim
    ident = np.eye(n2, dtype=complex)
    # swap (v (x) w) = w (x) v
    swap = np.eye(n2, dtype=complex).reshape(n_dim, n_dim, n_dim, n_dim)
    swap = swap.transpose(1, 0, 2, 3).reshape(n2, n2)
    return ident, swap


def second_moment(x, n_dim: int) -> np.ndarray:
    """Exact Haar average of (U (x) U) x (U (x) U)^dag on two copies.

    No sampling: the output is c_I * II + c_S * SS with the coefficients
    fixed by Tr[x] and Tr[x SS].  Valid for any n_dim >= 2 (the rank-one
    n_dim = 1 case is excluded since the channel denominator vanishes).
    """
    n = int(n_dim)
    if n < 2:
        raise ValueError("second moment channel needs n_dim >= 2")
    if x.shape != (n * n, n * n):
        raise ValueError(f"expected a {n * n}x{n * n} matrix, got {x.shape}")
    ident, swap = perm_ops(n)
    tr_x = np.trace(x)
    tr_xs = np.trace(x @ swap)
    qp = n * n - 1.0
    c_i = (tr_x - tr_xs / n) / qp
    c_s = (tr_xs - tr_x / n) / qp
    return c_i * ident + c_s * swap


_BATCH = 4096
_SLICE = 256


def _two_copy_batch(u: np.ndarray) -> np.ndarray:
    # per-slice kron(u, u) for a stack of unitaries
    b, n, _ = u.shape
    return np.einsum("bij,bkl->bikjl", u, u).reshape(b, n * n, n * n)


def mc_twirl(x, n_dim: int, samples: int, seed: int) -> np.ndarray:
    """Sample average of (U (x) U) x (U (x) U)^dag over Haar draws.

    Draws run in fixed-size batches in index order, so a given seed yields
    a bitwise reproducible matrix.  Each batch is contracted in fixed
    slices of ``_SLICE`` draws, so at most that many two-copy matrices are
    held at once.  Empirical counterpart of ``second_moment``.
    """
    n = int(n_dim)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if x.shape != (n * n, n * n):
        raise ValueError(f"expected a {n * n}x{n * n} matrix, got {x.shape}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    acc = np.zeros((n * n, n * n), dtype=complex)
    done = 0
    while done < samples:
        count = min(_BATCH, samples - done)
        u = haar_unitaries(n, count, rng)
        for lo in range(0, count, _SLICE):
            w = _two_copy_batch(u[lo : lo + _SLICE])
            acc += (w @ x @ w.conj().transpose(0, 2, 1)).sum(axis=0)
        done += count
    return acc / samples


def tree_chain(left: PermLabel, right: PermLabel, chain_len: int, dc: DesignConstants) -> float:
    """Scalar value of a chain of L twirled sites between two pairings.

    chain_len = 0 denotes the single-vertex diagram, which coincides with
    the L = 1 chain: (S,S) -> 1, (S,A) -> xi, (A,S) -> 0, (A,A) -> eta.
    Longer chains are the (left, right) entry of ``dc.chain(L)``.
    """
    if chain_len < 0:
        raise ValueError("chain_len must be >= 0")
    return float(dc.chain(max(chain_len, 1))[left.index, right.index])


def o_tree(left: PermLabel, right: PermLabel, o, dc: DesignConstants) -> float:
    """Single-vertex tree value with the observable inserted on the right cut.

    With t1 = Tr(O) and t2 = Tr(O²) the four values are

        (S,S): (D² t1² − t2/d) / q        (A,S): D (−t1²/d + t2) / q
        (S,A): D (t1² − t2/d) / q         (A,A): (−t1²/d + D² t2) / q

    and O = I_d reduces every entry to the plain ``tree_chain`` value.
    """
    if o.shape != (dc.d, dc.d):
        raise ValueError(f"observable must be {dc.d}x{dc.d}")
    t1 = float(np.trace(o).real)
    t2 = float(np.trace(o @ o).real)
    big_d, small_d, q = dc.D, dc.d, dc.q
    if left is PermLabel.S and right is PermLabel.S:
        return (big_d**2 * t1**2 - t2 / small_d) / q
    if left is PermLabel.S and right is PermLabel.A:
        return big_d * (t1**2 - t2 / small_d) / q
    if left is PermLabel.A and right is PermLabel.S:
        return big_d * (-(t1**2) / small_d + t2) / q
    return (-(t1**2) / small_d + big_d**2 * t2) / q


# ---------------------------------------------------------------------------
# diagram contraction
#
# A single-vertex tree diagram pairs two copies of one site gate.  The left
# pairing is a two-copy input operator with the physical legs fixed to
# |0><0|, the site box is the two-copy twirl channel, and the right pairing
# is a readout functional tracing the bond legs straight or crossed with one
# copy of O on each physical leg.  Left pairings enter through the dual
# basis of the bond Gram matrix [[D², D], [D, D²]]; that normalization is
# what lets chained vertices compose as plain products over {S, A}.
# ``diagram_exact`` builds these two-copy operators literally and applies
# ``second_moment``.
#
# For a single draw U the four (input, readout) pairings are single-copy
# traces.  With rho = U Pi U^dag, Pi = I_D (x) |0><0| and M = (I_D (x) O) rho,
#
#     (S,S) = Tr(M)²              (S,A) = Tr(Tr_phys(M)²)
#     (A,S) = Tr(M²)              (A,A) = Tr(Tr_bond(M)²)
#
# so ``diagram_mc`` never forms U (x) U; the literal two-copy contraction
# stays as its test oracle.


def _pairing_traces(u: np.ndarray, o, D: int, d: int) -> np.ndarray:
    """(B, 2, 2) pairing values, indexed [draw, input, readout], of a stack
    of (Dd)x(Dd) site gates ``u`` with the d x d observable ``o`` read out.

    Rows and columns follow ``PermLabel.index``.  Each entry is the two-copy
    trace Tr[(U (x) U) x_in (U (x) U)^dag r_out] on the undualized pairing
    input, computed per copy in O(B D² d (D + d)) after the draw.
    """
    b = u.shape[0]
    v = u[:, :, ::d].reshape(b, D, d, D)  # U Pi: columns with physical index 0
    w = o @ v  # (I_D (x) O) U Pi
    cv = v.conj()
    tr_m = np.einsum("bask,bask->b", w, cv)
    g = np.einsum("bask,basl->bkl", cv, w)  # Pi U^dag (I_D (x) O) U Pi: Tr(M²) = Tr(G²)
    p = np.einsum("bask,bcsk->bac", w, cv)  # Tr_phys(M)
    q = np.einsum("bask,batk->bst", w, cv)  # Tr_bond(M)

    def tr_sq(m):
        return np.einsum("bij,bji->b", m, m)

    return np.stack([tr_m * tr_m, tr_sq(p), tr_sq(g), tr_sq(q)], axis=-1).real.reshape(b, 2, 2)


def _pair_input(label: PermLabel, D: int, d: int) -> np.ndarray:
    p0 = np.zeros((d, d), dtype=complex)
    p0[0, 0] = 1.0
    block = np.kron(np.eye(D, dtype=complex), p0)
    if label is PermLabel.S:
        return np.kron(block, block)
    n = D * d
    x = np.zeros((n * n, n * n), dtype=complex)
    for a in range(D):
        for b in range(D):
            ket_a, ket_b = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
            ket_a[a * d] = 1.0
            ket_b[b * d] = 1.0
            x += np.kron(np.outer(ket_a, ket_b), np.outer(ket_b, ket_a))
    return x


def _dual_input(label: PermLabel, D: int, d: int) -> np.ndarray:
    if D < 2:
        raise ValueError("the two bond pairings are degenerate below D = 2")
    xs = _pair_input(PermLabel.S, D, d)
    xa = _pair_input(PermLabel.A, D, d)
    det = D * D - 1.0
    if label is PermLabel.S:
        return (xs - xa / D) / det
    return (xa - xs / D) / det


def _pair_readout(label: PermLabel, o, D: int, d: int) -> np.ndarray:
    block = np.kron(np.eye(D, dtype=complex), o)
    r = np.kron(block, block)
    if label is PermLabel.A:
        # cross the two bond legs, leave both physical legs in place
        n = D * d
        w = np.eye(n * n, dtype=complex).reshape(D, d, D, d, D, d, D, d)
        w = w.transpose(2, 1, 0, 3, 4, 5, 6, 7).reshape(n * n, n * n)
        r = w @ r
    return r


def diagram_exact(left: PermLabel, right: PermLabel, dc: DesignConstants, o=None) -> float:
    """Contract the single-vertex tree diagram through the exact channel.

    Independent of the closed forms: equals tree_chain(left, right, 0)
    when o is None and o_tree(left, right, o) otherwise.
    """
    o = np.eye(dc.d, dtype=complex) if o is None else o
    x = _dual_input(left, dc.D, dc.d)
    y = second_moment(x, dc.D * dc.d)
    r = _pair_readout(right, o, dc.D, dc.d)
    return real_value(np.trace(y @ r), "diagram contraction")


def diagram_mc(
    left: PermLabel,
    right: PermLabel,
    dc: DesignConstants,
    samples: int,
    seed: int,
    o=None,
) -> tuple[float, float]:
    """Monte-Carlo contraction of the same diagram; returns (mean, stderr).

    The Haar draws come from one stream in batches of ``_BATCH``, as in
    ``mc_twirl``.  Each draw is read out per copy through
    ``_pairing_traces``, and the dual left pairing is the combination
    (x_left - x_other / D) / (D² - 1) of its two input rows.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    D, d = dc.D, dc.d
    if D < 2:
        raise ValueError("the two bond pairings are degenerate below D = 2")
    o = np.eye(d, dtype=complex) if o is None else o
    if o.shape != (d, d):
        raise ValueError(f"observable must be {d}x{d}")
    own, other = left.index, 1 - left.index
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vals = np.empty(samples)
    done = 0
    while done < samples:
        count = min(_BATCH, samples - done)
        t = _pairing_traces(haar_unitaries(D * d, count, rng), o, D, d)[:, :, right.index]
        vals[done : done + count] = (t[:, own] - t[:, other] / D) / (D * D - 1.0)
        done += count
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(samples))
    return mean, stderr
