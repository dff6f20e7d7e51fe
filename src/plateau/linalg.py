"""Dense complex linear algebra and random-matrix sampling.

Conventions used throughout the package:

* matrices are ``numpy`` arrays of dtype complex128, row-major;
* composite spaces are ordered bond-first, so a site gate acts on
  C^D (x) C^d and the basis index is ``i = alpha * d + s``;
* every random draw consumes an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-10
IMAG_TOL = 1e-10  # relative residue allowed on a value that must be real
RANK_TOL = 1e-12  # |R_ii| at or below this marks a rank-deficient Ginibre draw


def check_unitary(u) -> np.ndarray:
    """Return ``u`` as a complex array; raise ValueError unless every matrix
    of the stack ``u[..., :, :]`` is square and finite with
    ``max|U U^dag - I| <= 1e-10``.  One test for the whole stack."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"unitary must be a square matrix, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("unitary has non-finite entries")
    if u.size:
        dev = u @ u.conj().swapaxes(-1, -2)
        dev -= np.eye(u.shape[-1])
        err = np.max(np.abs(dev))
        if err > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (max deviation {err:.3e})")
    return u


def check_hermitian(h) -> np.ndarray:
    """Return ``h`` as a complex array; raise ValueError unless every matrix
    of the stack ``h[..., :, :]`` is square and finite with
    ``max|H - H^dag| <= 1e-10 (1 + max|H|)``, each matrix on its own scale."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"observable must be a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("observable has non-finite entries")
    if h.size:
        err = np.max(np.abs(h - h.conj().swapaxes(-1, -2)), axis=(-2, -1))
        scale = 1.0 + np.max(np.abs(h), axis=(-2, -1))
        if np.any(err > HERMITIAN_TOL * scale):
            raise ValueError(f"matrix is not Hermitian (max deviation {np.max(err):.3e})")
    return h


def check_split(u_minus, g, u_plus, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate the (u_minus, g, u_plus) split of one gate at a derivative
    point: two dim x dim unitaries around a dim x dim Hermitian generator.

    The gate is u_minus @ u_plus and its derivative along g is
    u_minus @ (-i g) @ u_plus; u_plus collects the factors applied first.
    Returns the three as complex arrays.
    """
    if {np.shape(x) for x in (u_minus, g, u_plus)} != {(dim, dim)}:
        raise ValueError(f"u_minus, g, u_plus must all be {dim}x{dim}")
    return check_unitary(u_minus), check_hermitian(g), check_unitary(u_plus)


def rotation_fd(value_at, u_minus, g, u_plus, h: float) -> float:
    """Central difference at theta = 0 of value_at(u_minus e^{-i theta g} u_plus),
    with the exponential taken through one eigendecomposition of g."""
    if h <= 0:
        raise ValueError("h must be positive")
    w, v = np.linalg.eigh(g)

    def at(theta: float) -> float:
        return value_at(u_minus @ (v * np.exp(-1j * theta * w)) @ v.conj().T @ u_plus)

    return (at(h) - at(-h)) / (2.0 * h)


def real_value(value: complex, what: str) -> float:
    """Real part of a value that must be real; ArithmeticError if its
    imaginary residue exceeds 1e-10 (1 + |Re|)."""
    if abs(value.imag) > IMAG_TOL * (1.0 + abs(value.real)):
        raise ArithmeticError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


@dataclass(frozen=True, eq=False)
class UnitaryGate:
    """A dim x dim unitary matrix, checked by ``check_unitary`` at
    construction; the stored gate of a fixed ``mc.EnsembleSpec``."""

    matrix: np.ndarray

    def __post_init__(self):
        m = check_unitary(self.matrix)
        if m.ndim != 2:
            raise ValueError("unitary must be a square matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out every subsystem of ``m`` not listed in ``keep``.

    Parameters
    ----------
    m : array_like
        Square matrix on the tensor product of the given subsystems.
    dims : sequence of int
        Dimension of each subsystem, in tensor order.
    keep : iterable of int
        Indices of the subsystems to retain; their relative order is
        preserved in the output.
    """
    m = np.asarray(m)
    dims = [int(x) for x in dims]
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError("keep indices out of range")
    t = m.reshape(dims + dims)
    ncur = len(dims)
    for ax in reversed(range(len(dims))):
        if ax not in keep:
            t = np.trace(t, axis1=ax, axis2=ax + ncur)
            ncur -= 1
    kd = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(kd, kd)


def haar_from_ginibre(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Haar unitaries from a stack ``z[..., n, n]`` of complex Ginibre matrices.

    QR decomposition of each matrix, with the diagonal of R divided out by
    its phases.  Without that phase correction the QR output is unitary but
    not Haar distributed; with it the distribution is exactly the Haar
    measure on U(n).

    Returns ``(q, bad)``.  ``bad[...]`` marks numerically rank-deficient
    draws (some |R_ii| <= RANK_TOL, probability zero); their ``q`` is
    garbage and the caller redraws them.  Every other ``q`` has passed
    ``check_unitary``.  A stack gives bitwise the matrices that one call
    per matrix would give.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(diag)
    bad = ~np.all(mags > RANK_TOL, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = q * (diag / mags)[..., None, :]
    check_unitary(q[~bad] if bad.any() else q)
    return q, bad


def haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """A (count, dim, dim) stack of Haar unitaries from one stream: all the
    real, then all the imaginary Ginibre normals, one ``haar_from_ginibre``
    call, then each rank-deficient draw (probability zero) redrawn in index
    order from the same stream."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    shape = (count, dim, dim)
    q, bad = haar_from_ginibre(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for k in np.flatnonzero(bad):
        q[k] = haar_unitary(dim, rng)
    return q


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed random unitary: ``haar_unitaries``' one-draw
    case, redrawn from the same stream until it is not rank-deficient."""
    return haar_unitaries(dim, 1, rng)[0]


def haar_state_from_gaussian(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a stack ``v[..., dim]`` of complex Gaussian vectors.

    Returns ``(states, bad)``; ``bad[...]`` marks vectors of norm <= 1e-12
    (probability zero), which the caller redraws.  The norm is the one
    ``np.linalg.norm`` computes, so a stack gives bitwise the states that
    one call per vector would give.
    """
    re, im = v.real[..., None, :], v.imag[..., None, :]
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    nrm = np.sqrt(sq[..., 0, 0])
    bad = ~(nrm > 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        return v / nrm[..., None], bad


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-random pure state vector.

    Distributed exactly as the first column of a Haar unitary (a
    normalized complex Gaussian vector), which is all that is needed
    when only U|0...0> enters the computation.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    while True:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state, bad = haar_state_from_gaussian(v)
        if not bad:
            return state


def gue_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian matrix (M + M^dag)/2, rescaled to unit operator norm."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2.0
    h = (h + h.conj().T) / 2.0  # exact Hermiticity under floating point
    nrm = np.max(np.abs(np.linalg.eigvalsh(h)))
    return h / nrm


def hs_norm_sq(m) -> float:
    """Squared Hilbert-Schmidt norm Tr(M^dag M)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("hs_norm_sq expects a square matrix")
    return float(np.vdot(m, m).real)


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string(s: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``"ZI"`` -> Z (x) I."""
    if not s or any(c not in _PAULI for c in s):
        raise ValueError(f"invalid Pauli string {s!r}")
    out = _PAULI[s[0]]
    for c in s[1:]:
        out = np.kron(out, _PAULI[c])
    return out
