"""Unitarily embedded MPS: ring costs and exact site gradients.

Each site is a Dd x Dd unitary whose physical input is pinned to |0>,
giving site tensors A^s[a, b] = <b (x) s| U |a (x) 0> on a periodic bond
ring of n sites.  Expectation values are transfer-matrix ring traces;
gradients insert -iG at one site via the (U_minus, G, U_plus) split of
that site's gate.  The state is deliberately not normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import HermitianObservable, UnitaryGate, _mat

STATEVECTOR_CAP = 4096
RING_IMAG_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MpsAnsatz:
    n: int
    D: int
    d: int
    gates: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two sites")
        if self.D < 1 or self.d < 2:
            raise ValueError("need bond dim >= 1 and physical dim >= 2")
        gates = tuple(self.gates)
        if len(gates) != self.n:
            raise ValueError(f"expected {self.n} gates, got {len(gates)}")
        dim = self.D * self.d
        for g in gates:
            if _mat(g).shape != (dim, dim):
                raise ValueError(f"every site gate must be {dim}x{dim}")
        object.__setattr__(self, "gates", gates)


@dataclass(frozen=True, eq=False)
class SiteDecomposition:
    """(u_minus, g, u_plus) split of one site gate at the derivative point.

    The gate evaluates to u_minus @ u_plus and its derivative along the
    generator g is u_minus @ (-i g) @ u_plus; u_plus collects the factors
    applied first.
    """

    site: int
    u_minus: UnitaryGate
    g: HermitianObservable
    u_plus: UnitaryGate

    def __post_init__(self):
        dims = {_mat(x).shape for x in (self.u_minus, self.g, self.u_plus)}
        if len(dims) != 1:
            raise ValueError("u_minus, g, u_plus must share one dimension")

    @property
    def gate_matrix(self) -> np.ndarray:
        return _mat(self.u_minus) @ _mat(self.u_plus)

    @property
    def derivative_matrix(self) -> np.ndarray:
        return _mat(self.u_minus) @ (-1j * _mat(self.g)) @ _mat(self.u_plus)


def site_tensor(gate, D: int, d: int) -> np.ndarray:
    """Site tensors A[s, a, b] = <b (x) s| U |a (x) 0>, bond index first.

    Leading axes of a stack of gates are kept: (..., Dd, Dd) -> (..., d, D, D).
    """
    u = _mat(gate)
    if u.shape[-2:] != (D * d, D * d):
        raise ValueError(f"gate must be {D * d}x{D * d}")
    # rows (b, s), columns (a, 0)
    lead = u.ndim - 2
    t = u.reshape(*u.shape[:-2], D, d, D, d)[..., 0]
    return t.transpose(*range(lead), lead + 1, lead + 2, lead)


def _transfer_from_tensors(a_ket: np.ndarray, a_bra: np.ndarray, obs) -> np.ndarray:
    # leading axes of the tensors (and of obs, if stacked) are kept
    D = a_ket.shape[-1]
    if obs is None:
        e = np.einsum("...sab,...scd->...acbd", a_ket, a_bra.conj())
    else:
        o = _mat(obs)
        # ket leg rides the column index of O, bra leg the row index
        e = np.einsum("...st,...tab,...scd->...acbd", o, a_ket, a_bra.conj())
    return e.reshape(*e.shape[:-4], D * D, D * D)


def transfer(gate, obs, D: int, d: int) -> np.ndarray:
    """Bond-ring operator E[(a a~), (b b~)] = sum_s A^s (x) conj(A^s), D² x D²;
    with obs, O_{s s'} weights the pair (s', s).

    The index order makes Tr[E_1 ... E_n] equal <psi| O_at_site |psi> on
    the periodic ring.
    """
    if obs is not None and _mat(obs).shape != (d, d):
        raise ValueError(f"observable must be {d}x{d}")
    a = site_tensor(gate, D, d)
    return _transfer_from_tensors(a, a, obs)


def _ring_trace(mats: Sequence[np.ndarray]) -> complex:
    acc = mats[0]
    for m in mats[1:]:
        acc = acc @ m
    return complex(np.trace(acc))


def _real_ring(value: complex) -> float:
    if abs(value.imag) > RING_IMAG_TOL * (1.0 + abs(value.real)):
        raise ArithmeticError(f"ring trace has imaginary residue {value.imag:.3e}")
    return float(value.real)


def _check_site(m: MpsAnsatz, site_m: int, o) -> None:
    if not 0 <= site_m < m.n:
        raise IndexError(f"observable site {site_m} outside [0, {m.n})")
    if _mat(o).shape != (m.d, m.d):
        raise ValueError(f"observable must be {m.d}x{m.d}")


def cost(m: MpsAnsatz, o, site_m: int) -> float:
    """C = <psi| I ... O at site_m ... I |psi> by transfer-ring contraction."""
    _check_site(m, site_m, o)
    mats = [
        transfer(g, o if i == site_m else None, m.D, m.d)
        for i, g in enumerate(m.gates)
    ]
    return _real_ring(_ring_trace(mats))


def statevector(m: MpsAnsatz) -> np.ndarray:
    """psi[s_1 ... s_n] = Tr_D[A_1^{s_1} ... A_n^{s_n}], flattened to d^n."""
    if m.d**m.n > STATEVECTOR_CAP:
        raise ValueError(
            f"statevector of size {m.d}^{m.n} exceeds the cap of {STATEVECTOR_CAP}"
        )
    acc = site_tensor(m.gates[0], m.D, m.d)  # (phys, a, b)
    for g in m.gates[1:]:
        a = site_tensor(g, m.D, m.d)
        acc = np.einsum("pab,sbc->psac", acc, a).reshape(-1, m.D, m.D)
    return np.einsum("paa->p", acc)


def cost_statevector(m: MpsAnsatz, o, site_m: int) -> float:
    """Oracle path for ``cost``: build psi explicitly, apply O densely."""
    _check_site(m, site_m, o)
    psi = statevector(m).reshape(m.d**site_m, m.d, m.d ** (m.n - site_m - 1))
    opsi = np.einsum("st,atb->asb", _mat(o), psi)
    return _real_ring(complex(np.vdot(psi, opsi)))


def _grad_transfers(m: MpsAnsatz, dec: SiteDecomposition, o, site_m: int):
    if not 0 <= dec.site < m.n:
        raise IndexError(f"derivative site {dec.site} outside [0, {m.n})")
    mats = []
    for i, g in enumerate(m.gates):
        obs = o if i == site_m else None
        if i == dec.site:
            a_ket = site_tensor(dec.derivative_matrix, m.D, m.d)
            a_bra = site_tensor(dec.gate_matrix, m.D, m.d)
            mats.append(_transfer_from_tensors(a_ket, a_bra, obs))
        else:
            mats.append(transfer(g, obs, m.D, m.d))
    return mats


def grad_site(m: MpsAnsatz, dec: SiteDecomposition, o, site_m: int) -> float:
    """Exact dC along dec's generator; the ansatz gate at dec.site is
    ignored and replaced by u_minus @ u_plus.

    dC = 2 Re{ ring trace with the ket tensor of site dec.site built from
    u_minus @ (-i g) @ u_plus and the bra tensor from u_minus @ u_plus }.
    """
    _check_site(m, site_m, o)
    return 2.0 * _ring_trace(_grad_transfers(m, dec, o, site_m)).real


def grad_ring(deriv: np.ndarray, gate: np.ndarray, sites: np.ndarray, o, site_m: int,
              D: int, d: int) -> np.ndarray:
    """``grad_site`` for a batch of rings, with the derivative on site 0.

    deriv and gate, (B, Dd, Dd): site 0's u_minus (-i g) u_plus and
    u_minus u_plus; sites, (B, n-1, Dd, Dd): the gates of sites 1..n-1;
    o, (d, d) or (B, d, d): the observable at site_m.  Each value is the
    product grad_site forms, in its left-to-right order, so it is bitwise
    the per-sample value.
    """
    n = sites.shape[1] + 1
    if not 0 <= site_m < n:
        raise IndexError(f"observable site {site_m} outside [0, {n})")
    acc = _transfer_from_tensors(
        site_tensor(deriv, D, d), site_tensor(gate, D, d), o if site_m == 0 else None
    )
    a = site_tensor(sites, D, d)
    mats = _transfer_from_tensors(a, a, None)
    if site_m > 0:
        k = site_m - 1
        mats[:, k] = _transfer_from_tensors(a[:, k], a[:, k], o)
    for k in range(n - 1):
        acc = acc @ mats[:, k]
    return 2.0 * np.trace(acc, axis1=-2, axis2=-1).real


def grad_fd(m: MpsAnsatz, dec: SiteDecomposition, o, site_m: int, h: float = 1e-5) -> float:
    """Central finite difference of C over theta in u_minus e^{-i theta g} u_plus."""
    if h <= 0:
        raise ValueError("h must be positive")
    _check_site(m, site_m, o)
    w, v = np.linalg.eigh(_mat(dec.g))
    um, up = _mat(dec.u_minus), _mat(dec.u_plus)

    def at(theta: float) -> float:
        gate = um @ (v * np.exp(-1j * theta * w)) @ v.conj().T @ up
        gates = list(m.gates)
        gates[dec.site] = UnitaryGate(gate)
        return cost(MpsAnsatz(m.n, m.D, m.d, tuple(gates)), o, site_m)

    return (at(h) - at(-h)) / (2.0 * h)
