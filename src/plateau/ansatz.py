"""Unitarily embedded MPS: ring costs and exact site gradients.

Each site is a Dd x Dd unitary whose physical input is pinned to |0>,
giving site tensors A^s[a, b] = <b (x) s| U |a (x) 0> on a periodic bond
ring of n sites.  Expectation values are transfer-matrix ring traces;
gradients insert -iG at one site via the (U_minus, G, U_plus) split of
that site's gate.  The state is deliberately not normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import check_split, check_unitary, real_value, rotation_fd

STATEVECTOR_CAP = 4096


@dataclass(frozen=True, eq=False)
class MpsAnsatz:
    """n site gates on a periodic ring, each a Dd x Dd unitary; the gates
    are checked here and stored as complex arrays."""

    n: int
    D: int
    d: int
    gates: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two sites")
        if self.D < 1 or self.d < 2:
            raise ValueError("need bond dim >= 1 and physical dim >= 2")
        gates = tuple(np.asarray(g, dtype=complex) for g in self.gates)
        if len(gates) != self.n:
            raise ValueError(f"expected {self.n} gates, got {len(gates)}")
        dim = self.D * self.d
        if any(g.shape != (dim, dim) for g in gates):
            raise ValueError(f"every site gate must be {dim}x{dim}")
        check_unitary(np.stack(gates))
        object.__setattr__(self, "gates", gates)


def site_tensor(gate, D: int, d: int) -> np.ndarray:
    """Site tensors A[s, a, b] = <b (x) s| U |a (x) 0>, bond index first.

    Leading axes of a stack of gates are kept: (..., Dd, Dd) -> (..., d, D, D).
    """
    if gate.shape[-2:] != (D * d, D * d):
        raise ValueError(f"gate must be {D * d}x{D * d}")
    # rows (b, s), columns (a, 0)
    lead = gate.ndim - 2
    t = gate.reshape(*gate.shape[:-2], D, d, D, d)[..., 0]
    return t.transpose(*range(lead), lead + 1, lead + 2, lead)


def _transfer_from_tensors(a_ket: np.ndarray, a_bra: np.ndarray, obs) -> np.ndarray:
    # leading axes of the tensors (and of obs, if stacked) are kept
    D = a_ket.shape[-1]
    if obs is None:
        e = np.einsum("...sab,...scd->...acbd", a_ket, a_bra.conj())
    else:
        # ket leg rides the column index of O, bra leg the row index
        e = np.einsum("...st,...tab,...scd->...acbd", obs, a_ket, a_bra.conj())
    return e.reshape(*e.shape[:-4], D * D, D * D)


def transfer(gate, obs, D: int, d: int) -> np.ndarray:
    """Bond-ring operator E[(a a~), (b b~)] = sum_s A^s (x) conj(A^s), D² x D²;
    with obs, O_{s s'} weights the pair (s', s).

    The index order makes Tr[E_1 ... E_n] equal <psi| O_at_site |psi> on
    the periodic ring.
    """
    if obs is not None and obs.shape != (d, d):
        raise ValueError(f"observable must be {d}x{d}")
    a = site_tensor(gate, D, d)
    return _transfer_from_tensors(a, a, obs)


def _ring_trace(mats: Sequence[np.ndarray]) -> complex:
    acc = mats[0]
    for m in mats[1:]:
        acc = acc @ m
    return complex(np.trace(acc))


def _check_site(m: MpsAnsatz, site_m: int, o) -> None:
    if not 0 <= site_m < m.n:
        raise IndexError(f"observable site {site_m} outside [0, {m.n})")
    if np.shape(o) != (m.d, m.d):
        raise ValueError(f"observable must be {m.d}x{m.d}")


def _check_split_at(m: MpsAnsatz, site: int, u_minus, g, u_plus, o, site_m: int):
    _check_site(m, site_m, o)
    if not 0 <= site < m.n:
        raise IndexError(f"derivative site {site} outside [0, {m.n})")
    return check_split(u_minus, g, u_plus, m.D * m.d)


def cost(m: MpsAnsatz, o, site_m: int) -> float:
    """C = <psi| I ... O at site_m ... I |psi> by transfer-ring contraction."""
    _check_site(m, site_m, o)
    mats = [
        transfer(g, o if i == site_m else None, m.D, m.d)
        for i, g in enumerate(m.gates)
    ]
    return real_value(_ring_trace(mats), "ring trace")


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
    opsi = np.einsum("st,atb->asb", o, psi)
    return real_value(complex(np.vdot(psi, opsi)), "ring trace")


def grad_site(m: MpsAnsatz, site: int, u_minus, g, u_plus, o, site_m: int) -> float:
    """Exact dC along the generator g at ``site``; the ansatz gate there is
    ignored and replaced by u_minus @ u_plus.

    dC = 2 Re{ ring trace with the ket tensor of ``site`` built from
    u_minus @ (-i g) @ u_plus and the bra tensor from u_minus @ u_plus }.
    """
    um, g, up = _check_split_at(m, site, u_minus, g, u_plus, o, site_m)
    mats = []
    for i, gate in enumerate(m.gates):
        obs = o if i == site_m else None
        if i == site:
            a_ket = site_tensor(um @ (-1j * g) @ up, m.D, m.d)
            a_bra = site_tensor(um @ up, m.D, m.d)
            mats.append(_transfer_from_tensors(a_ket, a_bra, obs))
        else:
            mats.append(transfer(gate, obs, m.D, m.d))
    return 2.0 * _ring_trace(mats).real


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


def grad_fd(m: MpsAnsatz, site: int, u_minus, g, u_plus, o, site_m: int, h: float = 1e-5) -> float:
    """Central finite difference of C over theta in u_minus e^{-i theta g} u_plus."""
    split = _check_split_at(m, site, u_minus, g, u_plus, o, site_m)

    def at(gate: np.ndarray) -> float:
        gates = m.gates[:site] + (gate,) + m.gates[site + 1 :]
        return cost(MpsAnsatz(m.n, m.D, m.d, gates), o, site_m)

    return rotation_fd(at, *split, h)
