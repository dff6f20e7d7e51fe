"""Closed-form gradient variances for the six sampling geometries.

Which of the derivative site's two factors (u_minus, the late one, and
u_plus, the early one) is averaged exactly picks the case; the distance
delta between derivative and observable sites picks on-site vs off-site.
Every closed form is read from one object, the two-copy chain over the
straight and crossed pairings {S, A}, whose one-site transfer is
T = [[1, xi], [0, eta]] (``DesignConstants.chain``): a case's value is
the [A, A] entry of the chain up to the observable times the sum of a
2x2 boundary-coefficient matrix K against the chain after it, and the
large-n limit replaces that second chain by its limit.  K combines the
design constants, epsilon(O), Tr(O)^2 and one or two generator constants
C1..C6.  C4 is fully closed-form; the others are Haar integrals over the
non-averaged factor, estimated by Monte Carlo with reported standard
errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import epsilon
from .linalg import check_hermitian, partial_trace
from .mc import EnsembleSpec, VarianceCase, draw_unitaries, estimate_columns
from .twirl import DesignConstants, PermLabel


# constants entering each closed form (c4 is computed in every query)
CASE_CONSTANTS = {
    VarianceCase.OFFSITE_MINUS: ("c1",),
    VarianceCase.OFFSITE_PLUS: ("c2", "c3"),
    VarianceCase.OFFSITE_BOTH: ("c4",),
    VarianceCase.ONSITE_MINUS: ("c5", "c6"),
    VarianceCase.ONSITE_PLUS: ("c2", "c3"),
    VarianceCase.ONSITE_BOTH: ("c4",),
}


@dataclass(frozen=True, eq=False)
class VarianceQuery:
    """One closed-form evaluation point; g (Dd x Dd) and o (d x d) are
    checked Hermitian here and stored as complex arrays."""

    case: VarianceCase
    n: int
    D: int
    d: int
    g: np.ndarray
    o: np.ndarray
    delta: Optional[int] = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two sites")
        if self.D < 1 or self.d < 2:
            raise ValueError("need bond dim >= 1 and physical dim >= 2")
        if np.shape(self.g) != (self.D * self.d,) * 2:
            raise ValueError("generator must act on the full site (D*d)")
        if np.shape(self.o) != (self.d, self.d):
            raise ValueError("observable must act on the physical space (d)")
        object.__setattr__(self, "g", check_hermitian(self.g))
        object.__setattr__(self, "o", check_hermitian(self.o))
        if not self.case.onsite:
            cut = _SHAPES[self.case][2]
            if self.delta is None or not 1 <= self.delta <= self.n - cut:
                raise ValueError(f"{self.case.value} needs 1 <= delta <= n-{cut}")


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    stderr: float
    samples: int
    provenance: str

    def __post_init__(self):
        if self.provenance not in ("closed_form", "monte_carlo"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "closed_form" and self.stderr != 0.0:
            raise ValueError("closed-form constants carry no error bar")


@dataclass(frozen=True)
class CConstants:
    c1: Optional[ConstantEstimate] = None
    c2: Optional[ConstantEstimate] = None
    c3: Optional[ConstantEstimate] = None
    c4: Optional[ConstantEstimate] = None
    c5: Optional[ConstantEstimate] = None
    c6: Optional[ConstantEstimate] = None

    def __post_init__(self):
        if self.c4 is not None and self.c4.provenance != "closed_form":
            raise ValueError("c4 is always closed-form")

    def value(self, name: str, case: VarianceCase) -> float:
        entry = getattr(self, name)
        if entry is None:
            raise ValueError(f"case {case.value} needs constant {name}")
        return entry.value


def c4_closed(g, D: int, d: int) -> float:
    """C4 = 2[-Tr(G)^2 + Dd Tr(G^2)], exact for any generator."""
    if g.shape != (D * d, D * d):
        raise ValueError(f"generator must be {D * d}x{D * d}")
    t1 = np.trace(g).real
    t2 = np.trace(g @ g).real
    return 2.0 * (-t1 * t1 + D * d * t2)


# both take one matrix or a stack of them
def _rho_of(u_minus: np.ndarray, D: int, d: int) -> np.ndarray:
    p0 = np.zeros((d, d), dtype=complex)
    p0[0, 0] = 1.0
    return u_minus.conj().swapaxes(-1, -2) @ np.kron(np.eye(D), p0) @ u_minus


def _sigma_of(u_plus: np.ndarray, o: np.ndarray, D: int) -> np.ndarray:
    return u_plus @ np.kron(np.eye(D), o) @ u_plus.conj().swapaxes(-1, -2)


def _integrand(name: str, u: np.ndarray, g: np.ndarray, o, D: int, d: int) -> float:
    """Per-draw value whose 2x ensemble mean is the named constant."""
    if name == "c1":
        m = partial_trace(u.conj().T @ g @ u, [D, d], {1})
        val = -np.trace(m @ m) + D * np.trace(g @ g)
    elif name == "c2":
        rho = _rho_of(u, D, d)
        val = -np.trace(rho @ g @ rho @ g) + np.trace(g @ g @ rho @ rho)
    elif name == "c3":
        rho = _rho_of(u, D, d)
        val = -np.trace(rho @ g) ** 2 + D * np.trace(rho @ g @ g)
    elif name == "c5":
        sigma = _sigma_of(u, o, D)
        val = np.trace(sigma @ g @ (g @ sigma - sigma @ g))
    elif name == "c6":
        m1 = partial_trace(u.conj().T @ g @ u, [D, d], {1})
        m2 = partial_trace(u.conj().T @ g @ g @ u, [D, d], {1})
        val = -np.trace(m1 @ o @ m1 @ o) + D * np.trace(m2 @ o @ o)
    else:
        raise ValueError(f"unknown constant {name!r}")
    return float(val.real)


def _bond_trace(m: np.ndarray, D: int, d: int) -> np.ndarray:
    # partial_trace(m, [D, d], {1}) over a stack m[B]
    return np.trace(m.reshape(-1, D, d, D, d), axis1=1, axis2=3)


def _integrands(name: str, u: np.ndarray, g: np.ndarray, o, D: int, d: int) -> np.ndarray:
    """_integrand over a stack u[B] of draws: the same products in the same
    order, so each value is bitwise the per-draw one."""

    def tr(x):
        return np.trace(x, axis1=-2, axis2=-1)

    uh = u.conj().swapaxes(-1, -2)
    if name == "c1":
        m = _bond_trace(uh @ g @ u, D, d)
        val = -tr(m @ m) + D * np.trace(g @ g)
    elif name in ("c2", "c3"):
        rho = _rho_of(u, D, d)
        if name == "c2":
            val = -tr(rho @ g @ rho @ g) + tr(g @ g @ rho @ rho)
        else:
            val = -np.power(tr(rho @ g), 2) + D * tr(rho @ g @ g)
    elif name == "c5":
        sigma = _sigma_of(u, o, D)
        val = tr(sigma @ g @ (g @ sigma - sigma @ g))
    elif name == "c6":
        m1 = _bond_trace(uh @ g @ u, D, d)
        m2 = _bond_trace(uh @ g @ g @ u, D, d)
        val = -tr(m1 @ o @ m1 @ o) + D * tr(m2 @ o @ o)
    else:
        raise ValueError(f"unknown constant {name!r}")
    return val.real


def c_constants_mc(
    case: VarianceCase,
    g,
    o,
    D: int,
    d: int,
    ensemble: Optional[EnsembleSpec] = None,
    samples: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> CConstants:
    """Estimate the constants the case needs; c4 is always filled exactly.

    The minus cases integrate over u_plus draws, the plus cases over
    u_minus draws; ``ensemble`` is that unitary's distribution (default
    haar).  Each constant is twice the ensemble mean of its integrand; all
    of the case's integrands are evaluated on one draw of that unitary.
    """
    need = [c for c in CASE_CONSTANTS[case] if c != "c4"]
    if any(c in ("c5", "c6") for c in need) and o is None:
        raise ValueError("on-site minus constants depend on the observable")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    ensemble = ensemble or EnsembleSpec.haar(D * d)
    if ensemble.dim != D * d:
        raise ValueError("ensemble dim must equal D*d")

    out = {"c4": ConstantEstimate(c4_closed(g, D, d), 0.0, 0, "closed_form")}

    def sampler(indices, rngs) -> np.ndarray:
        u = draw_unitaries((ensemble,), rngs)[0]
        return np.stack([_integrands(name, u, g, o, D, d) for name in need], axis=1)

    estimates = estimate_columns(sampler, len(need), samples, seed, workers) if need else ()
    for name, r in zip(need, estimates):
        out[name] = ConstantEstimate(2.0 * r.mean, 2.0 * r.stderr_mean, samples, "monte_carlo")
    return CConstants(**out)


def _terms(vq: VarianceQuery) -> tuple[DesignConstants, float, float]:
    return DesignConstants.from_dims(vq.D, vq.d), epsilon(vq.o, vq.d), float(np.trace(vq.o).real) ** 2


# Boundary coefficients K over {S, A} from the case's constants; K[A, S]
# meets the zero entry of the chain and stays 0.
def _k_single(c, eps, tr2, D, d, q):
    # both and off-site minus: one constant times the bare observable boundary
    return c / q**2 * np.array([[-eps / d, eps * D], [0.0, eps * D**2 + tr2 * (D**2 - 1) / d]])


def _k_plus(c2, c3, eps, tr2, D, d, q):
    a = -c2 / D + c3
    row_a = eps * d * a * D**2 + tr2 * a * (D**2 - 1)
    return np.array([[eps * (c2 * D * d**2 - c3), eps * d * a * D], [0.0, row_a]]) / q**2


def _k_onsite_minus(c5, c6, eps, tr2, D, d, q):
    return np.array([[-c5 / (D * d), c5], [0.0, c6]]) / q


# case -> (K, shift, cut): delta' = delta + shift links up to the observable
# and L = n - delta - cut after it, with delta = 0 on site
_SHAPES = {
    VarianceCase.OFFSITE_MINUS: (_k_single, -1, 1),
    VarianceCase.OFFSITE_PLUS: (_k_plus, 0, 2),
    VarianceCase.OFFSITE_BOTH: (_k_single, 0, 1),
    VarianceCase.ONSITE_MINUS: (_k_onsite_minus, 0, 1),
    VarianceCase.ONSITE_PLUS: (_k_plus, 0, 2),
    VarianceCase.ONSITE_BOTH: (_k_single, 0, 1),
}


def _evaluate(vq: VarianceQuery, cc: CConstants, tail) -> float:
    """chain(delta')[A, A] * sum(K * tail(dc, L)) for the query's case.

    The pairing chain from the derivative site to the observable has
    delta' links and the one from the observable back round the ring L;
    tail is ``DesignConstants.chain`` or its n -> infinity limit.
    """
    dc, eps, tr2 = _terms(vq)
    build, shift, cut = _SHAPES[vq.case]
    delta = 0 if vq.case.onsite else vq.delta
    consts = [cc.value(name, vq.case) for name in CASE_CONSTANTS[vq.case]]
    k = build(*consts, eps, tr2, vq.D, vq.d, dc.q)
    a = PermLabel.A.index
    return float(dc.chain(delta + shift)[a, a] * np.sum(k * tail(dc, vq.n - delta - cut)))


def variance_formula(vq: VarianceQuery, cc: CConstants) -> float:
    """Exact finite-n variance for the query's case."""
    return _evaluate(vq, cc, DesignConstants.chain)


def variance_large_n(vq: VarianceQuery, cc: CConstants) -> float:
    """n -> infinity limit of variance_formula for the query's case."""
    return _evaluate(vq, cc, lambda dc, L: np.array([[1.0, dc.xi / (1.0 - dc.eta)], [0.0, 0.0]]))


def variance_bound_onsite_minus(vq: VarianceQuery, g=None) -> float:
    """Upper bound epsilon(O) 4||G||_inf^2 / q (1 + Dd xi/(1-eta))."""
    if not vq.case.onsite:
        raise ValueError("the bound applies to on-site cases")
    dc, eps, _ = _terms(vq)
    gm = vq.g if g is None else g
    gnorm = float(np.max(np.abs(np.linalg.eigvalsh(gm))))
    return eps * 4.0 * gnorm**2 / dc.q * (1.0 + vq.D * vq.d * dc.xi / (1.0 - dc.eta))
