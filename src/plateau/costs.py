"""Cost observables built from a target unitary's output distribution.

A target V on n qubits fixes the single-qubit marginal p(V, x) of
V|0...0>.  Linear cross-entropy and cross-entropy costs are expectation
values of the diagonal observables

    O_xeb  = sum_x (2 p(V,x) - 1) |x><x|
    O_xent = -sum_x ln[p(V,x)] |x><x|

on the first site.  epsilon(O) = Tr(O^2) - Tr(O)^2 / d is the scale that
controls every gradient variance downstream.

Over Haar targets they come from one place, ``target_observables``: a
(B, 2, 2) stack, one target per stream, with a NaN diagonal where an xent
target hits the log floor.  The gradient sampler and the epsilon average
read it; ``observable_xeb`` and ``observable_xent`` are its references.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import Optional, Sequence

import numpy as np

from .linalg import haar_state, haar_state_from_gaussian
from .mc import EstimateResult, estimate_columns

P_FLOOR = 1e-30


class ClampWarning(RuntimeWarning):
    """A probability hit the log floor; the value involving it is suspect."""


class CostKind(enum.Enum):
    CROSS_ENTROPY = "xent"
    LINEAR_XEB = "xeb"


def _check_probs(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (2,) or not np.all((p >= -1e-12) & (p <= 1 + 1e-12)):
        raise ValueError("need two probabilities in [0, 1]")
    if abs(p[0] + p[1] - 1.0) > 1e-10:
        raise ValueError("probabilities must sum to 1")
    return p


def p_first_qubit(v, n: int) -> np.ndarray:
    """Marginal (p(0), p(1)) of the first qubit of V|0...0>.

    ``v`` is the target unitary (column 0 is used) or the state V|0...0>
    itself, unnormalized allowed; it must be finite and nonzero.
    """
    dim = 2**n
    arr = np.asarray(v)
    vec = arr[:, 0] if arr.ndim == 2 else arr.ravel()
    if vec.shape != (dim,):
        raise ValueError(f"target must act on {dim} dimensions (n = {n} qubits)")
    amps = np.abs(vec.reshape(2, -1)) ** 2
    p0 = float(amps[0].sum())
    tot = float(amps.sum())
    if not 0.0 < tot < math.inf:
        raise ValueError("target state must be finite and nonzero")
    return np.array([p0 / tot, 1.0 - p0 / tot])


def epsilon(o, d: int) -> float:
    """Squared HS distance of O from its trace part, Tr(O²) − Tr(O)²/d."""
    if o.shape != (d, d):
        raise ValueError(f"observable must be {d}x{d}")
    t1 = np.trace(o).real
    t2 = np.trace(o @ o).real
    return max(float(t2 - t1 * t1 / d), 0.0)


def _clamp(p: float, context: str) -> tuple[float, bool]:
    if p < P_FLOOR:
        warnings.warn(f"{context}: probability clamped to {P_FLOOR:g}", ClampWarning)
        return P_FLOOR, True
    return p, False


def cross_entropy(q, p) -> float:
    """-sum_x q(x) ln p(x) of two (2,) distributions, with p clamped away
    from zero."""
    q, p = _check_probs(q), _check_probs(p)
    total = 0.0
    for x in range(2):
        px, _ = _clamp(p[x], "cross_entropy")
        total -= q[x] * np.log(px)
    return total


def linear_xeb(p, q) -> float:
    """2 sum_x p(x) q(x) - 1 of two (2,) distributions."""
    p, q = _check_probs(p), _check_probs(q)
    return 2.0 * (p[0] * q[0] + p[1] * q[1]) - 1.0


def observable_xeb(v, n: int) -> np.ndarray:
    """O_xeb = diag(2 p(V, x) - 1), 2 x 2."""
    p = p_first_qubit(v, n)
    return np.diag(2.0 * p - 1.0)


def observable_xent(v, n: int) -> tuple[np.ndarray, bool]:
    """(O_xent, clamped): O_xent = diag(-ln p(V, x)), 2 x 2, and whether a
    probability hit the log floor."""
    p = p_first_qubit(v, n)
    clamped = False
    diag = []
    for x in range(2):
        px, hit = _clamp(p[x], "observable_xent")
        clamped = clamped or hit
        diag.append(-np.log(px))
    return np.diag(diag), clamped


def trace_oe_sq(v, n: int) -> float:
    """Tr(O_xent²) = sum_x ln[p(V,x)]² (clamped)."""
    p = p_first_qubit(v, n)
    total = 0.0
    for x in range(2):
        px, _ = _clamp(p[x], "trace_oe_sq")
        total += np.log(px) ** 2
    return total


def haar_avg_epsilon_xeb_closed(n: int) -> float:
    """Haar average of epsilon(O_xeb) over targets on n qubits: 2/(2^n + 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 / (2**n + 1)


def target_observables(kind, n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """O_kind of one Haar target state on n qubits per stream, a (B, 2, 2) stack.

    Each stream makes haar_state(2**n, rng)'s draws, a probability-zero
    redraw included, and nothing else.  Normalization and the first-qubit
    marginals run stacked, with p_first_qubit's operations, so row b is
    bitwise observable_xeb / observable_xent of that state.  An xent target
    whose distribution hits the log floor gets a NaN diagonal instead, so
    every value computed from it is excluded downstream.
    """
    kind = CostKind(kind)
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2**n
    normals = np.empty((len(rngs), 2, dim))
    for b, rng in enumerate(rngs):
        rng.standard_normal(out=normals[b])
    states, bad = haar_state_from_gaussian(normals[:, 0] + 1j * normals[:, 1])
    for b in np.flatnonzero(bad):
        states[b] = haar_state(dim, rngs[b])
    amps = np.abs(states.reshape(len(rngs), 2, -1)) ** 2
    p0 = amps[:, 0].sum(axis=-1) / amps.reshape(len(rngs), -1).sum(axis=-1)
    p = np.stack([p0, 1.0 - p0], axis=-1)
    if kind is CostKind.LINEAR_XEB:
        diag = 2.0 * p - 1.0
    else:
        clamped = np.any(p < P_FLOOR, axis=-1, keepdims=True)
        diag = np.where(clamped, np.nan, -np.log(np.maximum(p, P_FLOOR)))
    obs = np.zeros((len(rngs), 2, 2))
    obs[:, [0, 1], [0, 1]] = diag
    return obs


def haar_avg_epsilon_mc(kind, n: int, samples: int, seed: int,
                        workers: int = 1) -> tuple[EstimateResult, Optional[EstimateResult]]:
    """Sample means of epsilon(O_kind(V)) and of Tr(O_xent(V)²) over Haar targets.

    Only the state V|0...0> enters, so targets are drawn as Haar states,
    through ``target_observables``, and both estimates read the same draws.
    The second is None for xeb: O_xeb has trace zero, so its Tr(O²) is
    epsilon itself.  A clamped xent target is excluded from both (its count
    lands in each result's ``excluded`` field).
    """
    kind = CostKind(kind)
    if n < 1:
        raise ValueError("n must be >= 1")
    xent = kind is CostKind.CROSS_ENTROPY

    def sampler(indices: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        v = np.diagonal(target_observables(kind, n, rngs), axis1=1, axis2=2)
        t1 = v[:, 0] + v[:, 1]
        columns = [np.maximum(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] - t1 * t1 / 2, 0.0)]
        if xent:
            # libm pow, as np.float64 ** 2 uses; numpy's vector pow and x * x
            # round differently in the last place on some inputs
            sq = np.array([math.pow(x, 2) for x in v.ravel().tolist()]).reshape(v.shape)
            columns.append(sq[:, 0] + sq[:, 1])
        return np.stack(columns, axis=1)

    results = estimate_columns(sampler, 1 + xent, samples, seed, workers)
    return results if xent else (results[0], None)
