"""Cost observables built from a target unitary's output distribution.

A target V on n qubits fixes the single-qubit marginal p(V, x) of
V|0...0>.  Linear cross-entropy and cross-entropy costs are expectation
values of the diagonal observables

    O_xeb  = sum_x (2 p(V,x) - 1) |x><x|
    O_xent = -sum_x ln[p(V,x)] |x><x|

on the first site.  epsilon(O) = Tr(O^2) - Tr(O)^2 / d is the scale that
controls every gradient variance downstream, computed only by ``epsilon``.

Over Haar targets they come from one place, ``target_observables``: a
(B, 2, 2) stack, one target per stream, with a NaN diagonal where an xent
target hits the log floor.  The Monte-Carlo estimators of module ``mc``
read it; ``observable_xeb`` and ``observable_xent`` are its references.
Only ``linalg`` is imported here, so ``mc`` can import this module.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import Sequence

import numpy as np

from .linalg import haar_state, haar_state_from_gaussian

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


def epsilon(o, d: int):
    """Squared HS distance of O from its trace part, Tr(O²) − Tr(O)²/d: a float
    for one matrix, for a stack o[..., d, d] the per-matrix values (NaN kept)."""
    if o.shape[-2:] != (d, d):
        raise ValueError(f"observable must be {d}x{d}")
    t1 = np.trace(o, axis1=-2, axis2=-1).real
    t2 = np.trace(o @ o, axis1=-2, axis2=-1).real
    eps = np.maximum(t2 - t1 * t1 / d, 0.0)
    return float(eps) if o.ndim == 2 else eps


def _neg_logs(p, context: str) -> tuple[list, bool]:
    """-ln p(x) of both outcomes, each p(x) below the log floor raised to it
    with a ClampWarning, and whether one was."""
    logs, clamped = [], False
    for px in p:
        if px < P_FLOOR:
            warnings.warn(f"{context}: probability clamped to {P_FLOOR:g}", ClampWarning)
            px, clamped = P_FLOOR, True
        logs.append(-np.log(px))
    return logs, clamped


def cross_entropy(q, p) -> float:
    """-sum_x q(x) ln p(x) of two (2,) distributions, with p clamped away
    from zero."""
    q, p = _check_probs(q), _check_probs(p)
    logs, _ = _neg_logs(p, "cross_entropy")
    return q[0] * logs[0] + q[1] * logs[1]


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
    diag, clamped = _neg_logs(p_first_qubit(v, n), "observable_xent")
    return np.diag(diag), clamped


def trace_oe_sq(v, n: int) -> float:
    """Tr(O_xent²) = sum_x ln[p(V,x)]² (clamped)."""
    logs, _ = _neg_logs(p_first_qubit(v, n), "trace_oe_sq")
    return logs[0] ** 2 + logs[1] ** 2


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
