"""Layered qubit circuits: exact costs, gradients, and gradient statistics.

Gates act on ordered qubit subsets of a statevector (cap 2^12); the
derivative inserts -i V_k inside one layer's (u_minus, u_plus) split,
exactly as in the MPS case but without any ring structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import check_hermitian, check_split, check_unitary, real_value, rotation_fd
from .mc import EnsembleSpec, EstimateResult, draw_unitaries, estimate

QUBIT_CAP = 12


@dataclass(frozen=True, eq=False)
class LayeredCircuit:
    """Gates in application order, each a unitary on its qubit support; the
    gates are checked here and stored as complex arrays."""

    n_qubits: int
    gates: tuple  # ((unitary, support), ...) in application order
    observable_layer: int

    def __post_init__(self):
        if not 1 <= self.n_qubits <= QUBIT_CAP:
            raise ValueError(f"need 1 <= n_qubits <= {QUBIT_CAP}")
        gates = tuple((np.asarray(g, dtype=complex), tuple(int(q) for q in s)) for g, s in self.gates)
        for g, s in gates:
            if len(set(s)) != len(s) or any(q < 0 or q >= self.n_qubits for q in s):
                raise ValueError(f"bad support {s}")
            if g.shape != (2 ** len(s),) * 2:
                raise ValueError(f"gate on support {s} must be {2 ** len(s)}-dimensional")
            check_unitary(g)
        if not 0 <= self.observable_layer < len(gates):
            raise IndexError("observable_layer out of range")
        object.__setattr__(self, "gates", gates)

    @property
    def supports(self) -> tuple:
        return tuple(s for _, s in self.gates)


def brick_supports(n_qubits: int, n_layers: int) -> tuple:
    """Alternating nearest-neighbour pairs; odd layers wrap around."""
    if n_qubits < 2:
        raise ValueError("brick layout needs at least two qubits")
    out = []
    for layer in range(n_layers):
        start = layer % 2
        for q in range(start, n_qubits - 1 + start, 2):
            out.append((q, (q + 1) % n_qubits))
    return tuple(out)


def apply_gate(state: np.ndarray, gate, support: Sequence[int], n_qubits: int) -> np.ndarray:
    """Apply a 2^k-dimensional matrix to the given qubits of a statevector.

    A leading batch axis is allowed: state (B, 2^n) with gate (2^k, 2^k)
    or (B, 2^k, 2^k) applies each slice's gate to that slice's state.
    Each slice is one matrix product, bitwise the unbatched result.
    """
    k = len(support)
    lead = state.shape[:-1]
    psi = state.reshape(*lead, *(2,) * n_qubits)
    nl = len(lead)
    first = [nl + q for q in support]
    rest = [nl + q for q in range(n_qubits) if q not in support]
    cols = psi.transpose(*range(nl), *first, *rest).reshape(*lead, 2**k, -1)
    out = (gate @ cols).reshape(*lead, *(2,) * n_qubits)
    return np.moveaxis(out, range(nl, nl + k), first).reshape(*lead, -1)


def _run(n_qubits: int, gates: Sequence, supports: Sequence, lead: tuple = ()) -> np.ndarray:
    psi = np.zeros((*lead, 2**n_qubits), dtype=complex)
    psi[..., 0] = 1.0
    for g, s in zip(gates, supports):
        psi = apply_gate(psi, g, s, n_qubits)
    return psi


def _check_obs(c: LayeredCircuit, o_a, a: Sequence[int]) -> tuple:
    a = tuple(int(q) for q in a)
    if len(set(a)) != len(a) or any(q < 0 or q >= c.n_qubits for q in a):
        raise ValueError(f"bad observable support {a}")
    if np.shape(o_a) != (2 ** len(a),) * 2:
        raise ValueError("observable dim must match its support")
    if not set(a) <= set(c.gates[c.observable_layer][1]):
        raise ValueError("observable support must sit inside the observable layer's support")
    return a


def expectation(psi: np.ndarray, o_a, a: Sequence[int], n_qubits: int,
                phi: Optional[np.ndarray] = None):
    """<phi| O_A |psi> (phi defaults to psi); an array of values for a batch."""
    opsi = apply_gate(psi, o_a, a, n_qubits)
    bra = (phi if phi is not None else psi).conj()
    val = (bra[..., None, :] @ opsi[..., :, None])[..., 0, 0]
    return complex(val) if val.ndim == 0 else val


def circuit_cost(c: LayeredCircuit, o_a, a: Sequence[int]) -> float:
    """<0...0| U^dag (O_A (x) I) U |0...0> by statevector simulation."""
    a = _check_obs(c, o_a, a)
    val = expectation(_run(c.n_qubits, [g for g, _ in c.gates], c.supports), o_a, a, c.n_qubits)
    return real_value(val, "circuit cost")


def _check_split_at(c: LayeredCircuit, layer: int, u_minus, v_k, u_plus):
    if not 0 <= layer < len(c.gates):
        raise IndexError("derivative layer out of range")
    return check_split(u_minus, v_k, u_plus, 2 ** len(c.gates[layer][1]))


def circuit_grad(c: LayeredCircuit, layer: int, u_minus, v_k, u_plus, o_a, a: Sequence[int]) -> float:
    """Exact dC along v_k; the gate at ``layer`` is replaced by u_minus u_plus."""
    a = _check_obs(c, o_a, a)
    um, v_k, up = _check_split_at(c, layer, u_minus, v_k, u_plus)
    gates = [g for g, _ in c.gates]
    psi = _run(c.n_qubits, gates[:layer] + [um @ up] + gates[layer + 1 :], c.supports)
    gates[layer] = um @ (-1j * v_k) @ up
    dpsi = _run(c.n_qubits, gates, c.supports)
    return 2.0 * expectation(dpsi, o_a, a, c.n_qubits, phi=psi).real


def circuit_grad_fd(c: LayeredCircuit, layer: int, u_minus, v_k, u_plus, o_a, a: Sequence[int],
                    h: float = 1e-5) -> float:
    """Central finite difference of circuit_cost over theta in u_minus e^{-i theta v_k} u_plus."""
    split = _check_split_at(c, layer, u_minus, v_k, u_plus)

    def at(gate: np.ndarray) -> float:
        gates = tuple((gate if i == layer else g, s) for i, (g, s) in enumerate(c.gates))
        return circuit_cost(LayeredCircuit(c.n_qubits, gates, c.observable_layer), o_a, a)

    return rotation_fd(at, *split, h)


def circuit_variance_mc(
    c_template: LayeredCircuit,
    layer: int,
    v_k,
    o_a,
    a: Sequence[int],
    samples: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> EstimateResult:
    """Gradient statistics with every layer redrawn per sample.

    The template fixes the layout (supports and observable layer) only;
    each sample draws fresh Haar unitaries on every support.  The derivative
    layer's gate is the product of two independent draws, between which
    -i v_k is inserted.
    """
    a = _check_obs(c_template, o_a, a)
    if not 0 <= layer < len(c_template.gates):
        raise IndexError("derivative layer out of range")
    supports = c_template.supports
    dim_k = 2 ** len(supports[layer])
    if np.shape(v_k) != (dim_k, dim_k):
        raise ValueError("v_k dim must match the derivative layer")
    minus_iv = -1j * check_hermitian(v_k)
    o_a = check_hermitian(o_a)
    # draw order: one gate per support, the derivative layer's u_minus then u_plus
    specs = [EnsembleSpec.haar(2 ** len(s)) for s in supports]
    specs.insert(layer, specs[layer])

    def sampler(indices: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        drawn = draw_unitaries(specs, rngs)
        um, up = drawn[layer], drawn[layer + 1]
        gates = drawn[:layer] + [um @ up] + drawn[layer + 2 :]
        psi = _run(c_template.n_qubits, gates, supports, (len(rngs),))
        gates[layer] = um @ minus_iv @ up
        dpsi = _run(c_template.n_qubits, gates, supports, (len(rngs),))
        return 2.0 * expectation(dpsi, o_a, a, c_template.n_qubits, phi=psi).real

    return estimate(sampler, samples, seed, workers)
