import os
import subprocess
import sys

import numpy as np
import pytest

import plateau
from plateau.circuit import (
    LayeredCircuit,
    apply_gate,
    brick_supports,
    circuit_cost,
    circuit_grad,
    circuit_grad_fd,
    circuit_variance_mc,
    expectation,
)
from plateau.linalg import gue_hermitian, haar_unitary, pauli_string


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


X = pauli_string("X")
Z = pauli_string("Z")
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
)


def dense_circuit_matrix(c):
    # oracle: lift every gate to the full register with explicit kron sums
    full = np.eye(2**c.n_qubits, dtype=complex)
    for gate, support in c.gates:
        g = np.asarray(gate, dtype=complex)
        k = len(support)
        lifted = np.zeros((2**c.n_qubits, 2**c.n_qubits), dtype=complex)
        for row in range(2**c.n_qubits):
            bits = [(row >> (c.n_qubits - 1 - q)) & 1 for q in range(c.n_qubits)]
            r_sub = int("".join(str(bits[q]) for q in support), 2)
            for c_sub in range(2**k):
                new_bits = list(bits)
                for pos, q in enumerate(support):
                    new_bits[q] = (c_sub >> (k - 1 - pos)) & 1
                col = int("".join(map(str, new_bits)), 2)
                lifted[row, col] = g[r_sub, c_sub]
        full = lifted @ full
    return full


def random_circuit(n_qubits, n_layers, rng, obs_layer=None):
    supports = brick_supports(n_qubits, n_layers)
    gates = tuple((haar_unitary(4, rng), s) for s in supports)
    layer = len(gates) - 1 if obs_layer is None else obs_layer
    return LayeredCircuit(n_qubits, gates, layer)


def test_brick_supports_frozen():
    assert brick_supports(4, 2) == ((0, 1), (2, 3), (1, 2), (3, 0))
    assert brick_supports(5, 2) == ((0, 1), (2, 3), (1, 2), (3, 4))
    with pytest.raises(ValueError):
        brick_supports(1, 1)


def test_apply_gate_hand_values():
    psi = np.zeros(8)
    psi[0] = 1.0
    out = apply_gate(psi, X, (0,), 3)
    want = np.zeros(8)
    want[4] = 1.0  # |100>
    assert np.allclose(out, want)
    flipped = apply_gate(out, CNOT, (0, 1), 3)
    want2 = np.zeros(8)
    want2[6] = 1.0  # |110>
    assert np.allclose(flipped, want2)
    # support order matters for asymmetric gates
    rev = apply_gate(out, CNOT, (1, 0), 3)
    assert np.allclose(rev, out)


def test_expectation_hand_value():
    psi = np.zeros(4)
    psi[2] = 1.0  # |10>
    assert expectation(psi, Z, (0,), 2).real == pytest.approx(-1.0)
    assert expectation(psi, Z, (1,), 2).real == pytest.approx(1.0)


def test_batched_expectation_is_vdot_per_slice():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    phi = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    o = gue_hermitian(4, rng)
    got = expectation(psi, o, (2, 0), 3, phi=phi)
    want = [np.vdot(f, apply_gate(p, o, (2, 0), 3)) for f, p in zip(phi, psi)]
    assert got.shape == (5,)
    assert all(g == w for g, w in zip(got.tolist(), want))
    assert expectation(psi[1], o, (2, 0), 3, phi=phi[1]) == want[1]


def test_circuit_cost_matches_dense_oracle():
    rng = rng_for(0)
    for _ in range(10):
        c = random_circuit(3, 2, rng)
        psi = dense_circuit_matrix(c)[:, 0]
        o = gue_hermitian(2, rng)
        qubit = c.gates[c.observable_layer][1][0]
        want = np.vdot(psi, apply_gate(psi, o, (qubit,), 3)).real
        assert circuit_cost(c, o, (qubit,)) == pytest.approx(want, abs=1e-12)
    # a value that must be real raises on an imaginary residue, also under -O
    with pytest.raises(ArithmeticError, match="circuit cost"):
        circuit_cost(c, 1j * np.eye(2), (qubit,))
    code = (
        "import numpy as np; from plateau.circuit import LayeredCircuit, circuit_cost\n"
        "c = LayeredCircuit(1, ((np.eye(2), (0,)),), 0)\n"
        "try:\n    circuit_cost(c, 1j * np.eye(2), (0,))\nexcept ArithmeticError:\n    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plateau.__file__)))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert r.stdout.strip() == "raised", r.stderr


def test_circuit_grad_matches_finite_difference():
    rng = rng_for(1)
    worst = 0.0
    for _ in range(10):
        c = random_circuit(4, 2, rng)
        layer = int(rng.integers(0, len(c.gates)))
        split = (haar_unitary(4, rng), gue_hermitian(4, rng), haar_unitary(4, rng))
        o = gue_hermitian(2, rng)
        a = (c.gates[c.observable_layer][1][0],)
        worst = max(worst, abs(circuit_grad(c, layer, *split, o, a) - circuit_grad_fd(c, layer, *split, o, a)))
    assert worst < 1e-6
    for h in (0.0, -1e-5):
        with pytest.raises(ValueError, match="h must be positive"):
            circuit_grad_fd(c, layer, *split, o, a, h=h)
    # the split's three factors must share the layer's dimension
    um, v, up = split
    with pytest.raises(ValueError, match="4x4"):
        circuit_grad(c, layer, um, v, np.eye(2), o, a)
    with pytest.raises(ValueError, match="4x4"):
        circuit_grad_fd(c, layer, um[:2, :2], v, up, o, a)
    with pytest.raises(ValueError, match="not Hermitian"):
        circuit_grad(c, layer, um, 1j * v, up, o, a)
    with pytest.raises(IndexError):
        circuit_grad(c, len(c.gates), um, v, up, o, a)


def test_observable_support_must_sit_in_observable_layer():
    rng = rng_for(2)
    c = random_circuit(4, 2, rng, obs_layer=0)  # support (0, 1)
    with pytest.raises(ValueError):
        circuit_cost(c, Z, (3,))
    circuit_cost(c, Z, (1,))


def test_qubit_cap():
    with pytest.raises(ValueError):
        LayeredCircuit(13, ((np.eye(4), (0, 1)),), 0)


def test_layered_circuit_validation():
    with pytest.raises(ValueError):
        LayeredCircuit(2, ((np.eye(4), (0, 0)),), 0)
    with pytest.raises(ValueError):
        LayeredCircuit(2, ((np.eye(2), (0, 1)),), 0)
    with pytest.raises(IndexError):
        LayeredCircuit(2, ((np.eye(4), (0, 1)),), 5)
    with pytest.raises(ValueError, match="not unitary"):
        LayeredCircuit(2, ((np.eye(4), (0, 1)), (np.ones((2, 2)), (0,))), 0)
    with pytest.raises(ValueError, match="non-finite"):
        LayeredCircuit(2, ((np.full((4, 4), np.inf), (0, 1)),), 0)


def test_variance_mc_zero_mean_and_determinism():
    rng = rng_for(3)
    c = random_circuit(4, 2, rng)
    v_k = gue_hermitian(4, rng_for(4))
    a = (c.gates[c.observable_layer][1][0],)
    kw = dict(samples=1500, seed=6)
    r = circuit_variance_mc(c, 0, v_k, Z, a, **kw)
    assert abs(r.mean) <= 3.0 * r.stderr_mean
    assert r.variance > 0.0
    r2 = circuit_variance_mc(c, 0, v_k, Z, a, workers=3, **kw)
    assert (r.mean, r.variance, r.stderr_mean) == (r2.mean, r2.variance, r2.stderr_mean)
    with pytest.raises(ValueError, match="not Hermitian"):
        circuit_variance_mc(c, 0, v_k + 1j * np.eye(4), Z, a, samples=100, seed=0)
    with pytest.raises(ValueError, match="not Hermitian"):
        circuit_variance_mc(c, 0, v_k, X @ Z, a, samples=100, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        circuit_variance_mc(c, 0, v_k, np.diag([1.0, np.nan]), a, samples=100, seed=0)


def test_variance_over_epsilon_constant_across_observables():
    # gradient variance divided by eps(O) should not depend on O
    rng = rng_for(5)
    c = random_circuit(4, 2, rng)
    v_k = gue_hermitian(4, rng_for(6))
    a = (c.gates[c.observable_layer][1][0],)
    ratios = []
    sigmas = []
    for o, eps in ((Z, 2.0), (X, 2.0), (np.diag([1.0, 0.0]), 0.5)):
        r = circuit_variance_mc(c, 1, v_k, o, a, samples=4000, seed=7)
        ratios.append(r.variance / eps)
        sigmas.append(r.stderr_variance / eps)
    for i in range(1, len(ratios)):
        gap = abs(ratios[i] - ratios[0])
        assert gap <= 3.0 * float(np.hypot(sigmas[i], sigmas[0]))
