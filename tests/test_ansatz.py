import numpy as np
import pytest

from plateau.ansatz import (
    MpsAnsatz,
    SiteDecomposition,
    cost,
    cost_statevector,
    grad_fd,
    grad_site,
    site_tensor,
    statevector,
    transfer,
)
from plateau.linalg import HermitianObservable, UnitaryGate, gue_hermitian, haar_unitary


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def random_ansatz(n, D, d, rng):
    return MpsAnsatz(n, D, d, tuple(haar_unitary(D * d, rng) for _ in range(n)))


def test_site_tensor_isometry():
    # summing A^s A^s+ over the physical index recovers the bond identity
    for D, d in ((1, 2), (2, 2), (3, 2), (2, 3)):
        u = haar_unitary(D * d, rng_for(D * 10 + d)).matrix
        a = site_tensor(u, D, d)
        assert a.shape == (d, D, D)
        acc = np.einsum("sab,scb->ac", a, a.conj())
        assert np.max(np.abs(acc - np.eye(D))) < 1e-12


def test_identity_gates_give_bond_squared():
    for n in (2, 3, 5):
        m = MpsAnsatz(n, 2, 2, tuple(np.eye(4) for _ in range(n)))
        assert cost(m, np.eye(2), 0) == pytest.approx(4.0)
        assert cost_statevector(m, np.eye(2), 0) == pytest.approx(4.0)


def test_cost_matches_statevector():
    rng = rng_for(0)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        D = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        m = random_ansatz(n, D, d, rng)
        o = gue_hermitian(d, rng).matrix
        site = int(rng.integers(0, n))
        a = cost(m, o, site)
        b = cost_statevector(m, o, site)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    assert worst < 1e-10


def test_grad_matches_finite_difference():
    rng = rng_for(1)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        D = int(rng.integers(1, 3))
        d = 2
        m = random_ansatz(n, D, d, rng)
        site = int(rng.integers(0, n))
        dec = SiteDecomposition(
            site,
            haar_unitary(D * d, rng),
            gue_hermitian(D * d, rng),
            haar_unitary(D * d, rng),
        )
        o = gue_hermitian(d, rng).matrix
        site_m = int(rng.integers(0, n))
        worst = max(worst, abs(grad_site(m, dec, o, site_m) - grad_fd(m, dec, o, site_m)))
    assert worst < 1e-6


def test_gate_matrix_and_derivative_composition():
    rng = rng_for(2)
    um = haar_unitary(4, rng)
    up = haar_unitary(4, rng)
    g = gue_hermitian(4, rng)
    dec = SiteDecomposition(0, um, g, up)
    assert np.allclose(dec.gate_matrix, um.matrix @ up.matrix)
    assert np.allclose(dec.derivative_matrix, um.matrix @ (-1j * g.matrix) @ up.matrix)


def test_transfer_spectral_radius_bounded():
    rng = rng_for(3)
    for _ in range(15):
        D = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        t = transfer(haar_unitary(D * d, rng), None, D, d)
        radius = np.max(np.abs(np.linalg.eigvals(t)))
        assert radius <= 1.0 + 1e-10


def test_cost_site_choice_irrelevant_for_identity_observable():
    rng = rng_for(4)
    m = random_ansatz(4, 2, 2, rng)
    vals = [cost(m, np.eye(2), k) for k in range(4)]
    assert np.ptp(vals) < 1e-12


def test_cost_invariant_under_gate_phase():
    rng = rng_for(5)
    m = random_ansatz(3, 2, 2, rng)
    o = gue_hermitian(2, rng).matrix
    base = cost(m, o, 1)
    gates = list(m.gates)
    gates[2] = UnitaryGate(np.exp(0.7j) * gates[2].matrix)
    m2 = MpsAnsatz(3, 2, 2, tuple(gates))
    assert cost(m2, o, 1) == pytest.approx(base, abs=1e-12)


def test_zero_generator_zero_gradient():
    rng = rng_for(6)
    m = random_ansatz(3, 2, 2, rng)
    dec = SiteDecomposition(
        0,
        haar_unitary(4, rng),
        HermitianObservable(np.zeros((4, 4))),
        haar_unitary(4, rng),
    )
    assert grad_site(m, dec, np.diag([1.0, -1.0]), 0) == 0.0


def test_statevector_shape_and_cap():
    rng = rng_for(7)
    m = random_ansatz(3, 2, 2, rng)
    psi = statevector(m)
    assert psi.shape == (8,)
    with pytest.raises(ValueError):
        cost_statevector(random_ansatz(13, 2, 2, rng), np.eye(2), 0)


def test_ansatz_validation():
    gates = tuple(np.eye(4) for _ in range(2))
    with pytest.raises(ValueError):
        MpsAnsatz(1, 2, 2, gates[:1])
    with pytest.raises(ValueError):
        MpsAnsatz(2, 0, 2, gates)
    with pytest.raises(ValueError):
        MpsAnsatz(2, 2, 1, gates)
    with pytest.raises(ValueError):
        MpsAnsatz(3, 2, 2, gates)
    with pytest.raises(ValueError):
        MpsAnsatz(2, 3, 2, gates)
