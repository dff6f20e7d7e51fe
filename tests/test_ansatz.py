import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateau.ansatz import (
    MpsAnsatz,
    cost,
    cost_statevector,
    grad_fd,
    grad_site,
    site_tensor,
    statevector,
    transfer,
)
from plateau.linalg import gue_hermitian, haar_unitary


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def random_ansatz(n, D, d, rng):
    return MpsAnsatz(n, D, d, tuple(haar_unitary(D * d, rng) for _ in range(n)))


def test_site_tensor_isometry():
    # summing A^s A^s+ over the physical index recovers the bond identity
    for D, d in ((1, 2), (2, 2), (3, 2), (2, 3)):
        u = haar_unitary(D * d, rng_for(D * 10 + d))
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
        o = gue_hermitian(d, rng)
        site = int(rng.integers(0, n))
        a = cost(m, o, site)
        b = cost_statevector(m, o, site)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    assert worst < 1e-10
    # an imaginary residue on the ring trace raises instead of being dropped
    for fn in (cost, cost_statevector):
        with pytest.raises(ArithmeticError, match="ring trace"):
            fn(m, 1j * np.eye(d), site)


@given(
    n=st.integers(min_value=2, max_value=5),
    D=st.integers(min_value=1, max_value=3),
    d=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
@settings(deadline=None, max_examples=40)
def test_cost_matches_statevector_property(n, D, d, seed, data):
    # plain complex128 Haar gates, no wrapper in between
    rng = rng_for(seed)
    gates = tuple(haar_unitary(D * d, rng) for _ in range(n))
    assert all(type(g) is np.ndarray and g.dtype == complex for g in gates)
    m = MpsAnsatz(n, D, d, gates)
    o = gue_hermitian(d, rng)
    site = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = cost_statevector(m, o, site)
    assert abs(cost(m, o, site) - b) <= 1e-10 * max(1.0, abs(b))


def test_grad_matches_finite_difference():
    rng = rng_for(1)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        D = int(rng.integers(1, 3))
        d = 2
        m = random_ansatz(n, D, d, rng)
        site = int(rng.integers(0, n))
        split = (haar_unitary(D * d, rng), gue_hermitian(D * d, rng), haar_unitary(D * d, rng))
        o = gue_hermitian(d, rng)
        site_m = int(rng.integers(0, n))
        worst = max(worst, abs(grad_site(m, site, *split, o, site_m) - grad_fd(m, site, *split, o, site_m)))
    assert worst < 1e-6
    for h in (0.0, -1e-5):
        with pytest.raises(ValueError, match="h must be positive"):
            grad_fd(m, site, *split, o, site_m, h=h)


def test_gate_matrix_and_derivative_composition():
    # grad_site uses u_minus @ u_plus as the gate and u_minus (-i g) u_plus as
    # its derivative, so the split (u_minus u_plus, u_plus^dag g u_plus, I)
    # gives the same gradient, and the ansatz gate at the site is ignored
    rng = rng_for(2)
    m = MpsAnsatz(3, 2, 2, tuple(haar_unitary(4, rng) for _ in range(3)))
    um, g, up = haar_unitary(4, rng), gue_hermitian(4, rng), haar_unitary(4, rng)
    o = gue_hermitian(2, rng)
    base = grad_site(m, 1, um, g, up, o, 2)
    moved = grad_site(m, 1, um @ up, up.conj().T @ g @ up, np.eye(4), o, 2)
    assert moved == pytest.approx(base, abs=1e-12)
    other = MpsAnsatz(3, 2, 2, m.gates[:1] + (haar_unitary(4, rng),) + m.gates[2:])
    assert grad_site(other, 1, um, g, up, o, 2) == base
    # the split's three factors must share the site dimension
    with pytest.raises(ValueError, match="4x4"):
        grad_site(m, 1, um, g[:2, :2], up, o, 2)
    with pytest.raises(ValueError, match="4x4"):
        grad_fd(m, 1, um, g, np.eye(2), o, 2)
    with pytest.raises(ValueError, match="not unitary"):
        grad_site(m, 1, 2.0 * um, g, up, o, 2)
    with pytest.raises(ValueError, match="not Hermitian"):
        grad_site(m, 1, um, 1j * g, up, o, 2)
    with pytest.raises(IndexError):
        grad_site(m, 3, um, g, up, o, 2)


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
    o = gue_hermitian(2, rng)
    base = cost(m, o, 1)
    gates = list(m.gates)
    gates[2] = np.exp(0.7j) * gates[2]
    m2 = MpsAnsatz(3, 2, 2, tuple(gates))
    assert cost(m2, o, 1) == pytest.approx(base, abs=1e-12)


def test_zero_generator_zero_gradient():
    rng = rng_for(6)
    m = random_ansatz(3, 2, 2, rng)
    split = (haar_unitary(4, rng), np.zeros((4, 4)), haar_unitary(4, rng))
    assert grad_site(m, 0, *split, np.diag([1.0, -1.0]), 0) == 0.0


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
    with pytest.raises(ValueError, match="not unitary"):
        MpsAnsatz(2, 2, 2, (np.eye(4), 2.0 * np.eye(4)))
    with pytest.raises(ValueError, match="non-finite"):
        MpsAnsatz(2, 2, 2, (np.eye(4), np.full((4, 4), np.nan)))
    with pytest.raises(ValueError):
        MpsAnsatz(2, 2, 2, (np.eye(4), np.ones((4, 2))))
