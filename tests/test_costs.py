import numpy as np
import pytest

from plateau.ansatz import MpsAnsatz, cost
from plateau.costs import (
    ClampWarning,
    CostKind,
    cross_entropy,
    epsilon,
    haar_avg_epsilon_xeb_closed,
    linear_xeb,
    observable_xeb,
    observable_xent,
    p_first_qubit,
    trace_oe_sq,
)
from plateau.linalg import gue_hermitian, haar_state, haar_unitary
from plateau.mc import haar_avg_epsilon_mc


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def test_output_distribution_validation():
    # distributions are (2,) arrays, checked where they enter
    good = np.array([0.25, 0.75])
    for bad in ((0.5, 0.6), (-0.1, 1.1), (np.nan, 0.5), (0.2, 0.3, 0.5)):
        for fn in (cross_entropy, linear_xeb):
            with pytest.raises(ValueError):
                fn(good, bad)
            with pytest.raises(ValueError):
                fn(bad, good)
    assert linear_xeb(good, good) == pytest.approx(2 * (0.25**2 + 0.75**2) - 1)
    # p_first_qubit checks the state the distribution comes from
    for state in (np.zeros(4), np.array([1.0, np.nan, 0.0, 0.0]), np.ones(8)):
        with pytest.raises(ValueError):
            p_first_qubit(state, 2)


def test_p_first_qubit():
    v = np.zeros(4)
    v[0] = 1.0
    assert p_first_qubit(v, 2).tolist() == [1.0, 0.0]
    plus = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    q = p_first_qubit(plus, 2)
    assert q.shape == (2,)
    assert q[0] == pytest.approx(0.5)
    # unnormalized input is normalized first
    q2 = p_first_qubit(10.0 * plus, 2)
    assert q2[0] == pytest.approx(0.5)
    for seed in range(5):
        probs = p_first_qubit(haar_state(8, rng_for(seed)), 3)
        assert sum(probs) == pytest.approx(1.0)


def test_cross_entropy_gibbs():
    rng = rng_for(1)
    for _ in range(20):
        a, b = rng.uniform(0.05, 0.95, size=2)
        q = np.array([a, 1.0 - a])
        p = np.array([b, 1.0 - b])
        assert cross_entropy(q, p) >= cross_entropy(q, q) - 1e-12


def test_linear_xeb_values():
    delta = np.array([1.0, 0.0])
    unif = np.array([0.5, 0.5])
    assert linear_xeb(delta, delta) == pytest.approx(1.0)
    assert linear_xeb(unif, unif) == pytest.approx(0.0)
    assert linear_xeb(delta, unif) == pytest.approx(0.0)


def test_xeb_observable_epsilon_identity():
    # eps(O) for the benchmark observable collapses to 4 sum p^2 - 2
    for seed in range(8):
        n = 2 + seed % 3
        v = haar_state(2**n, rng_for(seed))
        ob = observable_xeb(v, n)
        p = p_first_qubit(v, n)
        assert epsilon(ob, 2) == pytest.approx(
            4.0 * (p[0] ** 2 + p[1] ** 2) - 2.0, abs=1e-12
        )


def test_xent_observable_on_uniform_state():
    plus = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    ob, clamped = observable_xent(plus, 2)
    assert not clamped
    assert np.allclose(ob, np.log(2.0) * np.eye(2))
    assert trace_oe_sq(plus, 2) == pytest.approx(2.0 * np.log(2.0) ** 2)
    assert epsilon(ob, 2) == pytest.approx(0.0, abs=1e-12)


def test_xent_clamp_flags_degenerate_distribution():
    v = np.zeros(4)
    v[0] = 1.0
    with pytest.warns(ClampWarning):
        ob, clamped = observable_xent(v, 2)
    assert clamped
    assert np.all(np.isfinite(ob))


def test_epsilon_basics():
    assert epsilon(np.eye(3), 3) == 0.0
    assert epsilon(np.diag([1.0, -1.0]), 2) == pytest.approx(2.0)
    assert epsilon(np.diag([1.0, 0.0]), 2) == pytest.approx(0.5)


@pytest.mark.parametrize("d", [2, 3, 5, 9])
def test_epsilon_of_a_stack_is_the_per_matrix_value(d):
    rng = rng_for(d)
    # complex and real non-diagonal Hermitian stacks, of one and of two leading axes
    gue = np.stack([gue_hermitian(d, rng) * rng.uniform(0.1, 50.0) for _ in range(24)])
    sym = rng.standard_normal((24, d, d))
    for stack in (gue, sym + np.swapaxes(sym, 1, 2), gue.reshape(4, 6, d, d)):
        got = epsilon(stack, d)
        assert got.shape == stack.shape[:-2]
        want = np.array([epsilon(o, d) for o in stack.reshape(-1, d, d)])
        assert got.ravel().tobytes() == want.tobytes()
    nan_row = np.eye(d)
    nan_row[0, 0] = np.nan
    got = epsilon(np.stack([gue[0], nan_row]), d)
    assert got[0] == epsilon(gue[0], d)
    assert np.isnan(got[1])
    assert type(epsilon(gue[0], d)) is float
    with pytest.raises(ValueError):
        epsilon(np.zeros((3, d + 1, d + 1)), d)


def test_cost_is_linear_in_observable():
    rng = rng_for(4)
    m = MpsAnsatz(3, 2, 2, tuple(haar_unitary(4, rng) for _ in range(3)))
    v = haar_state(4, rng)
    ob = observable_xeb(v, 2)
    q = p_first_qubit(v, 2)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    lhs = cost(m, ob, 0)
    rhs = 2.0 * (q[0] * cost(m, p0, 0) + q[1] * cost(m, p1, 0)) - cost(m, np.eye(2), 0)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_closed_form_haar_average():
    assert haar_avg_epsilon_xeb_closed(1) == pytest.approx(2.0 / 3.0)
    assert haar_avg_epsilon_xeb_closed(2) == pytest.approx(0.4)
    vals = [haar_avg_epsilon_xeb_closed(n) for n in range(1, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_haar_avg_epsilon_mc_matches_closed():
    r, _ = haar_avg_epsilon_mc(CostKind.LINEAR_XEB, 2, samples=4000, seed=6)
    assert abs(r.mean - 0.4) <= 3.0 * r.stderr_mean
    again, trace_sq = haar_avg_epsilon_mc(CostKind.LINEAR_XEB, 2, samples=4000, seed=6)
    assert again.mean == r.mean
    assert trace_sq is None  # Tr(O_xeb²) is epsilon itself


def test_haar_avg_epsilon_mc_xent_runs():
    r, t = haar_avg_epsilon_mc(CostKind.CROSS_ENTROPY, 3, samples=2000, seed=7)
    assert r.mean > 0.0
    assert r.excluded <= r.samples // 100
    assert t.mean > 0.0


def test_haar_avg_epsilon_mc_accepts_string_kind():
    a, _ = haar_avg_epsilon_mc("xeb", 1, samples=500, seed=0)
    b, _ = haar_avg_epsilon_mc(CostKind.LINEAR_XEB, 1, samples=500, seed=0)
    assert a.mean == b.mean
    with pytest.raises(ValueError):
        haar_avg_epsilon_mc("generic", 1, samples=500, seed=0)
