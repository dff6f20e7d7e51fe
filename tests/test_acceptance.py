"""Acceptance gate: nine binding checks at fixed tolerances and budgets.

Each test prints a single PASS line with its headline numbers; a failed
assert keeps the line out of the log, so the printed set is the pass list.
"""

import functools
import time

import numpy as np
import pytest

from plateau.analytic import (
    CConstants,
    ConstantEstimate,
    VarianceCase,
    VarianceQuery,
    c4_closed,
    variance_formula,
)
from plateau.ansatz import (
    MpsAnsatz,
    cost,
    cost_statevector,
    grad_fd,
    grad_site,
)
from plateau.circuit import brick_supports, circuit_variance_mc, LayeredCircuit
from plateau.costs import (
    CostKind,
    epsilon,
    haar_avg_epsilon_xeb_closed,
    target_observables,
)
from plateau.linalg import (
    gue_hermitian,
    haar_unitary,
    pauli_string,
)
from plateau.mc import estimate, grad_variance_mps, haar_avg_epsilon_mc
from plateau.twirl import (
    DesignConstants,
    PermLabel,
    diagram_exact,
    diagram_mc,
    mc_twirl,
    second_moment,
)

Z = pauli_string("Z")
P0 = np.diag([1.0, 0.0])
ZI = pauli_string("ZI")


def per_index(fn):
    """Lift a per-sample fn(index, rng) -> float to the batch sampler contract."""

    def sampler(indices, rngs):
        return np.array([fn(int(i), rng) for i, rng in zip(indices, rngs)], dtype=float)

    return sampler


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def test_criterion_1_weingarten_identities():
    start = time.time()
    dc = DesignConstants.from_dims(2, 2)
    expected = {("S", "S"): 1.0, ("S", "A"): 0.4, ("A", "S"): 0.0, ("A", "A"): 0.4}
    for left in PermLabel:
        for right in PermLabel:
            want = expected[(left.value, right.value)]
            assert diagram_exact(left, right, dc) == pytest.approx(want, abs=1e-12)
            mean, stderr = diagram_mc(left, right, dc, samples=100_000, seed=1)
            assert abs(mean - want) <= max(3.0 * stderr, 1e-9)
    rng = rng_for(0)
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    x /= np.max(np.abs(x))
    err = float(np.max(np.abs(mc_twirl(x, 4, 100_000, seed=2) - second_moment(x, 4))))
    assert err <= 5e-3
    elapsed = time.time() - start
    assert elapsed <= 30.0
    print(f"criterion 1: PASS (tree values exact, MC within 3 sigma, "
          f"twirl max-entry {err:.2e} <= 5e-3, {elapsed:.1f}s)")


def test_criterion_2_zero_mean_gradient():
    start = time.time()
    r, _ = grad_variance_mps(
        "onsite-both", n=4, D=2, d=2, delta=None,
        o_builder=Z, g=ZI, samples=10_000, seed=3,
    )
    elapsed = time.time() - start
    assert abs(r.mean) <= 3.0 * r.stderr_mean
    assert elapsed <= 60.0
    print(f"criterion 2: PASS (|mean| {abs(r.mean):.2e} <= 3 stderr "
          f"{3 * r.stderr_mean:.2e}, {elapsed:.1f}s)")


def test_criterion_3_variance_matches_closed_form():
    start = time.time()
    assert c4_closed(ZI, 2, 2) == pytest.approx(32.0)
    cc = CConstants(c4=ConstantEstimate(32.0, 0.0, 0, "closed_form"))
    worst = 0.0
    for o in (Z, P0):
        for n in (2, 4, 6):
            vq = VarianceQuery(VarianceCase.ONSITE_BOTH, n, 2, 2, ZI, o)
            want = variance_formula(vq, cc)
            r, _ = grad_variance_mps(
                "onsite-both", n=n, D=2, d=2, delta=None,
                o_builder=o, g=ZI,
                samples=10_000, seed=100 + n,
            )
            z = abs(r.variance - want) / r.stderr_variance
            worst = max(worst, z)
            assert z <= 3.0
    elapsed = time.time() - start
    assert elapsed <= 600.0
    print(f"criterion 3: PASS (six points, worst |z| {worst:.2f} <= 3, {elapsed:.1f}s)")


def test_criterion_4_haar_epsilon_closed_form():
    start = time.time()
    assert haar_avg_epsilon_xeb_closed(1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert haar_avg_epsilon_xeb_closed(2) == pytest.approx(0.4, abs=1e-15)
    worst = 0.0
    for n in range(1, 7):
        r, _ = haar_avg_epsilon_mc(CostKind.LINEAR_XEB, n, samples=10_000, seed=4)
        z = abs(r.mean - haar_avg_epsilon_xeb_closed(n)) / r.stderr_mean
        worst = max(worst, z)
        assert z <= 3.0
    elapsed = time.time() - start
    assert elapsed <= 120.0
    print(f"criterion 4: PASS (n=1..6, worst |z| {worst:.2f} <= 3, "
          f"spots 2/3 and 0.4 exact, {elapsed:.1f}s)")


def test_criterion_5_xeb_decay_slope():
    start = time.time()
    ns = np.arange(4, 11)
    log_vars = []
    for n in ns:
        r, _ = grad_variance_mps(
            "onsite-both", n=int(n), D=2, d=2, delta=None,
            o_builder=functools.partial(target_observables, "xeb", int(n)),
            g=ZI, samples=10_000, seed=5,
        )
        log_vars.append(np.log(r.variance))
    slope = float(np.polyfit(ns, log_vars, 1)[0])
    elapsed = time.time() - start
    assert abs(slope - (-np.log(2.0))) <= 0.15 * np.log(2.0)
    assert elapsed <= 900.0
    print(f"criterion 5: PASS (slope {slope:.4f} within 15% of "
          f"{-np.log(2.0):.4f}, {elapsed:.1f}s)")


def test_criterion_6_xent_epsilon_nonincreasing():
    start = time.time()
    means = []
    for n in range(2, 7):
        r, _ = haar_avg_epsilon_mc(CostKind.CROSS_ENTROPY, n, samples=2000, seed=6)
        if n >= 3:
            assert r.excluded <= 0.01 * r.samples
        means.append(r.mean)
    assert all(a >= b for a, b in zip(means, means[1:]))
    elapsed = time.time() - start
    assert elapsed <= 180.0
    print(f"criterion 6: PASS (means {['%.3f' % m for m in means]} non-increasing, "
          f"clamp exclusions <= 1%, {elapsed:.1f}s)")


def test_criterion_7_circuit_factorization():
    start = time.time()
    rng = rng_for(7)
    supports = brick_supports(4, 2)
    gates = tuple((haar_unitary(4, rng), s) for s in supports)
    c = LayeredCircuit(4, gates, len(gates) - 1)
    qubit = c.gates[c.observable_layer][1][0]
    v_k = gue_hermitian(4, rng_for(8))
    observables = (
        pauli_string("Z"),
        np.diag([1.0, 0.0]),
        pauli_string("X"),
        np.diag([0.0, 1.0]),
        gue_hermitian(2, rng_for(9)),
    )
    ratios, sigmas = [], []
    results = circuit_variance_mc(c, 0, v_k, observables, (qubit,), samples=10_000, seed=10)
    for o, r in zip(observables, results):
        assert abs(r.mean) <= 3.0 * r.stderr_mean
        eps = epsilon(o, 2)
        ratios.append(r.variance / eps)
        sigmas.append(r.stderr_variance / eps)
    worst = 0.0
    for i in range(len(ratios)):
        for j in range(i + 1, len(ratios)):
            z = abs(ratios[i] - ratios[j]) / float(np.hypot(sigmas[i], sigmas[j]))
            worst = max(worst, z)
            assert z <= 3.0
    elapsed = time.time() - start
    assert elapsed <= 300.0
    print(f"criterion 7: PASS (5 observables zero-mean, Var/eps constant, "
          f"worst pair |z| {worst:.2f} <= 3, {elapsed:.1f}s)")


def test_criterion_8_numeric_core_oracles():
    start = time.time()
    rng = rng_for(11)
    worst_cost = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 9 if d == 2 else 8))
        D = int(rng.integers(1, 4))
        m = MpsAnsatz(n, D, d, tuple(haar_unitary(D * d, rng) for _ in range(n)))
        o = gue_hermitian(d, rng)
        site = int(rng.integers(0, n))
        a = cost(m, o, site)
        b = cost_statevector(m, o, site)
        worst_cost = max(worst_cost, abs(a - b) / max(1.0, abs(b)))
    assert worst_cost <= 1e-10
    worst_grad = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        D = int(rng.integers(1, 3))
        m = MpsAnsatz(n, D, 2, tuple(haar_unitary(2 * D, rng) for _ in range(n)))
        site = int(rng.integers(0, n))
        split = (haar_unitary(2 * D, rng), gue_hermitian(2 * D, rng), haar_unitary(2 * D, rng))
        o = gue_hermitian(2, rng)
        site_m = int(rng.integers(0, n))
        gap = abs(grad_site(m, site, *split, o, site_m) - grad_fd(m, site, *split, o, site_m))
        worst_grad = max(worst_grad, gap)
    assert worst_grad <= 1e-6
    elapsed = time.time() - start
    print(f"criterion 8: PASS (cost rel err {worst_cost:.2e} <= 1e-10, "
          f"grad vs FD {worst_grad:.2e} <= 1e-6, {elapsed:.1f}s)")


def test_criterion_9_reproducibility():
    start = time.time()

    def gaussian(i, rng):
        return rng.standard_normal()

    base = estimate(per_index(gaussian), samples=5000, seed=12, workers=1)
    for workers in (2, 3, 8):
        r = estimate(per_index(gaussian), samples=5000, seed=12, workers=workers)
        assert (r.mean, r.variance, r.stderr_mean, r.stderr_variance, r.excluded) == (
            base.mean, base.variance, base.stderr_mean, base.stderr_variance,
            base.excluded,
        )
    a, _ = grad_variance_mps(
        "onsite-both", n=3, D=2, d=2, delta=None,
        o_builder=Z, g=ZI, samples=2000, seed=13, workers=1,
    )
    b, _ = grad_variance_mps(
        "onsite-both", n=3, D=2, d=2, delta=None,
        o_builder=Z, g=ZI, samples=2000, seed=13, workers=4,
    )
    assert (a.mean, a.variance, a.stderr_mean, a.stderr_variance) == (
        b.mean, b.variance, b.stderr_mean, b.stderr_variance,
    )
    elapsed = time.time() - start
    print(f"criterion 9: PASS (bitwise identical across worker counts, {elapsed:.1f}s)")
