"""Batched samplers against per-sample oracles built from the per-index streams.

Each oracle redraws index k from ``_sample_rng(seed, k)`` with ``haar_unitary``
(or ``haar_state``) and evaluates it with the per-instance functions; the
batched samplers must give the same values bit for bit.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateau import analytic, circuit, costs, linalg, mc
from plateau.analytic import VarianceCase, _integrand, c_constants_mc
from plateau.ansatz import MpsAnsatz, grad_site
from plateau.circuit import LayeredCircuit, brick_supports, circuit_grad
from plateau.costs import (
    P_FLOOR,
    ClampWarning,
    epsilon,
    observable_xeb,
    observable_xent,
    p_first_qubit,
    target_observables,
)
from plateau.linalg import gue_hermitian, haar_state, haar_unitary, pauli_string
from plateau.mc import BATCH, EnsembleSpec, _sample_rng, grad_variance_mps

SAMPLES = 2 * BATCH + 5  # two full batches and a partial one


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.fixture
def batched_values(monkeypatch):
    """Run call() with module.estimate and module.estimate_columns recording
    every per-index value: one run per estimated column, in call order."""

    def run(module, call):
        runs = []
        real, real_columns = mc.estimate, mc.estimate_columns

        def record(sampler, samples, width):
            values = np.full((samples, *width), -1.0)

            def rec(indices, rngs):
                out = sampler(indices, rngs)
                values[indices] = out
                return out

            runs.extend(values.reshape(samples, -1).T)
            return rec

        def recording(sampler, samples, seed, workers=1):
            return real(record(sampler, samples, ()), samples, seed, workers)

        def recording_columns(sampler, columns, samples, seed, workers=1):
            return real_columns(record(sampler, samples, (columns,)), columns, samples, seed, workers)

        for name, fake in (("estimate", recording), ("estimate_columns", recording_columns)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fake)
        call()
        return runs

    return run


def xeb_builder(n):
    def build(rng):
        return observable_xeb(haar_state(2**n, rng), n)

    return build


def gue_builder(d):
    return lambda rng: gue_hermitian(d, rng)


def stacked(build):
    # the batch builder that calls a per-index builder on each stream in turn
    return lambda rngs: np.stack([build(rng) for rng in rngs])


# ---------------------------------------------------------------------------
# MPS gradient


def mps_oracle(case, n, D, d, delta, o_builder, g, partner, sites, seed, samples):
    dim = D * d
    out = []
    for k in range(samples):
        rng = _sample_rng(seed, k)
        o = o_builder(rng) if callable(o_builder) else o_builder
        if case.endswith("minus"):
            um, up = haar_unitary(dim, rng), partner.draw(rng)
        elif case.endswith("plus"):
            um = partner.draw(rng)
            up = haar_unitary(dim, rng)
        else:
            um, up = haar_unitary(dim, rng), haar_unitary(dim, rng)
        gates = [um @ up] + [sites.draw(rng) for _ in range(n - 1)]
        m = MpsAnsatz(n, D, d, tuple(gates))
        out.append(grad_site(m, 0, um, g, up, o, 0 if case.startswith("onsite") else delta))
    return np.array(out)


@pytest.mark.parametrize("case", [c.value for c in VarianceCase])
@pytest.mark.parametrize("partner", ["haar", "pauli"])
@pytest.mark.parametrize("builder", ["fixed", "callable"])
def test_mps_sampler_matches_per_sample(batched_values, case, partner, builder):
    n, D, d, seed = 4, 2, 2, 31
    delta = None if case.startswith("onsite") else 1
    g = gue_hermitian(D * d, np.random.default_rng(5))
    o = xeb_builder(3) if builder == "callable" else gue_hermitian(d, np.random.default_rng(6))
    o_batch = functools.partial(target_observables, "xeb", 3) if builder == "callable" else o
    spec = {"haar": EnsembleSpec.haar, "pauli": EnsembleSpec.pauli_group}[partner](D * d)
    got, *eps = batched_values(mc, lambda: grad_variance_mps(
        case, n, D, d, delta, o_batch, g, {"partner": spec}, samples=SAMPLES, seed=seed))
    want = mps_oracle(case, n, D, d, delta, o, g, spec, EnsembleSpec.haar(D * d), seed, SAMPLES)
    assert_bitwise(got, want)
    if builder == "callable":  # the epsilon column reads the same observables
        assert_bitwise(eps[0], [epsilon(o(_sample_rng(seed, k)), d) for k in range(SAMPLES)])
    else:
        assert eps == []


@pytest.mark.parametrize("case,D,d,n,delta", [
    ("onsite-minus", 3, 2, 3, None),
    ("offsite-plus", 2, 3, 4, 2),
    ("offsite-both", 3, 2, 5, 4),
])
def test_mps_sampler_matches_per_sample_other_dims(batched_values, case, D, d, n, delta):
    seed = 8
    g = gue_hermitian(D * d, np.random.default_rng(1))
    builder = gue_builder(d)
    sites = EnsembleSpec.pauli_group(D * d) if D == 3 else EnsembleSpec.haar(D * d)
    got, _ = batched_values(mc, lambda: grad_variance_mps(
        case, n, D, d, delta, stacked(builder), g, {"sites": sites}, samples=SAMPLES, seed=seed))
    want = mps_oracle(case, n, D, d, delta, builder, g, EnsembleSpec.haar(D * d), sites, seed, SAMPLES)
    assert_bitwise(got, want)


# ---------------------------------------------------------------------------
# constants, target epsilons, circuits


@pytest.mark.parametrize("case", [VarianceCase.OFFSITE_MINUS, VarianceCase.OFFSITE_PLUS, VarianceCase.ONSITE_MINUS])
@pytest.mark.parametrize("D,d", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("kind", ["haar", "pauli"])
def test_constant_integrands_match_per_draw(batched_values, case, D, d, kind):
    g = gue_hermitian(D * d, np.random.default_rng(2))
    o = gue_hermitian(d, np.random.default_rng(3))
    ens = EnsembleSpec.haar(D * d) if kind == "haar" else EnsembleSpec.pauli_group(D * d)
    seed = 4
    runs = batched_values(analytic, lambda: c_constants_mc(case, g, o, D, d, ens, SAMPLES, seed))
    names = [c for c in analytic.CASE_CONSTANTS[case] if c != "c4"]
    assert len(runs) == len(names)
    for name, got in zip(names, runs):
        want = [_integrand(name, ens.draw(_sample_rng(seed, k)), g, o, D, d) for k in range(SAMPLES)]
        assert_bitwise(got, want)


def epsilon_oracle(kind, n, seed, samples):
    out = []
    for k in range(samples):
        vec = haar_state(2**n, _sample_rng(seed, k))
        if kind == "xeb":
            out.append(epsilon(observable_xeb(vec, n), 2))
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            obs, clamped = observable_xent(vec, n)
        out.append(np.nan if clamped else epsilon(obs, 2))
    return out


@pytest.mark.parametrize("kind", ["xeb", "xent"])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_haar_epsilon_matches_per_sample(batched_values, kind, n):
    runs = batched_values(mc, lambda: mc.haar_avg_epsilon_mc(kind, n, SAMPLES, seed=n))
    assert len(runs) == (2 if kind == "xent" else 1)  # xent adds Tr(O²) on the same draws
    assert_bitwise(runs[0], epsilon_oracle(kind, n, n, SAMPLES))


@pytest.mark.parametrize("n", [1, 4])
def test_trace_oe_sq_matches_per_sample(batched_values, n):
    _, got = batched_values(mc, lambda: mc.haar_avg_epsilon_mc("xent", n, SAMPLES, seed=2))
    want = []
    for k in range(SAMPLES):
        p = p_first_qubit(haar_state(2**n, _sample_rng(2, k)), n)
        want.append(np.nan if min(p) < P_FLOOR else np.log(p[0]) ** 2 + np.log(p[1]) ** 2)
    assert_bitwise(got, want)


def circuit_oracle(n_qubits, supports, obs_layer, layer, v, o, a, seed, samples):
    out = []
    for k in range(samples):
        rng = _sample_rng(seed, k)
        gates = []
        for i, s in enumerate(supports):
            if i == layer:
                um, up = haar_unitary(2 ** len(s), rng), haar_unitary(2 ** len(s), rng)
                gates.append((um @ up, s))
            else:
                gates.append((haar_unitary(2 ** len(s), rng), s))
        c = LayeredCircuit(n_qubits, tuple(gates), obs_layer)
        out.append(circuit_grad(c, layer, um, v, up, o, a))
    return out


@pytest.mark.parametrize("n_qubits,supports,layer,a", [
    (4, brick_supports(4, 2), 0, (0,)),
    (4, brick_supports(4, 2), 2, (3, 0)),
    (3, ((0, 1, 2),), 0, (1,)),
    (4, ((0, 1), (2,), (1, 2, 3), (3, 0)), 2, (0,)),
])
def test_circuit_sampler_matches_per_sample(batched_values, n_qubits, supports, layer, a):
    obs_layer = len(supports) - 1
    template = LayeredCircuit(n_qubits, tuple((np.eye(2 ** len(s)), s) for s in supports), obs_layer)
    v = gue_hermitian(2 ** len(supports[layer]), np.random.default_rng(1))
    observables = [gue_hermitian(2 ** len(a), np.random.default_rng(s)) for s in (2, 3)]
    runs = batched_values(circuit, lambda: circuit.circuit_variance_mc(
        template, layer, v, observables, a, samples=SAMPLES, seed=6))
    assert len(runs) == len(observables)
    for got, o in zip(runs, observables):
        assert_bitwise(got, circuit_oracle(n_qubits, supports, obs_layer, layer, v, o, a, 6, SAMPLES))


@pytest.mark.parametrize("kind", ["xeb", "xent"])
@pytest.mark.parametrize("workers", [1, 3])
def test_gradient_epsilon_is_the_haar_target_average(kind, workers):
    # the epsilon read off the gradient sampler's own observables is, field
    # by field, the Haar-target average drawn alone at the same seed
    build = functools.partial(target_observables, kind, 3)
    _, eps = grad_variance_mps("onsite-minus", 3, 2, 2, None, build, pauli_string("ZI"),
                               samples=SAMPLES, seed=9, workers=workers)
    want, _ = mc.haar_avg_epsilon_mc(kind, 3, SAMPLES, seed=9, workers=workers)
    assert fields(eps) == fields(want)
    # a fixed observable's epsilon is exact: nothing is estimated for it
    assert grad_variance_mps("onsite-minus", 3, 2, 2, None, pauli_string("Z"), pauli_string("ZI"),
                             samples=SAMPLES, seed=9, workers=workers)[1] is None


# ---------------------------------------------------------------------------
# batching and redraws


def fields(r):
    return (r.mean, r.variance, r.stderr_mean, r.stderr_variance, r.samples, r.seed, r.excluded)


@pytest.mark.parametrize("run", [
    lambda w: grad_variance_mps("onsite-both", 3, 2, 2, None, functools.partial(target_observables, "xeb", 2),
                                pauli_string("ZI"), samples=BATCH + 3, seed=5, workers=w),
    lambda w: mc.haar_avg_epsilon_mc("xent", 3, BATCH + 3, seed=5, workers=w),
    lambda w: circuit.circuit_variance_mc(
        LayeredCircuit(4, tuple((np.eye(4), s) for s in brick_supports(4, 2)), 3),
        1, pauli_string("ZZ"), [pauli_string("Z"), pauli_string("X")], (0,), samples=BATCH + 3, seed=5, workers=w),
])
def test_batch_boundary_independent_of_workers(run):
    base = [fields(r) for r in run(1)]
    for workers in (2, 3):
        assert [fields(r) for r in run(workers)] == base


def test_rank_deficient_draw_falls_back_to_per_sample_redraw(batched_values, monkeypatch):
    # a loose rank tolerance flags exactly one index's draw as rank-deficient;
    # that index must come out as haar_unitary's redraw loop gives it
    monkeypatch.setattr(linalg, "RANK_TOL", 0.09)
    redrawn = []
    fresh = mc.fresh_stream
    monkeypatch.setattr(mc, "fresh_stream", lambda rng: redrawn.append(rng) or fresh(rng))
    n, D, d, seed = 3, 2, 2, 17
    g = pauli_string("ZI")
    o = pauli_string("Z")
    (got,) = batched_values(mc, lambda: grad_variance_mps(
        "onsite-both", n, D, d, None, o, g, samples=SAMPLES, seed=seed))
    assert len(redrawn) == 1
    want = mps_oracle("onsite-both", n, D, d, None, o, g, None, EnsembleSpec.haar(D * d), seed, SAMPLES)
    assert_bitwise(got, want)


def test_rank_deficient_redraw_replays_the_target_builder(batched_values, monkeypatch):
    # as above, with a Haar-target observable: a redrawn index must replay
    # its target's draws on the fresh stream before drawing its gates again
    monkeypatch.setattr(linalg, "RANK_TOL", 0.09)
    redrawn = []
    fresh = mc.fresh_stream
    monkeypatch.setattr(mc, "fresh_stream", lambda rng: redrawn.append(rng) or fresh(rng))
    n, D, d, seed = 3, 2, 2, 1
    g = pauli_string("ZI")
    build = functools.partial(target_observables, "xeb", 4)
    got, _ = batched_values(mc, lambda: grad_variance_mps(
        "onsite-both", n, D, d, None, build, g, samples=SAMPLES, seed=seed))
    assert len(redrawn) == 2
    want = mps_oracle("onsite-both", n, D, d, None, xeb_builder(4), g, None, EnsembleSpec.haar(D * d), seed, SAMPLES)
    assert_bitwise(got, want)


def target_oracle(kind, n, rng):
    vec = haar_state(2**n, rng)
    if kind == "xeb":
        return observable_xeb(vec, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampWarning)
        obs, clamped = observable_xent(vec, n)
    return np.diag([np.nan, np.nan]) if clamped else obs


@given(st.sampled_from(["xeb", "xent"]), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.integers(0, 10**6), st.integers(1, 40))
@settings(deadline=None, max_examples=60)
def test_target_observables_match_per_sample(kind, n, seed, start, count):
    # each stacked row is the per-target observable of its own stream, and
    # each stream is left where haar_state leaves it
    rngs = [_sample_rng(seed, k) for k in range(start, start + count)]
    got = target_observables(kind, n, rngs)
    assert got.shape == (count, 2, 2)
    for k, rng in zip(range(start, start + count), rngs):
        ref = _sample_rng(seed, k)
        assert_bitwise(got[k - start], target_oracle(kind, n, ref))
        assert rng.standard_normal() == ref.standard_normal()


def test_clamped_targets_are_excluded_by_every_consumer(monkeypatch):
    # a raised log floor clamps about a tenth of the one-qubit targets; each
    # gets a NaN diagonal, and all four consumers exclude the same indices
    monkeypatch.setattr(costs, "P_FLOOR", 0.05)
    seed = 3
    rngs = [_sample_rng(seed, k) for k in range(SAMPLES)]
    got = target_observables("xent", 1, rngs)
    for k in range(SAMPLES):
        assert_bitwise(got[k], target_oracle("xent", 1, _sample_rng(seed, k)))
    clamped = int(np.isnan(got[:, 0, 0]).sum())
    assert clamped > 0
    build = functools.partial(target_observables, "xent", 1)
    eps, trace_sq = mc.haar_avg_epsilon_mc("xent", 1, SAMPLES, seed)
    grad, grad_eps = grad_variance_mps("onsite-both", 2, 1, 2, None, build, pauli_string("Z"), samples=SAMPLES, seed=seed)
    for r in (eps, trace_sq, grad, grad_eps):
        assert r.excluded == clamped
    assert fields(grad_eps) == fields(eps)


# ---------------------------------------------------------------------------
# one pass per command: every estimate of a command reads one set of draws


def counting(monkeypatch, name, *modules):
    """Count the calls of ``name`` made through any of ``modules`` that binds it."""
    calls = []
    real = getattr(modules[0], name)
    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def test_circuit_command_draws_each_batch_once(monkeypatch, capsys):
    from plateau import cli

    calls = counting(monkeypatch, "draw_unitaries", circuit)
    samples = 3 * BATCH + 4
    assert cli.main(["circuit", "--qubits", "4", "--layers", "2", "--samples", str(samples), "--seed", "1"]) == 0
    assert capsys.readouterr().out.count("\n") == 8  # five observables read the draws
    assert len(calls) == -(-samples // BATCH)


def test_xent_epsilon_command_draws_each_target_once(monkeypatch):
    from plateau import cli

    calls = counting(monkeypatch, "target_observables", mc)
    samples = 2 * BATCH + 1
    assert cli.main(["haar-epsilon", "--cost", "xent", "--n", "2:4", "--samples", str(samples)]) == 0
    assert len(calls) == 3 * -(-samples // BATCH)


@pytest.mark.parametrize("cost", ["xeb", "xent"])
def test_variance_command_draws_each_target_once(monkeypatch, cost):
    # the gradient sampler's observables give the epsilon column too, so no
    # second pass draws the targets again
    from plateau import cli

    calls = counting(monkeypatch, "target_observables", cli, costs, mc)
    samples = 2 * BATCH
    assert cli.main(["variance", "--cost", cost, "--n", "4:5", "--samples", str(samples)]) == 0
    assert len(calls) == 2 * -(-samples // BATCH)


@pytest.mark.parametrize("case", [VarianceCase.ONSITE_MINUS, VarianceCase.ONSITE_PLUS])
def test_constants_draw_each_batch_once(monkeypatch, case):
    calls = counting(monkeypatch, "draw_unitaries", analytic)
    cc = c_constants_mc(case, pauli_string("ZI"), pauli_string("Z"), 2, 2, samples=SAMPLES, seed=3)
    assert all(getattr(cc, name) is not None for name in analytic.CASE_CONSTANTS[case])
    assert len(calls) == -(-SAMPLES // BATCH)
