"""Estimator harness: determinism, exclusion, and the gradient sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateau import mc
from plateau.linalg import pauli_string
from plateau.mc import (
    BATCH,
    EnsembleSpec,
    EstimateResult,
    VarianceCase,
    _sample_rng,
    estimate,
    estimate_columns,
    grad_variance_mps,
)


def per_index(fn):
    """Lift a per-sample fn(index, rng) -> float to the batch sampler contract."""

    def sampler(indices, rngs):
        return np.array([fn(int(i), rng) for i, rng in zip(indices, rngs)], dtype=float)

    return sampler


def fields(r):
    return (
        r.mean,
        r.variance,
        r.stderr_mean,
        r.stderr_variance,
        r.samples,
        r.seed,
        r.excluded,
    )


def test_constant_sampler():
    r = estimate(per_index(lambda i, rng: 2.5), samples=500, seed=0)
    assert r.mean == 2.5
    assert r.variance == 0.0
    assert r.stderr_mean == 0.0
    assert r.excluded == 0
    assert r.samples == 500


def test_worker_count_does_not_change_bits():
    def sampler(i, rng):
        return rng.standard_normal() + 0.01 * i

    base = estimate(per_index(sampler), samples=3000, seed=42, workers=1)
    for workers in (2, 3, 8):
        r = estimate(per_index(sampler), samples=3000, seed=42, workers=workers)
        assert fields(r) == fields(base)


def test_mean_and_variance_of_gaussian():
    r = estimate(per_index(lambda i, rng: rng.normal(loc=1.0)), samples=40_000, seed=3)
    assert abs(r.mean - 1.0) <= 4.0 * r.stderr_mean
    assert abs(r.variance - 1.0) <= 4.0 * r.stderr_variance
    assert r.stderr_mean == pytest.approx(np.sqrt(r.variance / r.samples))
    # jackknife error of the variance should sit near sqrt(2/n) for normals
    theory = np.sqrt(2.0 / 40_000)
    assert 0.5 * theory < r.stderr_variance < 2.0 * theory


def test_stderr_shrinks_with_samples():
    small = estimate(per_index(lambda i, rng: rng.normal()), samples=2000, seed=5)
    large = estimate(per_index(lambda i, rng: rng.normal()), samples=200_000, seed=5)
    ratio = small.stderr_mean / large.stderr_mean
    assert 7.0 < ratio < 14.0  # 10x expected


def test_nan_samples_are_excluded():
    def sampler(i, rng):
        return float("nan") if i % 10 == 0 else float(i)

    r = estimate(per_index(sampler), samples=100, seed=0)
    kept = [float(i) for i in range(100) if i % 10 != 0]
    assert r.excluded == 10
    assert r.mean == pytest.approx(np.mean(kept))
    assert r.variance == pytest.approx(np.var(kept, ddof=1))


def _reference_estimate(values):
    """estimate's reduction with per-sample Python block sums: the oracle for its array slices."""
    keep = ~np.isnan(values)
    n = int(keep.sum())
    pivot = float(values[keep][0])
    counts, sums, sqsums = [], [], []
    for idx in np.array_split(np.arange(len(values)), min(100, len(values))):
        kept = [float(values[k]) - pivot for k in idx if keep[k]]
        counts.append(len(kept))
        sums.append(math.fsum(kept))
        sqsums.append(math.fsum(v * v for v in kept))
    total, sqtotal = math.fsum(sums), math.fsum(sqsums)
    variance = max((sqtotal - total * total / n) / (n - 1), 0.0)
    thetas = []
    for c, s, q in zip(counts, sums, sqsums):
        m, s, q = n - c, total - s, sqtotal - q
        thetas.append(max((q - s * s / m) / (m - 1), 0.0))
    tbar = math.fsum(thetas) / len(thetas)
    spread = math.fsum((t - tbar) ** 2 for t in thetas)
    return (pivot + total / n, variance, math.sqrt(variance / n),
            math.sqrt((len(thetas) - 1) / len(thetas) * spread), len(values) - n)


@pytest.mark.parametrize("samples,excluded_frac", [(37, 0.0), (150, 0.05), (1500, 0.3), (4096, 0.9)])
def test_block_sums_match_per_sample_reference(samples, excluded_frac):
    rng = np.random.default_rng(samples)
    values = rng.standard_normal(samples) * rng.exponential(size=samples) * 1e3
    values[1:][rng.random(samples - 1) < excluded_frac] = np.nan
    r = estimate(lambda indices, rngs: values[indices], samples=samples, seed=0)
    got = (r.mean, r.variance, r.stderr_mean, r.stderr_variance, r.excluded)
    assert np.array(got).tobytes() == np.array(_reference_estimate(values)).tobytes()


def test_sample_index_stream_is_stable():
    # the per-index generator must not depend on the total sample count
    seen = {}

    def recorder(i, rng):
        v = rng.standard_normal()
        if i in seen:
            assert seen[i] == v
        seen[i] = v
        return v

    estimate(per_index(recorder), samples=50, seed=9)
    estimate(per_index(recorder), samples=80, seed=9)


def hashed_streams(seed, indices):
    """The streams of ``indices`` as ``estimate`` builds them: one hash for all."""
    return [np.random.Generator(np.random.PCG64(mc._StreamSeed(w))) for w in mc._stream_words(seed, indices)]


@given(
    seed=st.one_of(st.just(0), st.integers(0, 2**200 - 1)),
    start=st.one_of(
        st.integers(0, 2**32 - 40),
        st.integers(mc._CHUNK - 39, mc._CHUNK - 1),  # around a chunk boundary
        st.just(2**32 - 40),  # ends at the last one-word spawn key
    ),
    count=st.integers(1, 40),
)
@settings(deadline=None, max_examples=60)
def test_hashed_streams_equal_per_index_streams(seed, start, count):
    indices = np.arange(start, start + count)
    for k, rng in zip(indices, hashed_streams(seed, indices)):
        ref = _sample_rng(seed, int(k))
        assert rng.bit_generator.state == ref.bit_generator.state
        head = rng.standard_normal(64)
        assert head.tobytes() == ref.standard_normal(64).tobytes()
        # a replay of the drawn-from stream starts where a new per-index stream starts
        fresh = mc.fresh_stream(rng)
        assert fresh.bit_generator.state == _sample_rng(seed, int(k)).bit_generator.state
        assert fresh.standard_normal(64).tobytes() == head.tobytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_estimate_builds_no_stream_per_index(monkeypatch, workers):
    samples, seed = mc._CHUNK + 3 * BATCH + 5, 9  # two chunks, a partial last batch
    want = np.array([_sample_rng(seed, k).standard_normal() for k in range(samples)])

    def per_index_stream(seed, index):
        raise AssertionError("estimate built a stream on its own")

    monkeypatch.setattr(mc, "_sample_rng", per_index_stream)
    got = np.full(samples, np.nan)

    def first_normal(indices, rngs):
        got[indices] = [rng.standard_normal() for rng in rngs]
        return got[indices]

    estimate(first_normal, samples, seed, workers)
    assert got.tobytes() == want.tobytes()


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate(per_index(lambda i, rng: 0.0), samples=1, seed=0)
    # an index past 2**32 would need a second spawn-key word; refused before any allocation
    with pytest.raises(ValueError, match="2\\*\\*32"):
        estimate(per_index(lambda i, rng: 0.0), samples=2**32 + 1, seed=0)
    with pytest.raises(ValueError):
        estimate(per_index(lambda i, rng: 0.0), samples=100, seed=0, workers=0)
    with pytest.raises(ValueError):
        estimate(lambda indices, rngs: np.zeros(1), samples=100, seed=0)
    with pytest.raises(ValueError, match="columns"):
        estimate_columns(lambda indices, rngs: np.zeros((len(indices), 0)), 0, samples=100, seed=0)
    for shape in ((), (2,)):  # one value per index is not a column of them
        with pytest.raises(ValueError, match="sampler returned shape"):
            estimate_columns(lambda indices, rngs: np.zeros((len(indices), *shape)), 1, samples=100, seed=0)


@given(
    st.integers(1, 4),
    st.sampled_from([2, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 7, mc._CHUNK - 1, mc._CHUNK + BATCH + 3]),
    st.integers(0, 2**32 - 1),
    st.sets(st.tuples(st.integers(0, mc._CHUNK + BATCH + 2), st.integers(0, 3)), max_size=12),
    st.sampled_from([1, 3]),
)
@settings(deadline=None, max_examples=30)
def test_each_column_is_its_own_estimate(k, samples, seed, nan_cells, workers):
    # each index draws k normals from its stream; the drawn NaN cells are
    # excluded from their own column only
    nan = np.zeros((samples, k), dtype=bool)
    for i, j in nan_cells:
        if i < samples and j < k:
            nan[i, j] = True

    def sampler(indices, rngs):
        out = np.array([rng.standard_normal(k) for rng in rngs])
        out[nan[indices]] = np.nan
        return out

    if (~nan).sum(axis=0).min() < 2:
        with pytest.raises(ValueError, match="fewer than two"):
            estimate_columns(sampler, k, samples, seed, workers)
        return
    got = estimate_columns(sampler, k, samples, seed, workers)
    assert len(got) == k
    for j, r in enumerate(got):
        want = estimate(lambda indices, rngs, j=j: sampler(indices, rngs)[:, j], samples, seed, workers)
        assert [float(x).hex() for x in fields(r)] == [float(x).hex() for x in fields(want)]


def test_ensemble_spec_draws():
    haar = EnsembleSpec.haar(4)
    u = haar.draw(np.random.default_rng(0))
    assert np.allclose(u.conj().T @ u, np.eye(4))
    g = np.diag([1.0, 1j])
    fixed = EnsembleSpec.fixed(g)
    assert fixed.dim == 2
    assert np.array_equal(fixed.draw(np.random.default_rng(1)), g)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="bogus", dim=2)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="fixed", dim=2, gate=None)
    with pytest.raises(ValueError, match="not unitary"):
        EnsembleSpec.fixed(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError, match="square"):
        EnsembleSpec.fixed(np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        EnsembleSpec.fixed(np.diag([1.0, np.nan]))


def test_pauli_group_is_exact_one_design():
    # averaging P x P+ over shift-clock labels erases everything but the trace
    d = 2
    spec = EnsembleSpec.pauli_group(d)
    omega = np.exp(2j * np.pi / d)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    acc = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            p = np.roll(np.eye(d), a, axis=0) * omega ** (b * np.arange(d))
            acc += p @ x @ p.conj().T
    assert np.allclose(acc / d**2, np.trace(x) / d * np.eye(d), atol=1e-12)
    drawn = spec.draw(np.random.default_rng(2))
    assert np.allclose(drawn.conj().T @ drawn, np.eye(d))


def test_grad_variance_zero_mean_onsite():
    o = pauli_string("Z")
    g = pauli_string("ZI")
    r, _ = grad_variance_mps(
        "onsite-both", n=3, D=2, d=2, delta=None, o_builder=o, g=g,
        samples=4000, seed=10,
    )
    assert abs(r.mean) <= 3.0 * r.stderr_mean
    assert r.variance > 0.0


def test_grad_variance_accepts_all_cases():
    o = pauli_string("Z")
    g = pauli_string("ZI")
    for case in [c.value for c in VarianceCase]:
        delta = 1 if case.startswith("offsite") else None
        r, _ = grad_variance_mps(
            case, n=3, D=2, d=2, delta=delta, o_builder=o, g=g,
            samples=200, seed=0,
        )
        assert np.isfinite(r.variance)


def test_grad_variance_worker_determinism():
    o = pauli_string("Z")
    g = pauli_string("ZI")
    kw = dict(n=3, D=2, d=2, delta=None, o_builder=o, g=g,
              samples=1500, seed=21)
    a, _ = grad_variance_mps("onsite-both", **kw, workers=1)
    b, _ = grad_variance_mps("onsite-both", **kw, workers=4)
    assert fields(a) == fields(b)


def test_grad_variance_rejects_unknown_case():
    o = pauli_string("Z")
    g = pauli_string("ZI")
    with pytest.raises(ValueError):
        grad_variance_mps("sideways", n=3, D=2, d=2, delta=None,
                          o_builder=o, g=g, samples=100, seed=0)
    with pytest.raises(ValueError):
        grad_variance_mps("offsite-both", n=3, D=2, d=2, delta=None,
                          o_builder=o, g=g, samples=100, seed=0)
    # the generator and a fixed observable are checked before any draw
    kw = dict(n=3, D=2, d=2, delta=None, samples=100, seed=0)
    with pytest.raises(ValueError, match="not Hermitian"):
        grad_variance_mps("onsite-both", o_builder=o, g=1j * g, **kw)
    with pytest.raises(ValueError, match="not Hermitian"):
        grad_variance_mps("onsite-both", o_builder=o + np.triu(np.ones((2, 2)), 1), g=g, **kw)
    with pytest.raises(ValueError, match="non-finite"):
        grad_variance_mps("onsite-both", o_builder=np.diag([np.nan, 1.0]), g=g, **kw)
    with pytest.raises(ValueError, match="2x2"):
        grad_variance_mps("onsite-both", o_builder=lambda rngs: np.eye(3), g=g, **kw)


def test_estimate_result_validation():
    with pytest.raises(ValueError):
        EstimateResult(0.0, -1.0, 0.0, 0.0, 10, 0)
