"""Reproducible Monte-Carlo estimation harness.

Every sample is computed from its own random stream derived from
(master seed, sample index): index k draws from a PCG64 generator seeded by
``SeedSequence(entropy=seed, spawn_key=(k,))``, so the set of sampled values
is a pure function of (seed, samples) and worker scheduling cannot change
it.  ``estimate`` computes those seeds for a chunk of ``_CHUNK`` indices at
a time with numpy's SeedSequence hash vectorized over the chunk, which
gives the same streams bit for bit at a fraction of the per-index cost.
Samplers see the indices in fixed batches of ``BATCH``: each index makes
its draws from its own stream, and everything after the draws runs as
stacked numpy operations over the batch.  Worker threads take whole
batches.  The reduction is always performed serially in index order with
exact summation, which makes results bitwise identical across worker
counts.

Return convention: ``estimate`` takes a sampler that returns one value per
index and returns one ``EstimateResult``.  ``estimate_columns`` takes a
sampler that returns a (B, k) array, k quantities read from the same draws,
and returns a tuple of k results: each column is reduced alone, exactly as
``estimate`` reduces a one-value sampler, so a command that needs several
quantities draws its streams once.  ``grad_variance_mps`` and
``haar_avg_epsilon_mc`` return a pair whose second result is None where
that quantity is exact: a fixed O's epsilon, an xeb target's Tr(O²).
"""

from __future__ import annotations

import contextlib
import enum
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .linalg import UnitaryGate, check_hermitian, haar_from_ginibre, haar_unitary
from .ansatz import grad_ring
from .costs import CostKind, epsilon, target_observables

JACKKNIFE_BLOCKS = 100
MAX_SAMPLES = 2**32  # one spawn-key word per index
# indices per sampler call; a constant, so that batch boundaries, and with
# them every sampled value, never depend on the worker count
BATCH = 32
# indices whose stream seeds are hashed together; a multiple of BATCH, so a
# chunk never cuts a batch, and fixed, so the seeds held at once take at
# most 32 B x _CHUNK whatever the sample count
_CHUNK = 4096
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


class VarianceCase(enum.Enum):
    """The six sampling geometries; module analytic attaches the closed forms."""

    OFFSITE_MINUS = "offsite-minus"
    OFFSITE_PLUS = "offsite-plus"
    OFFSITE_BOTH = "offsite-both"
    ONSITE_MINUS = "onsite-minus"
    ONSITE_PLUS = "onsite-plus"
    ONSITE_BOTH = "onsite-both"

    @property
    def onsite(self) -> bool:
        return self.value.startswith("onsite")


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """How to draw one unitary: haar, a fixed gate, or a random phase-space
    displacement (the cyclic shift/clock group, an exact 1-design)."""

    kind: str
    dim: int
    gate: Optional[UnitaryGate] = None

    def __post_init__(self):
        if self.kind not in ("haar", "fixed", "pauli_group"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("ensemble dim must be >= 1")
        if self.kind == "fixed":
            if not isinstance(self.gate, UnitaryGate) or self.gate.dim != self.dim:
                raise ValueError("fixed ensemble needs a UnitaryGate of matching dim")
        elif self.gate is not None:
            raise ValueError("only the fixed ensemble carries a gate")

    @classmethod
    def haar(cls, dim: int) -> "EnsembleSpec":
        return cls("haar", dim)

    @classmethod
    def fixed(cls, gate) -> "EnsembleSpec":
        """Always the given square unitary matrix, checked here."""
        checked = UnitaryGate(gate)
        return cls("fixed", checked.dim, checked)

    @classmethod
    def pauli_group(cls, dim: int) -> "EnsembleSpec":
        return cls("pauli_group", dim)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "haar":
            return haar_unitary(self.dim, rng)
        if self.kind == "fixed":
            return self.gate.matrix
        n = self.dim
        omega = np.exp(2j * np.pi / n)
        a, b, c = (int(x) for x in rng.integers(0, n, size=3))
        shift = np.roll(np.eye(n, dtype=complex), a, axis=0)
        clock = omega ** (b * np.arange(n))
        return (omega**c) * (shift * clock)


@dataclass(frozen=True)
class EstimateResult:
    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float
    samples: int
    seed: int
    excluded: int = 0

    def __post_init__(self):
        if self.variance < 0 or self.stderr_mean < 0 or self.stderr_variance < 0:
            raise ValueError("variance and stderr fields must be nonnegative")


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    """Index ``index``'s stream, built alone: the reference for ``_stream_words``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _stream_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """(len(indices), 4) uint64: ``SeedSequence(entropy=seed, spawn_key=(k,))
    .generate_state(4, np.uint64)`` for every index k (each below 2**32).

    numpy's algorithm, vectorized over the indices: the seed's uint32 words,
    zero-padded to the pool size, then k's one word are hashed into a pool
    of four words, which is hashed out to eight.  The seed's words are the
    same for every index and broadcast as length-1 arrays.
    """
    seed = operator.index(seed)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(1, w, np.uint32) for w in words + [0] * (_POOL - len(words))]
    entropy.append(np.asarray(indices, dtype=np.uint32))
    mult = _INIT_A

    def hashmix(value):
        nonlocal mult
        value = value ^ np.uint32(mult)
        mult = mult * _MULT_A & _MASK32
        value = value * np.uint32(mult)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(e) for e in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(e))

    state = np.empty((len(entropy[-1]), 2 * _POOL), dtype="<u4")
    mult = _INIT_B
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(mult)
        mult = mult * _MULT_B & _MASK32
        value = value * np.uint32(mult)
        state[:, i] = value ^ (value >> np.uint32(16))
    # uint32 pairs read as little-endian uint64, as generate_state does; PCG64
    # reads each row from its buffer as native C-contiguous uint64
    return state.view("<u8").astype(np.uint64, copy=False)


class _StreamSeed(np.random.bit_generator.ISeedSequence):
    """One index's PCG64 seed words, computed by ``_stream_words``.  Kept as
    the bit generator's ``seed_seq``, so ``fresh_stream`` replays the stream."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a stream seed holds exactly four uint64 words")
        return self.words


def fresh_stream(rng: np.random.Generator) -> np.random.Generator:
    """A new generator at the start of ``rng``'s per-index stream."""
    bits = rng.bit_generator
    # public as ``seed_seq`` from numpy 1.25; ``_seed_seq`` before that
    return np.random.default_rng(getattr(bits, "seed_seq", None) or bits._seed_seq)


Sampler = Callable[[np.ndarray, Sequence[np.random.Generator]], np.ndarray]


def estimate(sampler: Sampler, samples: int, seed: int, workers: int = 1) -> EstimateResult:
    """Mean/variance of sampler over its per-index random streams.

    ``sampler(indices, rngs)`` gets one batch of consecutive indices (at
    most ``BATCH``) with one generator per index, and returns one value per
    index.  Index k's generator is PCG64 seeded by
    ``SeedSequence(entropy=seed, spawn_key=(k,))``, bit for bit; its seed
    words are hashed for ``_CHUNK`` indices at once, so they take 32 B per
    index of one chunk, not of all ``samples``.  Each value must be a pure
    function of its own index and stream.  Batches are cut at multiples of
    ``BATCH``; with ``workers`` > 1 each thread takes whole batches of one
    chunk at a time.  A NaN value excludes that sample (counted in
    ``excluded``).  Variance is the unbiased estimator; its standard error
    comes from a delete-one-block jackknife over up to 100 blocks.
    """
    (result,) = _draw_and_reduce(sampler, (), samples, seed, workers)
    return result


def estimate_columns(sampler: Sampler, columns: int, samples: int, seed: int,
                     workers: int = 1) -> tuple[EstimateResult, ...]:
    """``estimate`` of several quantities read from the same draws: ``sampler``
    returns a (B, columns) array, and the result holds one ``EstimateResult``
    per column, in order, each bitwise ``estimate`` of a sampler returning
    only that column (a NaN excludes only its own cell)."""
    if columns < 1:
        raise ValueError("columns must be >= 1")
    return _draw_and_reduce(sampler, (columns,), samples, seed, workers)


# ``estimate`` and ``estimate_columns`` share this core rather than one
# calling the other: perfbench's tracer rebinds every public name of this
# module, and its ``estimate`` wrapper reads ``.samples`` and ``.excluded``
# from the value it returns.
def _draw_and_reduce(sampler: Sampler, width: tuple, samples: int, seed: int,
                     workers: int) -> tuple[EstimateResult, ...]:
    """One result per column of the (samples, *width) values: the draw loop
    of ``estimate``, then its reduction on each column alone."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples > MAX_SAMPLES:
        raise ValueError("samples must be <= 2**32 (one spawn-key word per index)")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    values = np.empty((samples, *width))

    def run_batch(indices: np.ndarray, words: np.ndarray) -> None:
        rngs = [np.random.Generator(np.random.PCG64(_StreamSeed(w))) for w in words]
        out = np.asarray(sampler(indices, rngs), dtype=float)
        if out.shape != (len(indices), *width):
            raise ValueError(f"sampler returned shape {out.shape} for {len(indices)} indices")
        values[indices] = out

    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        run = pool.map if pool else map
        for lo in range(0, samples, _CHUNK):
            indices = np.arange(lo, min(lo + _CHUNK, samples))
            words = _stream_words(seed, indices)
            cuts = [slice(b, b + BATCH) for b in range(0, len(indices), BATCH)]
            list(run(run_batch, [indices[c] for c in cuts], [words[c] for c in cuts]))

    return tuple(_reduce(column, seed) for column in values.reshape(samples, -1).T)


def _reduce(values: np.ndarray, seed: int) -> EstimateResult:
    """Exact-sum mean, variance and jackknife errors of one column of values."""
    samples = len(values)
    keep = ~np.isnan(values)
    excluded = int(samples - keep.sum())
    n = int(keep.sum())
    if n < 2:
        raise ValueError("fewer than two retained samples")

    # shift by the first retained value so the exact block sums stay small
    kept = values[keep]
    pivot = float(kept[0])
    dev = kept - pivot
    devs, squares = dev.tolist(), (dev * dev).tolist()
    # each jackknife block is a run of indices; its retained samples end at stops[k]
    blocks = np.array_split(np.arange(samples), min(JACKKNIFE_BLOCKS, samples))
    stops = np.cumsum(keep)[[idx[-1] for idx in blocks]].tolist()
    counts, sums, sqsums = [], [], []
    for start, stop in zip([0] + stops[:-1], stops):
        counts.append(stop - start)
        sums.append(math.fsum(devs[start:stop]))
        sqsums.append(math.fsum(squares[start:stop]))
    total = math.fsum(sums)
    sqtotal = math.fsum(sqsums)

    mean = pivot + total / n
    variance = max((sqtotal - total * total / n) / (n - 1), 0.0)
    stderr_mean = math.sqrt(variance / n)

    thetas = []
    for ck, sk, qk in zip(counts, sums, sqsums):
        m = n - ck
        if m < 2:
            thetas = None
            break
        s, q = total - sk, sqtotal - qk
        thetas.append(max((q - s * s / m) / (m - 1), 0.0))
    if thetas is None:
        stderr_variance = math.inf
    else:
        b = len(thetas)
        tbar = math.fsum(thetas) / b
        stderr_variance = math.sqrt((b - 1) / b * math.fsum((t - tbar) ** 2 for t in thetas))

    return EstimateResult(
        mean=mean,
        variance=variance,
        stderr_mean=stderr_mean,
        stderr_variance=stderr_variance,
        samples=samples,
        seed=seed,
        excluded=excluded,
    )


def draw_unitaries(
    specs: Sequence[EnsembleSpec],
    rngs: Sequence[np.random.Generator],
    prefix: Optional[Callable[[Sequence[np.random.Generator]], object]] = None,
) -> list[np.ndarray]:
    """One (len(rngs), dim, dim) stack of unitaries per spec.

    Per-index draw loop: index b makes exactly the draws ``spec.draw``
    would make for each spec in turn (a Haar spec: its real, then its
    imaginary Ginibre normals).  After the loop, one ``haar_from_ginibre``
    call per dimension does the QRs and phase fixes of every Haar spec of
    that dimension (faster than one call per spec: about 6% on mps-ring,
    15% on brick-circuit); the non-Haar draws are unitary by construction
    (a fixed gate is checked when its spec is made).  An index with a
    rank-deficient Haar draw (probability zero) is drawn again from the
    start of its stream: ``prefix``, the batch builder whose draws came
    before the gates on each stream, is replayed on that one fresh stream
    (its result discarded), then each spec draws through ``spec.draw``,
    which keeps ``haar_unitary``'s redraw semantics.
    """
    count = len(rngs)
    draws = [np.empty((count, 2, spec.dim, spec.dim)) if spec.kind == "haar"
             else np.empty((count, spec.dim, spec.dim), dtype=complex) for spec in specs]
    for b, rng in enumerate(rngs):
        for spec, stack in zip(specs, draws):
            if spec.kind == "haar":
                rng.standard_normal(out=stack[b])
            else:
                stack[b] = spec.draw(rng)

    out = list(draws)
    redraw = np.zeros(count, dtype=bool)
    by_dim: dict[int, list[int]] = {}
    for j, spec in enumerate(specs):
        if spec.kind == "haar":
            by_dim.setdefault(spec.dim, []).append(j)
    for js in by_dim.values():
        z = np.stack([draws[j] for j in js], axis=1)
        q, bad = haar_from_ginibre(z[:, :, 0] + 1j * z[:, :, 1])
        redraw |= bad.any(axis=1)
        for slot, j in enumerate(js):
            out[j] = q[:, slot]
    for b in np.flatnonzero(redraw):
        rng = fresh_stream(rngs[b])
        if prefix is not None:
            prefix([rng])
        for j, spec in enumerate(specs):
            out[j][b] = spec.draw(rng)
    return out


def grad_variance_mps(
    case,
    n: int,
    D: int,
    d: int,
    delta: Optional[int],
    o_builder,
    g,
    ensembles: Optional[Mapping[str, EnsembleSpec]] = None,
    samples: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> tuple[EstimateResult, Optional[EstimateResult]]:
    """Empirical gradient statistics for one of the six sampling geometries.

    Per sample: take the observable, draw the derivative site's
    (u_minus, u_plus) per the case, draw every other site gate from
    ensembles["sites"], and evaluate the exact gradient along g.  The
    derivative acts on site 0; off-site cases place O delta sites away on
    the ring.

    In the minus/plus cases only that factor is Haar (the 2-design side);
    its partner comes from ensembles["partner"], default haar.

    o_builder is a fixed d x d matrix, or a batch builder: a callable on a
    batch's streams that returns one observable per stream as a (B, d, d)
    stack, e.g. ``costs.target_observables`` deriving O from a fresh Haar
    target.  It is called once per batch, before the gate draws, so each
    stream draws its observable first, then its gates; it must make the
    same draws on a stream whatever the batch.  The gradients of a batch are
    evaluated together by ``ansatz.grad_ring``, bitwise equal to
    ``grad_site`` per sample.  g and a fixed observable are checked
    Hermitian here, once; a built stack is only checked for its shape.

    Returns (grad, eps): eps estimates epsilon(O, d) of each index's built
    observable, a second column on the same draws (a NaN O is excluded from
    both), or is None for a fixed O, whose epsilon is exact.
    """
    case = VarianceCase(case)
    if n < 2:
        raise ValueError("need at least two sites")
    if D < 1 or d < 2:
        raise ValueError("need bond dim >= 1 and physical dim >= 2")
    if case.onsite:
        site_m = 0
    else:
        if delta is None or not 1 <= delta <= n - 1:
            raise ValueError("off-site cases need 1 <= delta <= n-1")
        site_m = delta
    dim = D * d
    if np.shape(g) != (dim, dim):
        raise ValueError(f"generator must be {dim}x{dim}")
    ensembles = dict(ensembles or {})
    sites = ensembles.pop("sites", EnsembleSpec.haar(dim))
    partner = ensembles.pop("partner", EnsembleSpec.haar(dim))
    if ensembles:
        raise ValueError(f"unknown ensemble keys {sorted(ensembles)}")
    for spec in (sites, partner):
        if spec.dim != dim:
            raise ValueError("ensemble dim must equal D*d")
    minus_ig = -1j * check_hermitian(g)
    build = o_builder if callable(o_builder) else None
    fixed_o = check_hermitian(_shaped(o_builder, (d, d))) if build is None else None
    haar = EnsembleSpec.haar(dim)
    split = {"minus": (haar, partner), "plus": (partner, haar), "both": (haar, haar)}
    specs = (*split[case.value.rpartition("-")[2]], *(sites,) * (n - 1))

    def sampler(indices: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        obs = fixed_o if build is None else _shaped(build(rngs), (len(rngs), d, d))
        u_minus, u_plus, *others = draw_unitaries(specs, rngs, build)
        gate = u_minus @ u_plus
        grad = grad_ring((u_minus @ minus_ig) @ u_plus, gate, np.stack(others, axis=1), obs, site_m, D, d)
        return np.stack([grad] if build is None else [grad, epsilon(obs, d)], axis=1)

    results = estimate_columns(sampler, 1 if build is None else 2, samples, seed, workers)
    return (results[0], None) if build is None else results


def haar_avg_epsilon_mc(kind, n: int, samples: int, seed: int,
                        workers: int = 1) -> tuple[EstimateResult, Optional[EstimateResult]]:
    """Sample means of epsilon(O_kind(V)) and of Tr(O_xent(V)²) over Haar targets.

    Only the state V|0...0> enters, so targets are drawn as Haar states,
    through ``costs.target_observables``, and both estimates read the same
    draws.  The second is None for xeb: O_xeb has trace zero, so its Tr(O²)
    is epsilon itself.  A clamped xent target is excluded from both (its
    count lands in each result's ``excluded`` field).
    """
    kind = CostKind(kind)
    if n < 1:
        raise ValueError("n must be >= 1")
    xent = kind is CostKind.CROSS_ENTROPY

    def sampler(indices: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        obs = target_observables(kind, n, rngs)
        columns = [epsilon(obs, 2)]
        if xent:
            # libm pow, as np.float64 ** 2 uses; numpy's vector pow and x * x
            # round differently in the last place on some inputs
            v = np.diagonal(obs, axis1=1, axis2=2)
            sq = np.array([math.pow(x, 2) for x in v.ravel().tolist()]).reshape(v.shape)
            columns.append(sq[:, 0] + sq[:, 1])
        return np.stack(columns, axis=1)

    results = estimate_columns(sampler, 1 + xent, samples, seed, workers)
    return results if xent else (results[0], None)


def _shaped(o, shape: tuple):
    if np.shape(o) != shape:
        raise ValueError(f"observables must be {'x'.join(map(str, shape))}, got shape {np.shape(o)}")
    return o
