"""Reproducible Monte-Carlo estimation harness.

Every sample is computed from its own random stream derived from
(master seed, sample index), so the set of sampled values is a pure
function of (seed, samples) and worker scheduling cannot change it.
Samplers see the indices in fixed batches of ``BATCH``: each index makes
its draws from its own stream, and everything after the draws runs as
stacked numpy operations over the batch.  Worker threads take whole
batches.  The reduction is always performed serially in index order with
exact summation, which makes results bitwise identical across worker
counts.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .linalg import UnitaryGate, check_hermitian, haar_from_ginibre, haar_unitary
from .ansatz import grad_ring

JACKKNIFE_BLOCKS = 100
# indices per sampler call; a constant, so that batch boundaries, and with
# them every sampled value, never depend on the worker count
BATCH = 32


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
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def fresh_stream(rng: np.random.Generator) -> np.random.Generator:
    """A new generator at the start of ``rng``'s per-index stream."""
    bits = rng.bit_generator
    # public as ``seed_seq`` from numpy 1.25; ``_seed_seq`` before that
    return np.random.default_rng(getattr(bits, "seed_seq", None) or bits._seed_seq)


Sampler = Callable[[np.ndarray, Sequence[np.random.Generator]], np.ndarray]


def estimate(sampler: Sampler, samples: int, seed: int, workers: int = 1) -> EstimateResult:
    """Mean/variance of sampler over its per-index random streams.

    ``sampler(indices, rngs)`` gets one batch of consecutive indices (at
    most ``BATCH``) with one generator per index, derived from (seed,
    index) only, and returns one value per index.  Each value must be a
    pure function of its own index and stream.  Batches are cut at
    multiples of ``BATCH``; with ``workers`` > 1 each thread takes whole
    batches.  A NaN value excludes that sample (counted in ``excluded``).
    Variance is the unbiased estimator; its standard error comes from a
    delete-one-block jackknife over up to 100 blocks.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    values = np.empty(samples)

    def run_batch(lo: int) -> None:
        indices = np.arange(lo, min(lo + BATCH, samples))
        out = np.asarray(sampler(indices, [_sample_rng(seed, int(k)) for k in indices]), dtype=float)
        if out.shape != indices.shape:
            raise ValueError(f"sampler returned shape {out.shape} for {len(indices)} indices")
        values[indices] = out

    starts = range(0, samples, BATCH)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_batch, starts))
    else:
        for lo in starts:
            run_batch(lo)

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
) -> EstimateResult:
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
        return grad_ring((u_minus @ minus_ig) @ u_plus, gate, np.stack(others, axis=1), obs, site_m, D, d)

    return estimate(sampler, samples, seed, workers)


def _shaped(o, shape: tuple):
    if np.shape(o) != shape:
        raise ValueError(f"observables must be {'x'.join(map(str, shape))}, got shape {np.shape(o)}")
    return o
