"""Spans around the plateau layers, recorded from outside the package.

``Tracer.instrument`` replaces every public function of each layer module,
and ``UnitaryGate`` construction, with a wrapper that records a span
(name, start, end, parent) in memory.  The wrapper is bound wherever another
module imported the function, so calls across layers and calls inside one
module are both seen.  ``mc.estimate`` also wraps the sampler it is handed,
giving one ``mc.sampler`` span per draw.

Spans are kept in flat arrays and turned into the per-layer metrics by
``Tracer.metrics``; ``Tracer.save`` writes them out for later reading.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("linalg", "twirl", "ansatz", "mc", "costs", "analytic", "circuit", "cli")

# (name, unit) of every per-layer metric, in report order.  ``us_per_call``
# is inclusive time per call; ``self_s`` excludes time in child spans.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("linalg.haar_unitary.calls", "count"),
        ("linalg.haar_unitary.self_s", "s"),
        ("linalg.haar_unitary.us_per_call", "us"),
        ("linalg.UnitaryGate.calls", "count"),
        ("linalg.UnitaryGate.self_s", "s"),
        ("linalg.haar_state.calls", "count"),
        ("linalg.haar_state.self_s", "s"),
        ("linalg.partial_trace.self_s", "s"),
        ("mc.estimate.calls", "count"),
        ("mc.estimate.self_s", "s"),
        ("mc.sampler.calls", "count"),
        ("mc.sampler.us_per_call", "us"),
        ("mc.overhead_us_per_sample", "us"),
        ("mc.retained_ratio", "ratio"),
    ]
    + [(f"ansatz.{f}.{m}", u) for f in ("grad_site", "transfer", "site_tensor")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("ansatz.ring_flops_computed", "flop")]
    + [(f"costs.{f}.{m}", u) for f in ("observable_xeb", "observable_xent", "epsilon", "p_first_qubit")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"analytic.{f}.{m}", u) for f in ("c_constants_mc", "variance_formula")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"circuit.{f}.{m}", u) for f in ("apply_gate", "circuit_grad")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("circuit.apply_gate.us_per_call", "us")]
    + [(f"twirl.{f}.{m}", u) for f in ("diagram_mc", "mc_twirl", "diagram_exact", "second_moment")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("twirl.two_copy_bytes_computed", "B")]
    + [("cli.main.self_s", "s"), ("trace.overhead_s", "s")]
)


def _ring_flops(args: dict) -> int:
    # (n - 1) products of D^2 x D^2 complex matrices, 8 real flops per multiply-add
    m = args["m"]
    return 8 * (m.n - 1) * (m.D**2) ** 3


def _two_copy_bytes(args: dict) -> int:
    # one (U (x) U) of (Dd)^2 x (Dd)^2 complex128 entries per draw
    dim = args["n_dim"] if "n_dim" in args else args["dc"].D * args["dc"].d
    return args["samples"] * dim**4 * 16


# counters computed from call arguments, keyed by span name
_COMPUTED = {
    "ansatz.grad_site": ("ansatz.ring_flops_computed", _ring_flops),
    "ansatz.cost": ("ansatz.ring_flops_computed", _ring_flops),
    "twirl.mc_twirl": ("twirl.two_copy_bytes_computed", _two_copy_bytes),
    "twirl.diagram_mc": ("twirl.two_copy_bytes_computed", _two_copy_bytes),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        computed = _COMPUTED.get(name)
        sig = inspect.signature(fn) if computed else None
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if computed:
                counts[computed[0]] += computed[1](sig.bind(*args, **kwargs).arguments)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _traced_estimate(self, estimate):
        def traced_estimate(sampler, *args, **kwargs):
            r = estimate(self.wrap("mc.sampler", sampler), *args, **kwargs)
            self.counts["mc.retained"] += r.samples - r.excluded
            self.counts["mc.drawn"] += r.samples
            return r

        return functools.wraps(estimate)(traced_estimate)

    def instrument(self) -> None:
        """Bind a traced wrapper in place of every public layer function."""
        pkg = importlib.import_module("plateau")
        mods = {layer: importlib.import_module(f"plateau.{layer}") for layer in LAYERS}
        everywhere = [pkg, *mods.values()]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if layer == "cli" and attr != "main":
                    continue  # cli self time is main minus the other layers
                inner = self._traced_estimate(fn) if (layer, attr) == ("mc", "estimate") else fn
                traced = self.wrap(f"{layer}.{attr}", inner)
                for m in everywhere:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, traced)
        gate = mods["linalg"].UnitaryGate
        gate.__init__ = self.wrap("linalg.UnitaryGate", gate.__init__)

    def _arrays(self):
        # copies, so the arrays stay appendable after the views are dropped
        start = np.frombuffer(self.start, dtype=float).copy()
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.intc).copy()
        name_id = np.frombuffer(self.name_id, dtype=np.intc).copy()
        return start, dur, parent, name_id

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        _, dur, parent, name_id = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = dict(zip(self.names, np.bincount(name_id, minlength=k).tolist()))
        self_s = dict(zip(self.names, np.bincount(name_id, weights=own, minlength=k).tolist()))
        total_s = dict(zip(self.names, np.bincount(name_id, weights=dur, minlength=k).tolist()))

        def per_call_us(name):
            return 1e6 * total_s.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

        out = {}
        for name, _ in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls.get(base, 0)
            elif field == "self_s" and base in LAYERS:
                out[name] = sum(v for s, v in self_s.items() if s.split(".")[0] == base)
            elif field == "self_s":
                out[name] = self_s.get(base, 0.0)
            elif field == "us_per_call":
                out[name] = per_call_us(base)
        sampler_calls = calls.get("mc.sampler", 0)
        out["mc.overhead_us_per_sample"] = (
            1e6 * self_s.get("mc.estimate", 0.0) / sampler_calls if sampler_calls else 0.0
        )
        drawn = self.counts["mc.drawn"]
        out["mc.retained_ratio"] = self.counts["mc.retained"] / drawn if drawn else 0.0
        out["ansatz.ring_flops_computed"] = self.counts["ansatz.ring_flops_computed"]
        out["twirl.two_copy_bytes_computed"] = self.counts["twirl.two_copy_bytes_computed"]
        return out

    def save(self, path: str) -> None:
        start, dur, parent, name_id = self._arrays()
        np.savez(path, run_id=self.run_id, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=start + dur)
