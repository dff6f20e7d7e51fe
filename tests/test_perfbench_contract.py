"""The benchmark's traced path against the package it instruments.

``perfbench`` wraps the package's functions by name, wraps
``linalg.UnitaryGate.__init__`` and reads named call arguments (``m`` of
``ansatz.grad_site`` and ``ansatz.cost``, ``samples``, ``n_dim`` and ``dc`` of
the twirl samplers).  These tests run the benchmark's own entry points, at
the smoke sizes, so a rename in the package fails here first.
"""

import importlib
import math
import os
import sys

import numpy as np
import pytest

from plateau import ansatz, twirl
from plateau.linalg import gue_hermitian, haar_unitary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        yield importlib.import_module("run"), importlib.import_module("tracer")
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))


@pytest.mark.parametrize("workload", ["mps-ring", "haar-targets", "brick-circuit", "twirl-batch"])
def test_traced_run_reports_every_per_layer_metric(perfbench, workload):
    run, tracer = perfbench
    result, report = run.measure(ROOT, workload, 0, 0, True, tiny=True, min_reps=2)
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in tracer.PER_LAYER]
    for name, unit in tracer.PER_LAYER:
        assert metrics[name]["unit"] == unit
        assert math.isfinite(metrics[name]["value"]), name
    assert report["repetitions"] >= 2
    # a command that raised or exited 2 is a broken contract; exit 1 is a
    # statistical check missed at the smoke sizes
    broken = [(name, detail) for name, ok, detail in report["failed_checks"]
              if name.endswith("exit code 0") and detail != "exit 1"]
    assert not broken


def test_computed_counters_bind_their_arguments(perfbench):
    _, tracer = perfbench
    rng = np.random.default_rng(0)
    m = ansatz.MpsAnsatz(3, 2, 2, tuple(haar_unitary(4, rng) for _ in range(3)))
    o = gue_hermitian(2, rng)
    split = (haar_unitary(4, rng), gue_hermitian(4, rng), haar_unitary(4, rng))
    dc = twirl.DesignConstants.from_dims(2, 2)
    calls = {
        "ansatz.grad_site": lambda f: f(m, 0, *split, o, 1),
        "ansatz.cost": lambda f: f(m, o, 1),
        "twirl.mc_twirl": lambda f: f(np.eye(4, dtype=complex), 2, 8, 0),
        "twirl.diagram_mc": lambda f: f(twirl.PermLabel.S, twirl.PermLabel.A, dc, 8, 0),
    }
    assert set(calls) == set(tracer._COMPUTED)
    for name, call in calls.items():
        layer, _, attr = name.partition(".")
        t = tracer.Tracer("contract")
        call(t.wrap(name, getattr({"ansatz": ansatz, "twirl": twirl}[layer], attr)))
        counter = tracer._COMPUTED[name][0]
        assert t.counts[counter] > 0, name
