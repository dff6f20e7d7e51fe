"""Benchmark of the ``plateau`` command on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each repetition is a fresh interpreter
(``perfbench/child.py``) that imports ``plateau`` from the checkout's
``src`` and runs the workload's commands through ``plateau.cli.main``.
Repetitions run one at a time until ``--seconds`` is used up (at least
three, or four with tracing).  The last stdout line is the result JSON:
end-to-end metrics with ``--trace 0``; with ``--trace 1``, repetitions
alternate untraced and traced and the per-layer metrics come from the
traced ones.  Every metric is the median over repetitions; the line before
it holds quartiles, repetition counts, failed checks and the environment
fingerprint.  ``--smoke`` runs every workload at tiny sizes and checks that
each metric named in BENCHMARK.json is reported with its unit.

Times are rescaled to a fixed host speed, because a shared host's speed
drifts by 2x or more.  An untraced repetition times a short fixed kernel every 50 ms
while its commands run (``calibrate.HostClock``) and rescales each stretch
of work by the kernel's speed around it.  ``wall_s``, ``cpu_s`` and
``samples_per_s`` come from the rescaled times.  For ``setup_s`` the kernel
runs just before and just after ``plateau.cli`` is imported.  The times as
measured, and the host factor (measured over rescaled wall time), are in the
report line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("check_pass_frac", "ratio"),
)
RUN_LIMIT_S = 170  # a run, hung repetitions included, ends within this
# one BLAS thread: the benchmark is the single-threaded baseline
SERIAL_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def run_rep(root: str, workload: str, seed: int, trace: bool, tiny: bool, run_id: str,
            timeout: float, spans: str | None = None, fingerprint: bool = False) -> dict:
    spec = {"root": root, "workload": workload, "seed": seed, "trace": trace, "tiny": tiny,
            "run_id": run_id, "spans": spans, "fingerprint": fingerprint}
    env = dict(os.environ, **SERIAL_ENV)
    env.pop("PYTHONPATH", None)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {run_id} exceeded {timeout:.0f}s") from exc
    ended = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition {run_id} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep["imported"] - launched - rep["setup_kernel_s"]
    rep["elapsed_s"] = ended - launched
    if not trace:
        rep["host_factor"] = rep["wall_s"] / rep["reference_wall_s"]
    return rep


def run_reps(root: str, workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
             min_reps: int) -> list[dict]:
    """Repetitions until the time is used; with trace, odd ones are traced."""
    out_dir = os.path.join(HERE, ".out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz")
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(root, workload, seed, traced, tiny, f"{workload}/{seed}/{len(reps)}",
                            RUN_LIMIT_S - (time.monotonic() - start), spans if traced else None,
                            fingerprint=not reps))
        used = time.monotonic() - start
        longest = max(r["elapsed_s"] for r in reps)
        if used + longest > RUN_LIMIT_S or (len(reps) >= min_reps and used + longest > seconds):
            return reps


def checks(reps: list[dict]) -> list[tuple]:
    """Every command's checks in every repetition, plus digest agreement."""
    out = []
    first = reps[0]["commands"]
    for k, rep in enumerate(reps):
        for i, cmd in enumerate(rep["commands"]):
            label = f"rep {k} {' '.join(cmd['argv'][:3])}"
            out += [(f"{label}: {name}", ok, detail) for name, ok, detail in cmd["checks"]]
            if k:
                same = cmd["digest"] is not None and cmd["digest"] == first[i]["digest"]
                out.append((f"{label}: digest matches rep 0", same, cmd["digest"]))
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(reps: list[dict], trace: bool) -> tuple[dict, dict]:
    """(metric -> median, metric -> quartile record) for the requested kind."""
    plain = [r for r in reps if not r["trace"]]
    if not trace:
        draws = sum(c["draws"] for c in plain[0]["commands"])
        series = {
            "wall_s": [r["reference_wall_s"] for r in plain],
            "cpu_s": [r["reference_cpu_s"] for r in plain],
            "samples_per_s": [draws / r["reference_wall_s"] for r in plain],
            "setup_s": [r["setup_s"] * r["setup_speed"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            # as measured, before rescaling to the reference host speed
            "raw.wall_s": [r["wall_s"] for r in plain],
            "raw.setup_s": [r["setup_s"] for r in plain],
            "host_factor": [r["host_factor"] for r in plain],
        }
        units = dict(END_TO_END, **{"raw.wall_s": "s", "raw.setup_s": "s", "host_factor": "ratio"})
    else:
        traced = [r for r in reps if r["trace"]]
        series = {name: [r["layers"][name] for r in traced] for name, _ in PER_LAYER if name in traced[0]["layers"]}
        # each traced repetition against the untraced one just before it, as measured
        series["trace.overhead_s"] = [b["wall_s"] - a["wall_s"] for a, b in zip(reps[::2], reps[1::2])]
        units = dict(PER_LAYER)
    detail = {}
    for name, values in series.items():
        q1, med, q3 = _quartiles(values)
        detail[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(values), "unit": units[name]}
    return {k: v["median"] for k, v in detail.items()}, detail


def _source_state(root: str) -> dict:
    src = os.path.join(root, "src", "plateau")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            min_reps: int | None = None) -> tuple[dict, dict]:
    """(result line, report) of one benchmark run."""
    reps = run_reps(root, workload, seed, seconds, trace, tiny, min_reps or (4 if trace else 3))
    results = checks(reps)
    failed = [c for c in results if not c[1]]
    medians, detail = summarize(reps, trace)
    names = PER_LAYER if trace else END_TO_END
    if not trace:
        medians["check_pass_frac"] = 1.0 - len(failed) / len(results)
        detail["check_pass_frac"] = {"median": medians["check_pass_frac"], "runs": 1, "unit": "ratio"}
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": medians[name], "unit": unit} for name, unit in names},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "repetitions": len(reps), "commands": [c["argv"] for c in reps[0]["commands"]],
        "command_wall_s": [statistics.median(r["commands"][i]["wall_s"] for r in reps if not r["trace"])
                           for i in range(len(reps[0]["commands"]))],
        "metrics": detail, "failed_checks": failed[:50],
        "fingerprint": {**reps[0]["fingerprint"], **_source_state(root)},
    }
    return result, report


def _print_table(report: dict) -> None:
    print(f"{report['workload']} seed {report['seed']}: {report['repetitions']} repetitions")
    for name, d in report["metrics"].items():
        quart = f"[{d['q1']:.6g}, {d['q3']:.6g}]" if "q1" in d else ""
        print(f"  {name:36s} {d['median']:>14.6g} {d['unit']:6s} {quart} n={d['runs']}")
    for argv, seconds in zip(report["commands"], report["command_wall_s"]):
        print(f"  {seconds:8.3f} s  {' '.join(argv)}")
    for name, _, detail in report["failed_checks"]:
        print(f"  FAILED {name}: {detail}")


def _layer_split(name: str, result: dict, report: dict) -> list[str]:
    """Which layers do work on which workload, and sampler calls against the argv."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    problems = []
    for layer, owner in (("ansatz", "mps-ring"), ("circuit", "brick-circuit"), ("twirl", "twirl-batch")):
        calls = sum(v for k, v in m.items() if k.startswith(layer + ".") and k.endswith(".calls"))
        if (calls > 0) != (name == owner):
            problems.append(f"{name}: {calls} {layer} calls")
    draws = sum(workloads.draws(a) for a in report["commands"])
    if name != "twirl-batch" and m["mc.sampler.calls"] != draws:
        problems.append(f"{name}: {m['mc.sampler.calls']} sampler calls, the argv asks {draws}")
    return problems


def smoke(root: str) -> int:
    """Tiny run of every workload: every declared metric appears and the checks ran."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        False: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        True: [(m["name"], m["unit"]) for m in bench["per_layer"]],
    }
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        found = []
        for trace in (False, True):
            result, report = measure(root, name, 0, 0, trace, tiny=True, min_reps=2)
            if [(k, v["unit"]) for k, v in result["metrics"].items()] != declared[trace]:
                found.append(f"trace={int(trace)}: metrics differ from BENCHMARK.json")
            if result["attempted"] < 1:
                found.append(f"trace={int(trace)}: no checks ran")
            if trace:
                found += _layer_split(name, result, report)
        print(f"smoke {name}: {found or 'ok'}", flush=True)
        problems += found
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny run of every workload, checks the metric set")
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "plateau", "cli.py")):
        print(f"error: no src/plateau/cli.py under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.smoke:
            return smoke(root)
        if not args.workload:
            p.error("--workload is required")
        result, report = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_table(report)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
