"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the checkout root, the workload, the seed, whether to trace
and the repetition's id.  The repetition imports ``plateau.cli`` from the
checkout's ``src``, runs the workload's commands through ``main(argv)`` with
their output captured, and prints one JSON line: the import time, wall and
CPU time summed over the commands, the same rescaled to reference host speed
(``calibrate.HostClock``; untraced repetitions only), peak RSS, each
command's exit code, output digest and checks, and with tracing the
per-layer metrics.
"""

import json
import os
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import calibrate  # numpy, which plateau imports anyway

    # the kernel runs before and after the import, to rescale set-up time
    setup = calibrate.HostClock()
    setup.tick()
    import plateau.cli

    setup.tick()
    imported = time.monotonic()
    if not os.path.abspath(plateau.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"plateau imported from {plateau.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import contextlib
    import io
    import resource

    import workloads
    from tracer import Tracer

    tracer = Tracer(spec["run_id"]) if spec["trace"] else None
    if tracer:
        tracer.instrument()
    argvs = workloads.commands(spec["workload"], spec["seed"], spec["tiny"])
    # a traced repetition runs without the clock: its ticks would land in spans
    clock = None if tracer else calibrate.HostClock()
    runs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()

        def command(argv=argv):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return plateau.cli.main(argv)
                except SystemExit as exc:
                    return exc.code
                except Exception as exc:  # a raising command is a failed check, not a crash
                    return f"raised {exc!r}"

        cpu0, started = time.process_time(), time.perf_counter()
        if clock:
            rc, work, at_reference = clock.run(command)
        else:
            rc, at_reference = command(), None
        wall = time.perf_counter() - started
        if not clock:
            work = wall
        # the kernel's time is CPU time too: leave it out, as from the wall time
        cpu = time.process_time() - cpu0 - (wall - work)
        runs.append((argv, rc, out.getvalue(), work, cpu, at_reference))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    commands = []
    for argv, rc, stdout, seconds, _, _ in runs:
        try:
            checks = workloads.check(argv, rc, stdout)
            dig = workloads.digest(argv, stdout) if rc in (0, 1) else None
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            checks, dig = [("output parses", False, repr(exc))], None
        commands.append({
            "argv": argv, "rc": rc, "digest": dig, "draws": workloads.draws(argv),
            "checks": checks, "wall_s": seconds,
        })
    result = {
        "imported": imported, "wall_s": sum(r[3] for r in runs), "cpu_s": sum(r[4] for r in runs),
        "reference_wall_s": sum(r[5] for r in runs) if clock else None,
        "reference_cpu_s": sum(r[4] * r[5] / r[3] for r in runs) if clock else None,
        "setup_kernel_s": sum(left - entered for entered, _, left in setup.ticks),
        "setup_speed": calibrate.speed(*setup.ticks),
        "peak_rss_mb": peak_rss_mb,
        "commands": commands, "trace": spec["trace"],
    }
    if tracer:
        result["layers"] = tracer.metrics()
        if spec["spans"]:
            tracer.save(spec["spans"])
    if spec["fingerprint"]:
        result["fingerprint"] = fingerprint()
    print(json.dumps(result))
    return 0


def fingerprint() -> dict:
    """What the numbers depend on: bitwise agreement holds within one numpy/BLAS build."""
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
