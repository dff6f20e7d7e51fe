"""The benchmark workloads: the argv each passes to ``plateau.cli.main``, the
Monte-Carlo draws that argv asks for, and the checks on its output.

``mps-ring`` runs the MPS ring sweeps, ``haar-targets`` the Haar-target
epsilon averages and ``brick-circuit`` the brick circuits: each a different
per-sample Monte-Carlo path.  ``twirl-batch`` runs the only batched
(stacked-QR) path, which per-sample changes bypass.
The benchmark seed becomes the ``--seed`` of every command; nothing else in
the argv depends on it.  ``tiny`` selects the smoke-test sizes.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

NAMES = ("mps-ring", "haar-targets", "brick-circuit", "twirl-batch")

# Samples per estimate; the smoke sizes only exercise the code paths.
SIZES = {
    "normal": {
        "xeb_slope": 150, "onsite_minus": 150, "const": 400,
        "haar_xeb": 1500, "haar_xent": 1200,
        "brick_small": 200, "brick_large": 100,
        "twirl_22": 4096, "twirl_32": 4096,
    },
    "tiny": {
        "xeb_slope": 20, "onsite_minus": 20, "const": 20,
        "haar_xeb": 50, "haar_xent": 50,
        "brick_small": 10, "brick_large": 4,
        "twirl_22": 64, "twirl_32": 64,
    },
}

# Monte-Carlo constants each closed form estimates besides the exact c4.
_MC_CONSTANTS = {"onsite-both": 0, "onsite-minus": 2}
_IDENTITY_ESTIMATES = 9  # 4 tree + 4 otree diagram_mc calls and one mc_twirl
# Tolerance of the per-point comparisons, in standard errors.  The gradient
# distribution is heavy-tailed: a few hundred draws that miss a tail event give
# a low variance and a low jackknife error together.  At these sample counts a
# 3-sigma test failed on 3 (onsite-minus) and 2 (xeb) of seeds 0-39; none
# reached 4 sigma.
Z_TOL = 4.0


def commands(name: str, seed: int, tiny: bool = False) -> list[list[str]]:
    z = SIZES["tiny" if tiny else "normal"]
    s = str(seed)
    serial = ["--seed", s, "--workers", "1"]
    if name == "mps-ring":
        return [
            # the criterion-5 xeb sweep at D = d = 2, then onsite-minus at D = 3
            ["variance", "--cost", "xeb", "--case", "onsite-both", "--generator", "pauli:ZI",
             "--n", "4:10", "--samples", str(z["xeb_slope"]), "--format", "json", *serial],
            ["variance", "--case", "onsite-minus", "--O", "Z", "--generator", "gue:0",
             "--D", "3", "--d", "2", "--n", "2:6", "--samples", str(z["onsite_minus"]),
             "--const-samples", str(z["const"]), "--format", "json", *serial],
        ]
    if name == "haar-targets":
        return [
            # cheap samples, so stream build and reduction dominate
            ["haar-epsilon", "--cost", "xeb", "--n", "1:6", "--samples", str(z["haar_xeb"]),
             "--format", "json", *serial],
            ["haar-epsilon", "--cost", "xent", "--n", "2:6", "--samples", str(z["haar_xent"]),
             "--format", "json", *serial],
        ]
    if name == "brick-circuit":
        return [
            # statevector apply_gate, no ring or transfer work
            ["circuit", "--layout", "brick", "--qubits", "4", "--layers", "2",
             "--samples", str(z["brick_small"]), *serial],
            ["circuit", "--layout", "brick", "--qubits", "8", "--layers", "4",
             "--samples", str(z["brick_large"]), *serial],
        ]
    if name == "twirl-batch":
        # identities draws from one stream in fixed batches and has no --workers flag
        return [
            ["identities", "--format", "json", "--D", "2", "--d", "2",
             "--samples", str(z["twirl_22"]), "--seed", s],
            ["identities", "--format", "json", "--D", "3", "--d", "2",
             "--samples", str(z["twirl_32"]), "--seed", s],
        ]
    raise ValueError(f"unknown workload {name!r}")


def _flag(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _points(argv: list[str]) -> int:
    lo, _, hi = _flag(argv, "--n").partition(":")
    return int(hi or lo) - int(lo) + 1


def draws(argv: list[str]) -> int:
    """Monte-Carlo draws the command asks for, counted from its argv alone."""
    samples = int(_flag(argv, "--samples"))
    cmd = argv[0]
    if cmd == "variance":
        if _flag(argv, "--cost", "fixed") == "fixed":
            consts = _MC_CONSTANTS[_flag(argv, "--case")] * int(_flag(argv, "--const-samples"))
            return _points(argv) * (samples + consts)
        return _points(argv) * 2 * samples  # gradient and epsilon estimates per point
    if cmd == "haar-epsilon":
        per_point = 1 if _flag(argv, "--cost") == "xeb" else 2  # xent adds Tr(O^2)
        return _points(argv) * per_point * samples
    if cmd == "circuit":
        return 5 * samples  # five test observables
    if cmd == "identities":
        return _IDENTITY_ESTIMATES * samples
    raise ValueError(f"no draw count for {cmd!r}")


def digest(argv: list[str], stdout: str) -> str:
    """Hash of a command's numeric output with its timing fields removed."""
    if _flag(argv, "--format") == "json":
        doc = json.loads(stdout)
        doc.pop("wall_time_s", None)
        text = json.dumps(doc, sort_keys=True)
    else:
        text = re.sub(r", wall [0-9.]+s\)", ")", stdout)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# correctness checks: each returns [(name, ok, detail), ...]


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _check_xeb_slope(doc: dict) -> list[tuple]:
    pts = [p for p in doc["points"] if "n" in p]
    slope = _slope([p["n"] for p in pts], [math.log(p["var_emp"]["value"]) for p in pts])
    tol = 0.15 * math.log(2.0)
    return [("xeb slope", abs(slope + math.log(2.0)) <= tol,
             f"slope {slope:.4f}, want -ln2 +- {tol:.4f}")]


def _within(label: str, pts: list[tuple[int, float, float, float]]) -> list[tuple]:
    """Each (n, estimate, reference, stderr) point within Z_TOL standard errors."""
    return [(f"{label} n={n}", abs(est - ref) <= Z_TOL * se, f"z {(est - ref) / se:+.2f}, |z| <= {Z_TOL:g}")
            for n, est, ref, se in pts]


def _check_var_analytic(doc: dict) -> list[tuple]:
    return _within("onsite-minus var_emp vs var_analytic", [
        (p["n"], p["var_emp"]["value"], p["var_analytic"]["value"], p["var_emp"]["stderr"]) for p in doc["points"]
    ])


def _check_xeb_closed(doc: dict) -> list[tuple]:
    return _within("xeb epsilon vs 2/(2^n+1)", [
        (p["n"], p["epsilon_mc"]["value"], 2.0 / (2 ** p["n"] + 1), p["epsilon_mc"]["stderr"]) for p in doc["points"]
    ])


def _check_xent(doc: dict, samples: int) -> list[tuple]:
    pts = doc["points"]
    means = [p["epsilon_mc"]["value"] for p in pts]
    out = [("xent non-increasing", all(a >= b for a, b in zip(means, means[1:])),
            "means " + " ".join(f"{m:.4f}" for m in means))]
    for p in pts:
        if p["n"] >= 3:
            out.append((f"xent exclusions n={p['n']}", p["clamp_count"] <= 0.01 * samples,
                        f"{p['clamp_count']} of {samples}"))
    return out


def _check_circuit(stdout: str) -> list[tuple]:
    ok = "checks passed" in stdout and "MEAN-NOT-ZERO" not in stdout
    return [("circuit zero-mean and Var/epsilon", ok, stdout.strip().splitlines()[-1] if stdout else "")]


def _check_identities(doc: dict) -> list[tuple]:
    return [(p["check"], p["pass"] is True, f"value {p['value']:.6g} ref {p['reference']:.6g}")
            for p in doc["points"]]


def check(argv: list[str], rc, stdout: str) -> list[tuple]:
    """All checks of one command; a raise or non-zero exit is a failed check."""
    out = [("exit code 0", rc == 0, f"exit {rc}")]
    if rc not in (0, 1) or not stdout:  # 1 still prints the failed checks
        return out
    cmd = argv[0]
    if cmd == "circuit":
        return out + _check_circuit(stdout)
    doc = json.loads(stdout)
    if cmd == "identities":
        return out + _check_identities(doc)
    if cmd == "haar-epsilon":
        if _flag(argv, "--cost") == "xeb":
            return out + _check_xeb_closed(doc)
        return out + _check_xent(doc, int(_flag(argv, "--samples")))
    if _flag(argv, "--cost", "fixed") == "xeb":
        return out + _check_xeb_slope(doc)
    return out + _check_var_analytic(doc)
