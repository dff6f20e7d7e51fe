"""Command-line front end.

    plateau identities     check the closed-form pairing values against
                           direct diagram contraction and Monte Carlo
    plateau variance       empirical vs analytic gradient variances
    plateau haar-epsilon   Haar averages of epsilon over target unitaries
    plateau circuit        layered-circuit zero-mean and Var/epsilon checks

Each subcommand declares its flags once, as a table of ``Flag`` entries;
the parser, the config-file checks and the typed values the subcommand
runs on all come from that table.  Flags override an optional key=value
config file (--config); the default seed can also come from the
PLATEAU_SEED environment variable.  Every value a command is given is
checked before any compute, even one its other options leave unused.  CSV
output is RFC-4180 with 17 significant digits, so identical configs yield
byte identical files.  Exit codes: 0 ok, 1 check failed, 2 bad
configuration.  Any other exception is an internal error: it is not caught,
so it prints its traceback and Python exits 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .analytic import (
    CConstants,
    VarianceCase,
    VarianceQuery,
    c_constants_mc,
    variance_formula,
)
from .circuit import QUBIT_CAP, LayeredCircuit, brick_supports, circuit_variance_mc
from .costs import epsilon, haar_avg_epsilon_xeb_closed, target_observables
from .linalg import check_hermitian, gue_hermitian, pauli_string
from .mc import MAX_SAMPLES, EnsembleSpec, grad_variance_mps, haar_avg_epsilon_mc
from .twirl import (
    DesignConstants,
    PermLabel,
    diagram_exact,
    diagram_mc,
    mc_twirl,
    o_tree,
    perm_ops,
    second_moment,
    tree_chain,
)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Flag:
    """One flag of a subcommand.  ``kind`` is how its value parses: ``int``,
    ``range`` (N or LO:HI), ``qubits`` (a list such as 0,1), ``choice``,
    ``flag`` (on/off; true|false in a config file) or ``text`` (parsed by
    the subcommand, e.g. an observable spec).  ``lo`` bounds every integer
    an int, range or qubits value holds, ``hi`` an int.  ``key`` is the
    config-file key and the key of the parsed value."""

    name: str
    default: object = None
    kind: str = "text"
    lo: Optional[int] = None
    help: Optional[str] = None
    choices: tuple = ()
    key: str = ""
    hi: Optional[int] = None

    def __post_init__(self):
        if not self.key:
            object.__setattr__(self, "key", self.name[2:].replace("-", "_"))


class Report(NamedTuple):
    """What a subcommand hands back: its CSV or text output, the points of
    its JSON run record, and whether its checks passed."""

    text: str
    points: list
    ok: bool = True


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _as_int(x, name: str, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    try:
        v = int(str(x), 10)
    except ValueError as exc:
        raise ConfigError(f"{name} must be an integer, got {x!r}") from exc
    if lo is not None and v < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{name} must be <= {hi}, got {v}")
    return v


def _parse_range(x, name: str, lo: int) -> range:
    s = str(x)
    parts = s.split(":")
    out = None
    try:
        if len(parts) <= 2:
            first, last = int(parts[0]), int(parts[-1])
            if last >= first:
                out = range(first, last + 1)
    except ValueError:
        pass
    if out is None:
        raise ConfigError(f"{name} must be N or LO:HI, got {s!r}")
    if out[0] < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {s!r}")
    return out


def _parse(flag: Flag, raw):
    """The typed value of one flag from its raw value (None when unset)."""
    if raw is None or flag.kind in ("text", "choice", "flag"):
        return raw
    if flag.kind == "int":
        return _as_int(raw, flag.name, flag.lo, flag.hi)
    if flag.kind == "range":
        return _parse_range(raw, flag.name, flag.lo)
    qubits = tuple(_as_int(t, flag.name, flag.lo) for t in str(raw).replace(",", " ").split())
    if not qubits:
        raise ConfigError(f"{flag.name} needs at least one qubit, got {raw!r}")
    return qubits


def _parse_generator(spec: str, dim: int) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "zero":
        return np.zeros((dim, dim))
    if kind == "gue":
        seed = _as_int(arg or "0", "--generator gue seed", 0)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return gue_hermitian(dim, rng)
    if kind == "pauli":
        try:
            m = pauli_string(arg)
        except ValueError as exc:
            raise ConfigError(f"--generator: {exc}") from exc
        if m.shape != (dim, dim):
            raise ConfigError(f"--generator pauli string {arg!r} has dim {m.shape[0]}, need {dim}")
        return m
    raise ConfigError(f"--generator: unknown spec {spec!r} (use gue:SEED, pauli:XY.., zero)")


def _parse_observable(spec: str, d: int) -> np.ndarray:
    named = {"Z": [1.0, -1.0], "p0": [1.0, 0.0], "I": None}
    if spec in ("Z", "p0") and d == 2:
        return np.diag(named[spec])
    if spec == "I":
        return np.eye(d)
    if spec == "X" and d == 2:
        return pauli_string("X")
    kind, _, arg = spec.partition(":")
    if kind == "diag":
        try:
            vals = [float(v) for v in arg.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--O diag entries must be numbers, got {arg!r}") from exc
        if len(vals) != d:
            raise ConfigError(f"--O diag observable needs {d} entries")
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"--O diag entries must be finite, got {arg!r}")
        return np.diag(vals)
    if kind == "gue":
        rng = np.random.default_rng(np.random.SeedSequence(_as_int(arg or "0", "--O gue seed", 0)))
        return gue_hermitian(d, rng)
    raise ConfigError(f"--O: unknown observable spec {spec!r} (use I, diag:A,B,.., gue:SEED, or Z, p0, X at d = 2)")


def _load_config(path: Optional[str], flags: list[Flag]) -> dict:
    if not path:
        return {}
    known = {f.key: f for f in flags if f.key != "config"}
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in known:
                    raise ConfigError(f"{path}:{ln}: unknown key {key!r} (known: {', '.join(sorted(known))})")
                val, flag = val.strip(), known[key]
                choices = ("true", "false") if flag.kind == "flag" else flag.choices
                if choices and val not in choices:
                    raise ConfigError(f"{path}:{ln}: {key} must be one of {'|'.join(choices)}, got {val!r}")
                out[key] = val == "true" if flag.kind == "flag" else val
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _resolve(args: argparse.Namespace, flags: list[Flag]) -> dict:
    """Raw values: table defaults, then the config file, then the flags."""
    cfg = {f.key: f.default for f in flags if f.default is not None}
    cfg.update(_load_config(args.config, flags))
    cfg.update((key, val) for key, val in vars(args).items() if key != "config" and val is not None)
    cfg.setdefault("seed", os.environ.get("PLATEAU_SEED", "0"))
    return cfg


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    return buf.getvalue()


def _check_out(out: Optional[str]) -> None:
    """Fail before any compute if --out cannot be written; touches no file."""
    if not out:
        return
    folder = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(folder):
        raise ConfigError(f"--out {out}: no such directory {folder}")
    if os.path.isdir(out) or not os.access(out if os.path.exists(out) else folder, os.W_OK):
        raise ConfigError(f"--out {out}: not a writable file")


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_record(cfg: dict, seed: int, points: list, started: float) -> str:
    echo = {k: (v if isinstance(v, (int, float, bool)) or v is None else str(v)) for k, v in sorted(cfg.items())}
    record = {
        "config": echo,
        "points": points,
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _check_target_n(ns: range) -> None:
    """A target-derived cost draws 2**n-amplitude Haar states: cap n as a circuit's qubits."""
    if ns[-1] > QUBIT_CAP:
        raise ConfigError(f"--n must be <= {QUBIT_CAP} for a target-derived cost, got {ns[-1]}")


def _tagged(value, provenance: str, stderr=None, samples=None) -> dict:
    out = {"value": value, "provenance": provenance}
    if stderr is not None:
        out["stderr"] = stderr
    if samples is not None:
        out["samples"] = samples
    return out


# ---------------------------------------------------------------------------
# identities


def _identity_checks(which: str, D: int, d: int, samples: int, seed: int) -> list[tuple]:
    dc = DesignConstants.from_dims(D, d)
    rows = []
    labels = [(l, r) for l in (PermLabel.S, PermLabel.A) for r in (PermLabel.S, PermLabel.A)]

    o = pauli_string("Z") if d == 2 else gue_hermitian(d, np.random.default_rng(7))
    for prefix, obs, offset in (("tree", None, 0), ("otree", o, 10)):
        if which not in (prefix, "all"):
            continue
        for i, (l, r) in enumerate(labels):
            closed = tree_chain(l, r, 0, dc) if obs is None else o_tree(l, r, obs, dc)
            exact = diagram_exact(l, r, dc, obs)
            rows.append((f"{prefix} {l.value}{r.value} exact", exact, closed, 1e-10, abs(exact - closed) <= 1e-10))
            mean, se = diagram_mc(l, r, dc, samples, seed + offset + i, obs)
            tol = max(3.0 * se, 1e-9)
            rows.append((f"{prefix} {l.value}{r.value} mc", mean, closed, tol, abs(mean - closed) <= tol))

    if which in ("twirl", "all"):
        n = D * d
        ident, swap = perm_ops(n)
        for name, x in (("twirl unital", ident), ("twirl swap", swap)):
            err = float(np.max(np.abs(second_moment(x, n) - x)))
            rows.append((name, err, 0.0, 1e-12, err <= 1e-12))
        e00 = np.zeros((4, 4), dtype=complex)
        e00[0, 0] = 1.0
        want = sum(perm_ops(2)) / 6.0
        err = float(np.max(np.abs(second_moment(e00, 2) - want)))
        rows.append(("twirl |00> projector", err, 0.0, 1e-12, err <= 1e-12))
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        x = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        x /= np.max(np.abs(x))
        err = float(np.max(np.abs(mc_twirl(x, n, samples, seed) - second_moment(x, n))))
        # 5e-3 is the 1e5-sample budget; scale as 1/sqrt(samples) below that
        tol = 5e-3 * max(1.0, (1e5 / samples) ** 0.5)
        rows.append(("twirl mc max-entry", err, 0.0, tol, err <= tol))
    return rows


def run_identities(v: dict) -> Report:
    D, d, samples = v["D"], v["d"], v["samples"]
    rows = _identity_checks(v["which"], D, d, samples, v["seed"])
    ok = all(r[4] for r in rows)
    points = [
        {"check": name, "value": val, "reference": ref, "tolerance": tol, "pass": good}
        for name, val, ref, tol, good in rows
    ]
    lines = [f"{'check':28s} {'value':>24s} {'reference':>24s} {'tol':>12s} result"]
    for name, val, ref, tol, good in rows:
        lines.append(
            f"{name:28s} {_fmt(val):>24s} {_fmt(ref):>24s} {tol:>12.2e} "
            + ("pass" if good else "FAIL")
        )
    lines.append(f"{'all checks passed' if ok else 'FAILURES PRESENT'} (D={D}, d={d}, samples={samples})")
    return Report("\n".join(lines) + "\n", points, ok)


# ---------------------------------------------------------------------------
# variance


def run_variance(v: dict) -> Report:
    case, cost, D, d = VarianceCase(v["case"]), v["cost"], v["D"], v["d"]
    if cost != "fixed":
        if d != 2:
            raise ConfigError(f"--d must be 2 for --cost {cost}, got {d}")
        _check_target_n(v["n"])
    ns, samples, seed, workers = v["n"], v["samples"], v["seed"], v["workers"]
    delta = None if case.onsite else v["delta"]
    g = check_hermitian(_parse_generator(v["generator"], D * d))
    partners = {"haar": EnsembleSpec.haar, "pauli": EnsembleSpec.pauli_group}
    partner = partners[v["partner_ensemble"]](D * d)

    for n in ns:
        hi = n - 2 if case is VarianceCase.OFFSITE_PLUS else n - 1
        if not case.onsite and not 1 <= delta <= hi:
            raise ConfigError(f"--delta must satisfy 1 <= delta <= {hi} for --case {case.value} at n={n}, got {delta}")
    # checked for every cost, though only the fixed cost uses it
    o = check_hermitian(_parse_observable(v["o"], d))
    if cost == "fixed":
        # the constants do not depend on n: one estimate serves the sweep
        cc = c_constants_mc(case, g, o, D, d, partner, v["const_samples"], seed, workers)

    rows, points = [], []
    for n in ns:
        if cost == "fixed":
            vq = VarianceQuery(case, n, D, d, g, o, delta)
            analytic_val = variance_formula(vq, cc)
            o_builder = o
        else:
            o_builder = functools.partial(target_observables, cost, n)
            cc, analytic_val = None, None
        r, eps = grad_variance_mps(case, n, D, d, delta, o_builder, g, {"partner": partner}, samples, seed, workers)
        eps = _tagged(epsilon(o, d), "analytic") if eps is None else _tagged(eps.mean, "empirical", eps.stderr_mean)
        rows.append([n, r.variance, r.stderr_variance, analytic_val, eps["value"], samples, seed])
        point = {
            "n": n,
            "mean": _tagged(r.mean, "empirical", r.stderr_mean, r.samples),
            "var_emp": _tagged(r.variance, "empirical", r.stderr_variance, r.samples),
            "epsilon": eps,
            "excluded": r.excluded,
        }
        if analytic_val is not None:
            point["var_analytic"] = _tagged(analytic_val, "analytic")
            point["constants"] = {
                name: _tagged(est.value, est.provenance, est.stderr or None, est.samples or None)
                for name in ("c1", "c2", "c3", "c4", "c5", "c6")
                if (est := getattr(cc, name)) is not None
            }
        points.append(point)

    if cost == "xeb" and len(rows) >= 2:
        xs = np.array([row[0] for row in rows], dtype=float)
        ys = np.log([max(row[1], 1e-300) for row in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
        points.append({"slope_ln_var_vs_n": _tagged(slope, "empirical")})
        print(f"# fitted slope of ln(var) vs n: {slope:.6f}", file=sys.stderr)
    header = ["n", "var_emp", "stderr", "var_analytic", "epsilon_mean", "samples", "seed"]
    return Report(_csv_text(header, rows), points)


# ---------------------------------------------------------------------------
# haar-epsilon


def run_haar_epsilon(v: dict) -> Report:
    _check_target_n(v["n"])
    cost, samples, seed, workers = v["cost"], v["samples"], v["seed"], v["workers"]
    rows, points = [], []
    for n in v["n"]:
        r, tr = haar_avg_epsilon_mc(cost, n, samples, seed, workers)
        closed = haar_avg_epsilon_xeb_closed(n) if cost == "xeb" else None
        rows.append([n, r.mean, r.stderr_mean, closed, tr.mean if tr else None, r.excluded])
        point = {
            "n": n,
            "epsilon_mc": _tagged(r.mean, "empirical", r.stderr_mean, samples),
            "clamp_count": r.excluded,
        }
        if closed is not None:
            point["epsilon_closed"] = _tagged(closed, "closed_form")
        if tr is not None:
            point["trace_oe_sq_mc"] = _tagged(tr.mean, "empirical", tr.stderr_mean, samples)
        points.append(point)
    header = ["n", "epsilon_mc", "stderr", "epsilon_closed", "trace_oe_sq_mc", "clamp_count"]
    return Report(_csv_text(header, rows), points)


# ---------------------------------------------------------------------------
# circuit


def _load_layout(path: str) -> tuple[int, list[tuple]]:
    supports, n_qubits = [], None  # supports: (line number, qubits)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.startswith("qubits"):
                    m = re.fullmatch(r"qubits(?:\s*=\s*|\s+)(\S+)", line)
                    if not m:
                        raise ConfigError(f"{path}:{ln}: expected 'qubits N', got {line!r}")
                    n_qubits = _as_int(m[1], f"{path}:{ln}: qubits", 1)
                    if n_qubits > QUBIT_CAP:
                        raise ConfigError(f"{path}:{ln}: qubits must be <= {QUBIT_CAP}, got {n_qubits}")
                    continue
                try:
                    qs = tuple(int(t) for t in line.replace(",", " ").split())
                except ValueError as exc:
                    raise ConfigError(f"{path}:{ln}: malformed gate support {line!r}") from exc
                if not qs:
                    raise ConfigError(f"{path}:{ln}: empty gate support")
                supports.append((ln, qs))
    except OSError as exc:
        raise ConfigError(f"cannot read layout file {path}: {exc}") from exc
    if n_qubits is None or not supports:
        raise ConfigError(f"layout file {path} needs a 'qubits N' line and gate lines")
    for ln, qs in supports:
        if len(set(qs)) != len(qs) or not all(0 <= q < n_qubits for q in qs):
            raise ConfigError(f"{path}:{ln}: bad support {qs} on {n_qubits} qubits")
    return n_qubits, [qs for _, qs in supports]


def run_circuit(v: dict) -> Report:
    started = time.perf_counter()
    layout, n_qubits, samples, seed = v["layout"], v["qubits"], v["samples"], v["seed"]
    # a layout file is read even when --layout does not use it
    loaded = _load_layout(v["layout_file"]) if v["layout_file"] else None
    if layout == "file":
        if loaded is None:
            raise ConfigError("--layout file needs --layout-file PATH")
        n_qubits, supports = loaded
    elif n_qubits > QUBIT_CAP:
        raise ConfigError(f"--qubits must be <= {QUBIT_CAP}, got {n_qubits}")
    elif layout == "brick":
        if n_qubits < 2:
            raise ConfigError(f"--qubits must be >= 2, got {n_qubits}")
        supports = list(brick_supports(n_qubits, v["layers"]))
    else:
        supports = [tuple(range(n_qubits))]

    last = len(supports) - 1
    obs_layer = last if v["obs_layer"] is None else v["obs_layer"]
    deriv_layer = v["deriv_layer"]
    for flag, layer in (("--obs-layer", obs_layer), ("--deriv-layer", deriv_layer)):
        if not 0 <= layer <= last:
            raise ConfigError(f"{flag} {layer} is outside the gate indices 0..{last}")
    a = v["obs_qubits"] or (supports[obs_layer][0],)
    if len(set(a)) != len(a):
        raise ConfigError(f"--obs-qubits {a} repeats a qubit")
    if not set(a) <= set(supports[obs_layer]):
        raise ConfigError(f"--obs-qubits {a} must sit inside gate {obs_layer}'s qubits {supports[obs_layer]}")
    d_a = 2 ** len(a)
    template = LayeredCircuit(n_qubits, tuple((np.eye(2 ** len(s), dtype=complex), s) for s in supports), obs_layer)
    v_k = check_hermitian(_parse_generator(v["generator"], 2 ** len(supports[deriv_layer])))

    obs_rng = np.random.default_rng(np.random.SeedSequence(v["obs_seed"]))
    observables = {
        "Z-string": np.diag([(-1.0) ** bin(x).count("1") for x in range(d_a)]),
        "projector-0": np.diag([1.0] + [0.0] * (d_a - 1)),
        "X-string": pauli_string("X" * len(a)),
        "ramp-diag": np.diag(np.arange(d_a, dtype=float) * 2.0 - 1.0),
        "random-hermitian": gue_hermitian(d_a, obs_rng),
    }
    results = circuit_variance_mc(template, deriv_layer, v_k, list(observables.values()), a,
                                  samples, seed, v["workers"])

    lines = [
        f"layout {layout}: {len(supports)} gates on {n_qubits} qubits, "
        f"derivative layer {deriv_layer}, observable qubits {a}",
        f"{'observable':18s} {'mean':>13s} {'3*se(mean)':>13s} {'variance':>13s} {'se(var)':>12s} {'var/eps':>12s}",
    ]
    ratios, zero_ok = [], True
    for (name, o), r in zip(observables.items(), results):
        eps_val = epsilon(o, d_a)
        ok = abs(r.mean) <= 3.0 * r.stderr_mean
        zero_ok = zero_ok and ok
        if eps_val > 0:
            ratios.append((r.variance / eps_val, r.stderr_variance / eps_val))
        lines.append(
            f"{name:18s} {r.mean:+13.6f} {3 * r.stderr_mean:13.6f} {r.variance:13.6f} "
            f"{r.stderr_variance:12.6f} "
            + (f"{r.variance / eps_val:12.6f}" if eps_val > 0 else f"{'n/a':>12s}")
            + ("" if ok else "  MEAN-NOT-ZERO")
        )
    flat_ok = True
    for i in range(len(ratios)):
        for j in range(i + 1, len(ratios)):
            gap = abs(ratios[i][0] - ratios[j][0])
            tol = 3.0 * math.hypot(ratios[i][1], ratios[j][1])
            if gap > tol:
                flat_ok = False
                lines.append(f"ratio spread {gap:.6f} exceeds 3-sigma {tol:.6f} (pair {i},{j})")
    ok = zero_ok and flat_ok
    lines.append(
        ("zero-mean and Var/epsilon constancy checks passed" if ok else "CHECKS FAILED")
        + f" ({samples} samples, seed {seed}, wall {time.perf_counter() - started:.1f}s)"
    )
    return Report("\n".join(lines) + "\n", [], ok)


# ---------------------------------------------------------------------------
# the flag tables


_IDENTITIES_RATE = (
    "Each sampled diagram row must lie within 3 standard errors of its closed form, so correct "
    "code sometimes exits 1: six rows vary per draw (tree SS and AS are exact), a nominal "
    "1 - 0.9973^6 = 1.6% per command (2.1% counting all eight). Measured at the defaults over "
    "seeds 0-999: 1.9% (18 row failures, one twirl max-entry failure; --seed 11 is one)."
)


def _common(samples: str) -> list[Flag]:
    return [
        Flag("--config", help="key=value config file; flags override it"),
        Flag("--seed", kind="int", lo=0, help="master seed (default: PLATEAU_SEED or 0)"),
        Flag("--samples", samples, "int", 2, "Monte-Carlo sample count", hi=MAX_SAMPLES),
        Flag("--out", help="write output to this path instead of stdout"),
    ]


_WORKERS = Flag("--workers", "1", "int", 1,
                "worker threads; the numbers do not depend on it, and on 2 CPUs 2 threads ran no faster than 1")
_VERIFY = Flag("--verify", False, "flag", help="re-run and require byte-identical numbers")
_TABLE_FORMAT = Flag("--format", "csv", "choice", choices=("csv", "json"))


class _Command(NamedTuple):
    run: Callable[[dict], Report]
    help: str
    flags: list[Flag]
    description: Optional[str] = None


_COMMANDS = {
    "identities": _Command(run_identities, "pairing-value identity checks", _common("20000") + [
        Flag("--which", "all", "choice", choices=("twirl", "tree", "otree", "all")),
        Flag("--D", "2", "int", 2, "bond dimension"),
        Flag("--d", "2", "int", 1, "physical dimension"),
        Flag("--format", "text", "choice", choices=("text", "json")),
    ], description=_IDENTITIES_RATE),
    "variance": _Command(run_variance, "empirical vs analytic gradient variance", _common("10000") + [
        Flag("--case", "onsite-both", "choice", choices=tuple(c.value for c in VarianceCase)),
        Flag("--cost", "fixed", "choice", choices=("fixed", "xeb", "xent")),
        Flag("--O", "Z", help="observable: Z, p0, X, I, diag:a,b.., gue:SEED", key="o"),
        Flag("--n", "2:6", "range", 2, "site count N or range LO:HI"),
        Flag("--D", "2", "int", 1, "bond dimension"),
        Flag("--d", "2", "int", 2, "physical dimension"),
        Flag("--delta", "1", "int", 1, "derivative-to-observable distance (off-site cases)"),
        Flag("--generator", "gue:0", help="gue:SEED, pauli:XY.., zero"),
        Flag("--partner-ensemble", "haar", "choice", choices=("haar", "pauli")),
        Flag("--const-samples", "10000", "int", 2, "samples for constant estimates", hi=MAX_SAMPLES),
        _WORKERS,
        _TABLE_FORMAT,
        _VERIFY,
    ]),
    "haar-epsilon": _Command(run_haar_epsilon, "Haar-averaged epsilon of target-derived costs", _common("5000") + [
        Flag("--cost", "xeb", "choice", choices=("xeb", "xent")),
        Flag("--n", "1:6", "range", 1, "qubit count N or range LO:HI"),
        _WORKERS,
        _TABLE_FORMAT,
        _VERIFY,
    ]),
    "circuit": _Command(run_circuit, "layered-circuit gradient checks", _common("10000") + [
        Flag("--layout", "brick", "choice", choices=("brick", "fullsingle", "file")),
        Flag("--layout-file"),
        Flag("--qubits", "4", "int", 1, "qubit count (brick/fullsingle)"),
        Flag("--layers", "2", "int", 1, "brick layer count"),
        Flag("--deriv-layer", "0", "int", help="gate index carrying the derivative"),
        Flag("--obs-layer", kind="int", help="gate index covering the observable"),
        Flag("--obs-qubits", kind="qubits", lo=0, help="observable qubits, e.g. 0 or 0,1"),
        Flag("--obs-seed", "11", "int", 0, "seed for the random test observable"),
        Flag("--generator", "gue:0", help="derivative generator: gue:SEED, pauli:XY.., zero"),
        _WORKERS,
    ]),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="plateau", description=__doc__.split("\n\n")[0])
    p.add_argument("--version", action="version", version=f"plateau {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, description=command.description)
        for f in command.flags:
            if f.kind == "flag":
                sp.add_argument(f.name, dest=f.key, action="store_true", default=None, help=f.help)
            else:
                sp.add_argument(f.name, dest=f.key, choices=f.choices or None, help=f.help)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        cfg = _resolve(args, command.flags)
        values = {f.key: _parse(f, cfg.get(f.key)) for f in command.flags}
        _check_out(values["out"])
        started = time.perf_counter()
        report = command.run(values)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if values.get("verify"):
        if command.run(values).text != report.text:
            print("verification failed: re-run differs", file=sys.stderr)
            return 1
        print("verification ok: re-run byte-identical", file=sys.stderr)
    text = report.text
    if values.get("format") == "json":
        text = _run_record(cfg, values["seed"], report.points, started)
    _write_output(text, values["out"])
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
