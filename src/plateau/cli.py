"""Command-line front end.

    plateau identities     check the closed-form pairing values against
                           direct diagram contraction and Monte Carlo
    plateau variance       empirical vs analytic gradient variances
    plateau haar-epsilon   Haar averages of epsilon over target unitaries
    plateau circuit        layered-circuit zero-mean and Var/epsilon checks

Flags override an optional key=value config file (--config); the default
seed can also come from the PLATEAU_SEED environment variable.  CSV output
is RFC-4180 with 17 significant digits, so identical configs yield byte
identical files.  Exit codes: 0 ok, 1 check failed, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import time
import warnings
from typing import Callable, Optional

import numpy as np

from . import __version__
from .analytic import (
    CConstants,
    VarianceCase,
    VarianceQuery,
    c_constants_mc,
    variance_formula,
)
from .circuit import LayeredCircuit, brick_supports, circuit_variance_mc
from .costs import (
    ClampWarning,
    CostKind,
    epsilon,
    haar_avg_epsilon_mc,
    haar_avg_epsilon_xeb_closed,
    observable_xeb,
    observable_xent,
    trace_oe_sq_mc,
)
from .linalg import check_hermitian, gue_hermitian, haar_state, pauli_string
from .mc import EnsembleSpec, grad_variance_mps
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


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _as_int(x, name: str, lo: Optional[int] = None) -> int:
    try:
        v = int(str(x), 10)
    except ValueError as exc:
        raise ConfigError(f"{name} must be an integer, got {x!r}") from exc
    if lo is not None and v < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {v}")
    return v


def _parse_range(x, name: str, lo: int) -> list[int]:
    s = str(x)
    parts = s.split(":")
    out = None
    try:
        if len(parts) == 1:
            out = [int(parts[0])]
        elif len(parts) == 2:
            first, last = int(parts[0]), int(parts[1])
            if last >= first:
                out = list(range(first, last + 1))
    except ValueError:
        pass
    if out is None:
        raise ConfigError(f"{name} must be N or LO:HI, got {s!r}")
    if out[0] < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {s!r}")
    return out


def _parse_generator(spec: str, dim: int) -> np.ndarray:
    kind, _, arg = str(spec).partition(":")
    if kind == "zero":
        return np.zeros((dim, dim))
    if kind == "gue":
        seed = _as_int(arg or "0", "--generator gue seed")
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
    s = str(spec)
    named = {"Z": [1.0, -1.0], "p0": [1.0, 0.0], "I": None}
    if s in ("Z", "p0") and d == 2:
        return np.diag(named[s])
    if s == "I":
        return np.eye(d)
    if s == "X" and d == 2:
        return pauli_string("X")
    kind, _, arg = s.partition(":")
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
        rng = np.random.default_rng(np.random.SeedSequence(_as_int(arg or "0", "--O gue seed")))
        return gue_hermitian(d, rng)
    raise ConfigError(f"--O: unknown observable spec {spec!r} (use I, diag:A,B,.., gue:SEED, or Z, p0, X at d = 2)")


def _load_config(path: Optional[str], keys: set, choices: dict) -> dict:
    if not path:
        return {}
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
                if key not in keys:
                    raise ConfigError(f"{path}:{ln}: unknown key {key!r} (known: {', '.join(sorted(keys))})")
                val = val.strip()
                if key in choices and val not in choices[key]:
                    raise ConfigError(f"{path}:{ln}: {key} must be one of {'|'.join(choices[key])}, got {val!r}")
                out[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _resolve(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS[args.command])
    keys = set(vars(args)) - {"command", "config"}
    cfg.update(_load_config(getattr(args, "config", None), keys, _CHOICES[args.command]))
    if isinstance(cfg.get("verify"), str):
        cfg["verify"] = cfg["verify"] == "true"
    for key, val in vars(args).items():
        if key in ("config",) or val is None:
            continue
        cfg[key] = val
    if "seed" not in cfg or cfg["seed"] is None:
        cfg["seed"] = os.environ.get("PLATEAU_SEED", "0")
    return cfg


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    return buf.getvalue()


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_record(cfg: dict, points: list, started: float) -> str:
    echo = {k: (v if isinstance(v, (int, float, bool)) or v is None else str(v)) for k, v in sorted(cfg.items())}
    record = {
        "config": echo,
        "points": points,
        "seed": _as_int(cfg["seed"], "seed"),
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


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


def run_identities(cfg: dict) -> int:
    which = str(cfg["which"])
    D, d = _as_int(cfg["D"], "--D"), _as_int(cfg["d"], "--d", 1)
    if D < 2:
        raise ConfigError("diagram checks need D >= 2")
    samples = _as_int(cfg["samples"], "--samples", 2)
    seed = _as_int(cfg["seed"], "--seed", 0)
    started = time.perf_counter()
    rows = _identity_checks(which, D, d, samples, seed)
    ok = all(r[4] for r in rows)

    if str(cfg["format"]) == "json":
        points = [
            {"check": name, "value": val, "reference": ref, "tolerance": tol, "pass": good}
            for name, val, ref, tol, good in rows
        ]
        text = _run_record(cfg, points, started)
    else:
        lines = [f"{'check':28s} {'value':>24s} {'reference':>24s} {'tol':>12s} result"]
        for name, val, ref, tol, good in rows:
            lines.append(
                f"{name:28s} {_fmt(val):>24s} {_fmt(ref):>24s} {tol:>12.2e} "
                + ("pass" if good else "FAIL")
            )
        lines.append(f"{'all checks passed' if ok else 'FAILURES PRESENT'} (D={D}, d={d}, samples={samples})")
        text = "\n".join(lines) + "\n"
    _write_output(text, cfg.get("out"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# variance


def _variance_rows(cfg: dict) -> tuple[list[list], list[dict]]:
    case = VarianceCase(str(cfg["case"]))
    cost = str(cfg["cost"])
    D, d = _as_int(cfg["D"], "--D", 1), _as_int(cfg["d"], "--d", 2)
    if cost != "fixed" and d != 2:
        raise ConfigError("target-derived costs need d = 2")
    ns = _parse_range(cfg["n"], "--n", 2)
    samples = _as_int(cfg["samples"], "--samples", 2)
    const_samples = _as_int(cfg["const_samples"], "--const-samples", 2)
    seed = _as_int(cfg["seed"], "--seed", 0)
    workers = _as_int(cfg["workers"], "--workers", 1)
    delta = None if case.onsite else _as_int(cfg["delta"], "--delta")
    g = check_hermitian(_parse_generator(str(cfg["generator"]), D * d))
    partners = {"haar": EnsembleSpec.haar, "pauli": EnsembleSpec.pauli_group}
    partner = partners[str(cfg["partner_ensemble"])](D * d)

    for n in ns:
        if not case.onsite and not 1 <= (delta or 0) <= n - 1:
            raise ConfigError(f"off-site case needs 1 <= delta <= n-1 (n={n})")
        if case is VarianceCase.OFFSITE_PLUS and delta > n - 2:
            raise ConfigError(f"offsite-plus needs 1 <= delta <= n-2 (n={n})")
    if cost == "fixed":
        o = check_hermitian(_parse_observable(str(cfg["o"]), d))
        # the constants do not depend on n: one estimate serves the sweep
        cc = c_constants_mc(case, g, o, D, d, partner, const_samples, seed, workers)

    rows, points = [], []
    for n in ns:
        if cost == "fixed":
            vq = VarianceQuery(case, n, D, d, g, o, delta)
            analytic_val = variance_formula(vq, cc)
            eps_val, eps_prov, eps_se = epsilon(o, d), "analytic", None
            o_builder = o
        else:
            builder_kind = CostKind(cost)

            def o_builder(rng, _n=n, _k=builder_kind):
                vec = haar_state(2**_n, rng)
                if _k is CostKind.LINEAR_XEB:
                    return observable_xeb(vec, _n)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ClampWarning)
                    obs, clamped = observable_xent(vec, _n)
                return np.full((2, 2), np.nan) if clamped else obs

            cc, analytic_val = None, None
            eps_est = haar_avg_epsilon_mc(cost, n, samples, seed, workers)
            eps_val, eps_prov, eps_se = eps_est.mean, "empirical", eps_est.stderr_mean
        r = grad_variance_mps(case, n, D, d, delta, o_builder, g, {"partner": partner}, samples, seed, workers)
        rows.append([n, r.variance, r.stderr_variance, analytic_val, eps_val, samples, seed])
        point = {
            "n": n,
            "mean": _tagged(r.mean, "empirical", r.stderr_mean, r.samples),
            "var_emp": _tagged(r.variance, "empirical", r.stderr_variance, r.samples),
            "epsilon": _tagged(eps_val, eps_prov, eps_se),
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
    return rows, points


def _run_table(cfg: dict, header: list[str], make_rows: Callable[[dict], tuple[list, list]]) -> int:
    """Rows to CSV, optionally re-run and compared byte for byte, then
    written as CSV or as the JSON run record of the points."""
    started = time.perf_counter()
    rows, points = make_rows(cfg)
    csv_text = _csv_text(header, rows)
    if cfg["verify"]:
        if _csv_text(header, make_rows(cfg)[0]) != csv_text:
            print("verification failed: re-run differs", file=sys.stderr)
            return 1
        print("verification ok: re-run byte-identical", file=sys.stderr)
    text = _run_record(cfg, points, started) if str(cfg["format"]) == "json" else csv_text
    _write_output(text, cfg.get("out"))
    return 0


def run_variance(cfg: dict) -> int:
    header = ["n", "var_emp", "stderr", "var_analytic", "epsilon_mean", "samples", "seed"]
    return _run_table(cfg, header, _variance_rows)


# ---------------------------------------------------------------------------
# haar-epsilon


def _haar_epsilon_rows(cfg: dict) -> tuple[list[list], list[dict]]:
    cost = str(cfg["cost"])
    ns = _parse_range(cfg["n"], "--n", 1)
    samples = _as_int(cfg["samples"], "--samples", 2)
    seed = _as_int(cfg["seed"], "--seed", 0)
    workers = _as_int(cfg["workers"], "--workers", 1)
    rows, points = [], []
    for n in ns:
        r = haar_avg_epsilon_mc(cost, n, samples, seed, workers)
        closed = haar_avg_epsilon_xeb_closed(n) if cost == "xeb" else None
        tr = trace_oe_sq_mc(n, samples, seed, workers) if cost == "xent" else None
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
    return rows, points


def run_haar_epsilon(cfg: dict) -> int:
    header = ["n", "epsilon_mc", "stderr", "epsilon_closed", "trace_oe_sq_mc", "clamp_count"]
    return _run_table(cfg, header, _haar_epsilon_rows)


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


def run_circuit(cfg: dict) -> int:
    started = time.perf_counter()
    layout = str(cfg["layout"])
    samples = _as_int(cfg["samples"], "--samples", 2)
    seed = _as_int(cfg["seed"], "--seed", 0)
    workers = _as_int(cfg["workers"], "--workers", 1)
    if layout == "brick":
        n_qubits = _as_int(cfg["qubits"], "--qubits", 2)
        supports = list(brick_supports(n_qubits, _as_int(cfg["layers"], "--layers", 1)))
    elif layout == "fullsingle":
        n_qubits = _as_int(cfg["qubits"], "--qubits", 1)
        supports = [tuple(range(n_qubits))]
    else:
        if not cfg.get("layout_file"):
            raise ConfigError("--layout file needs --layout-file PATH")
        n_qubits, supports = _load_layout(str(cfg["layout_file"]))

    last = len(supports) - 1
    obs_layer = _as_int(cfg.get("obs_layer", last), "--obs-layer")
    deriv_layer = _as_int(cfg["deriv_layer"], "--deriv-layer")
    for flag, layer in (("--obs-layer", obs_layer), ("--deriv-layer", deriv_layer)):
        if not 0 <= layer <= last:
            raise ConfigError(f"{flag} {layer} is outside the gate indices 0..{last}")
    a = (
        tuple(_as_int(t, "--obs-qubits") for t in str(cfg["obs_qubits"]).replace(",", " ").split())
        if cfg.get("obs_qubits") is not None
        else (supports[obs_layer][0],)
    )
    d_a = 2 ** len(a)
    dim_k = 2 ** len(supports[deriv_layer])
    try:
        ident_gates = tuple(
            (np.eye(2 ** len(s), dtype=complex), s) for s in supports
        )
        template = LayeredCircuit(n_qubits, ident_gates, obs_layer)
        if not set(a) <= set(supports[obs_layer]):
            raise ConfigError("observable qubits must sit inside the observable layer")
    except (ValueError, IndexError) as exc:
        raise ConfigError(str(exc)) from exc
    v_k = check_hermitian(_parse_generator(str(cfg["generator"]), dim_k))

    obs_rng = np.random.default_rng(np.random.SeedSequence(_as_int(cfg["obs_seed"], "--obs-seed")))
    observables = [
        ("Z-string", np.diag([(-1.0) ** bin(x).count("1") for x in range(d_a)])),
        ("projector-0", np.diag([1.0] + [0.0] * (d_a - 1))),
        ("X-string", pauli_string("X" * len(a))),
        ("ramp-diag", np.diag(np.arange(d_a, dtype=float) * 2.0 - 1.0)),
        ("random-hermitian", gue_hermitian(d_a, obs_rng)),
    ]

    lines = [
        f"layout {layout}: {len(supports)} gates on {n_qubits} qubits, "
        f"derivative layer {deriv_layer}, observable qubits {a}",
        f"{'observable':18s} {'mean':>13s} {'3*se(mean)':>13s} {'variance':>13s} {'se(var)':>12s} {'var/eps':>12s}",
    ]
    ratios, zero_ok = [], True
    for name, o in observables:
        r = circuit_variance_mc(template, deriv_layer, v_k, o, a, "haar", samples, seed, workers)
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
    _write_output("\n".join(lines) + "\n", cfg.get("out"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


_DEFAULTS = {
    "identities": {"which": "all", "D": "2", "d": "2", "samples": "20000", "format": "text"},
    "variance": {
        "case": "onsite-both",
        "cost": "fixed",
        "o": "Z",
        "n": "2:6",
        "D": "2",
        "d": "2",
        "delta": "1",
        "generator": "gue:0",
        "partner_ensemble": "haar",
        "samples": "10000",
        "const_samples": "10000",
        "workers": "1",
        "format": "csv",
        "verify": False,
    },
    "haar-epsilon": {"cost": "xeb", "n": "1:6", "samples": "5000", "workers": "1", "format": "csv", "verify": False},
    "circuit": {
        "layout": "brick",
        "qubits": "4",
        "layers": "2",
        "deriv_layer": "0",
        "generator": "gue:0",
        "obs_seed": "11",
        "samples": "10000",
        "workers": "1",
    },
}

# choice-valued keys: the parser's choices for flags, and the check on config
# values (verify is a plain flag, so only its config value is checked here)
_CHOICES = {
    "identities": {"which": ("twirl", "tree", "otree", "all"), "format": ("text", "json")},
    "variance": {
        "case": tuple(c.value for c in VarianceCase),
        "cost": ("fixed", "xeb", "xent"),
        "partner_ensemble": ("haar", "pauli"),
        "format": ("csv", "json"),
        "verify": ("true", "false"),
    },
    "haar-epsilon": {"cost": ("xeb", "xent"), "format": ("csv", "json"), "verify": ("true", "false")},
    "circuit": {"layout": ("brick", "fullsingle", "file")},
}


_IDENTITIES_RATE = (
    "Each sampled diagram row must lie within 3 standard errors of its closed form, so correct "
    "code sometimes exits 1: six rows vary per draw (tree SS and AS are exact), a nominal "
    "1 - 0.9973^6 = 1.6% per command (2.1% counting all eight). Measured at the defaults over "
    "seeds 0-999: 1.9% (18 row failures, one twirl max-entry failure; --seed 11 is one)."
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="plateau", description=__doc__.split("\n\n")[0])
    p.add_argument("--version", action="version", version=f"plateau {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value config file; flags override it")
        sp.add_argument("--seed", help="master seed (default: PLATEAU_SEED or 0)")
        sp.add_argument("--samples", help="Monte-Carlo sample count")
        sp.add_argument("--out", help="write output to this path instead of stdout")

    sp = sub.add_parser("identities", help="pairing-value identity checks", description=_IDENTITIES_RATE)
    common(sp)
    choices = _CHOICES["identities"]
    sp.add_argument("--which", choices=choices["which"])
    sp.add_argument("--D", help="bond dimension")
    sp.add_argument("--d", help="physical dimension")
    sp.add_argument("--format", choices=choices["format"])

    sp = sub.add_parser("variance", help="empirical vs analytic gradient variance")
    common(sp)
    choices = _CHOICES["variance"]
    sp.add_argument("--case", choices=choices["case"])
    sp.add_argument("--cost", choices=choices["cost"])
    sp.add_argument("--O", dest="o", help="observable: Z, p0, X, I, diag:a,b.., gue:SEED")
    sp.add_argument("--n", help="site count N or range LO:HI")
    sp.add_argument("--D", help="bond dimension")
    sp.add_argument("--d", help="physical dimension")
    sp.add_argument("--delta", help="derivative-to-observable distance (off-site cases)")
    sp.add_argument("--generator", help="gue:SEED, pauli:XY.., zero")
    sp.add_argument("--partner-ensemble", dest="partner_ensemble", choices=choices["partner_ensemble"])
    sp.add_argument("--const-samples", dest="const_samples", help="samples for constant estimates")
    sp.add_argument("--workers", help="worker threads")
    sp.add_argument("--format", choices=choices["format"])
    sp.add_argument("--verify", action="store_true", default=None, help="re-run and require byte-identical numbers")

    sp = sub.add_parser("haar-epsilon", help="Haar-averaged epsilon of target-derived costs")
    common(sp)
    choices = _CHOICES["haar-epsilon"]
    sp.add_argument("--cost", choices=choices["cost"])
    sp.add_argument("--n", help="qubit count N or range LO:HI")
    sp.add_argument("--workers", help="worker threads")
    sp.add_argument("--format", choices=choices["format"])
    sp.add_argument("--verify", action="store_true", default=None, help="re-run and require byte-identical numbers")

    sp = sub.add_parser("circuit", help="layered-circuit gradient checks")
    common(sp)
    sp.add_argument("--layout", choices=_CHOICES["circuit"]["layout"])
    sp.add_argument("--layout-file", dest="layout_file")
    sp.add_argument("--qubits", help="qubit count (brick/fullsingle)")
    sp.add_argument("--layers", help="brick layer count")
    sp.add_argument("--deriv-layer", dest="deriv_layer", help="gate index carrying the derivative")
    sp.add_argument("--obs-layer", dest="obs_layer", help="gate index covering the observable")
    sp.add_argument("--obs-qubits", dest="obs_qubits", help="observable qubits, e.g. 0 or 0,1")
    sp.add_argument("--obs-seed", dest="obs_seed", help="seed for the random test observable")
    sp.add_argument("--generator", help="derivative generator: gue:SEED, pauli:XY.., zero")
    sp.add_argument("--workers", help="worker threads")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers: dict[str, Callable[[dict], int]] = {
        "identities": run_identities,
        "variance": run_variance,
        "haar-epsilon": run_haar_epsilon,
        "circuit": run_circuit,
    }
    try:
        return handlers[args.command](_resolve(args))
    except (ConfigError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
