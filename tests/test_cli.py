"""End-to-end command checks; heavier statistical paths run at small scale."""

import csv
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from plateau import cli


def run_cli(*args, env_extra=None, timeout=180):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "plateau.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.strip()


def test_identities_default_passes():
    r = run_cli("identities")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "all checks passed" in r.stdout
    assert "tree SS exact" in r.stdout


def test_identities_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "diagram_exact", lambda *a, **k: 123.0)
    rc = cli.main(["identities", "--samples", "200"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_variance_csv_shape(tmp_path):
    out = tmp_path / "var.csv"
    r = run_cli(
        "variance", "--case", "onsite-both", "--n", "2:3",
        "--samples", "600", "--const-samples", "600", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    raw = out.read_bytes()
    assert b"\r\n" in raw  # proper CSV line endings
    rows = list(csv.DictReader(raw.decode().splitlines()))
    assert [row["n"] for row in rows] == ["2", "3"]
    assert set(rows[0]) == {
        "n", "var_emp", "stderr", "var_analytic", "epsilon_mean", "samples", "seed"
    }
    # numbers round-trip at full precision
    v = rows[0]["var_emp"]
    assert format(float(v), ".17g") == v


def test_variance_json_structure():
    r = run_cli(
        "variance", "--case", "onsite-plus", "--n", "2", "--samples", "500",
        "--const-samples", "500", "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert set(doc) == {"config", "points", "seed", "version", "wall_time_s"}
    assert doc["points"][0]["n"] == 2


def test_verify_flag_reproduces():
    r = run_cli(
        "variance", "--case", "onsite-both", "--n", "2", "--samples", "400",
        "--const-samples", "400", "--verify",
    )
    assert r.returncode == 0, r.stderr


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=444\nconst-samples=400\ncase=onsite-both\nn=2\n")
    r = run_cli("variance", "--config", str(cfg))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[1].split(",")[5] == "444"
    r2 = run_cli("variance", "--config", str(cfg), "--samples", "500")
    assert r2.stdout.splitlines()[1].split(",")[5] == "500"


def test_env_seed_default():
    r = run_cli(
        "variance", "--case", "onsite-both", "--n", "2", "--samples", "400",
        "--const-samples", "400", env_extra={"PLATEAU_SEED": "77"},
    )
    assert r.returncode == 0
    assert r.stdout.splitlines()[1].rstrip().split(",")[6] == "77"


def test_haar_epsilon_csv():
    r = run_cli("haar-epsilon", "--cost", "xeb", "--n", "1:2", "--samples", "500")
    assert r.returncode == 0, r.stderr
    header = r.stdout.splitlines()[0].rstrip()
    assert header == "n,epsilon_mc,stderr,epsilon_closed,trace_oe_sq_mc,clamp_count"


def test_circuit_with_layout_file(tmp_path):
    layout = tmp_path / "ring.layout"
    layout.write_text("qubits 4\n0 1\n2 3\n1 2\n")
    r = run_cli("circuit", "--layout", "file", "--layout-file", str(layout), "--samples", "500")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "checks passed" in r.stdout


def test_bad_inputs_exit_two(tmp_path):
    assert run_cli(
        "variance", "--O", "bogus:x", "--n", "2", "--samples", "100",
        "--const-samples", "100",
    ).returncode == 2
    assert run_cli(
        "variance", "--case", "offsite-plus", "--n", "3", "--delta", "2",
        "--samples", "100", "--const-samples", "100",
    ).returncode == 2
    bad = tmp_path / "bad.layout"
    bad.write_text("qubits 4\n0 1\nnot a gate\n")
    assert run_cli(
        "circuit", "--layout", "file", "--layout-file", str(bad), "--samples", "100"
    ).returncode == 2
    assert run_cli("variance", "--unknown-flag").returncode == 2
    r = run_cli("variance", "--O", "diag:1,x", "--n", "2", "--samples", "100", "--const-samples", "100")
    assert r.returncode == 2
    assert "--O" in r.stderr
    r = run_cli("circuit", "--obs-qubits", "x", "--samples", "100")
    assert r.returncode == 2
    assert "--obs-qubits" in r.stderr
    for flag, spec in (("--O", "gue:x"), ("--O", "bogus:x"), ("--generator", "gue:x"), ("--generator", "pauli:Q"),
                       ("--O", "diag:1,nan")):
        r = run_cli("variance", flag, spec, "--n", "2", "--samples", "100", "--const-samples", "100")
        assert r.returncode == 2
        assert flag in r.stderr
    # layout files: each error names path:line
    for k, (text, line) in enumerate((
        ("qubits 2\n0 1\nqubits\n", 3),
        ("qubitsX 3\n0 1\n", 1),
        ("# ring\nqubits 2\n0 1\n0 5\n", 4),
        ("qubits 3\n1 1\n", 2),
    )):
        layout = tmp_path / f"bad{k}.layout"
        layout.write_text(text)
        r = run_cli("circuit", "--layout", "file", "--layout-file", str(layout), "--samples", "100")
        assert r.returncode == 2
        assert f"{layout}:{line}:" in r.stderr
    # layer and seed flags are named with their dashes, with the valid range
    r = run_cli("circuit", "--obs-layer", "9", "--samples", "100")
    assert r.returncode == 2
    assert "--obs-layer 9" in r.stderr and "0..3" in r.stderr
    r = run_cli("circuit", "--deriv-layer", "-1", "--samples", "100")
    assert r.returncode == 2
    assert "--deriv-layer -1" in r.stderr and "0..3" in r.stderr
    for flag in ("--obs-layer", "--deriv-layer", "--obs-seed"):
        r = run_cli("circuit", flag, "x", "--samples", "100")
        assert r.returncode == 2
        assert f"{flag} must be an integer" in r.stderr
    # negative seeds inside specs are caught before numpy sees them
    for command, flag, spec in (("variance", "--O", "gue:-1"), ("variance", "--generator", "gue:-1"),
                                ("circuit", "--obs-seed", "-1")):
        r = run_cli(command, flag, spec, "--samples", "100")
        assert r.returncode == 2
        assert flag in r.stderr and "must be >= 0, got -1" in r.stderr


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("n=2\nsampels=10\n")
    r = run_cli("variance", "--config", str(cfg))
    assert r.returncode == 2
    assert "'sampels'" in r.stderr
    assert f"{cfg}:2" in r.stderr


def test_out_of_range_n_names_the_flag():
    r = run_cli("haar-epsilon", "--n", "0", "--samples", "100")
    assert r.returncode == 2
    assert "--n must be >= 1" in r.stderr


@pytest.mark.parametrize("command,line", [
    ("variance", "format=xml"),
    ("identities", "format=csv"),
    ("variance", "verify=1"),
])
def test_bad_config_choice_is_rejected(tmp_path, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"samples=100\n{line}\n")
    r = run_cli(command, "--config", str(cfg))
    assert r.returncode == 2
    assert f"{line.split('=')[0]} must be one of" in r.stderr
    assert f"{cfg}:2" in r.stderr


def test_config_verify_is_honoured(tmp_path):
    base = "samples=300\nconst-samples=300\ncase=onsite-both\nn=2\n"
    for value, said in (("true", True), ("false", False)):
        cfg = tmp_path / f"verify-{value}.cfg"
        cfg.write_text(base + f"verify={value}\n")
        r = run_cli("variance", "--config", str(cfg))
        assert r.returncode == 0, r.stderr
        assert ("verification ok" in r.stderr) is said


@pytest.mark.parametrize("argv,message", [
    (["identities", "--D", "1"], "--D must be >= 2, got 1"),
    (["circuit", "--qubits", "13"], "--qubits must be <= 12, got 13"),
    (["circuit", "--obs-qubits", "0,0"], "--obs-qubits (0, 0) repeats a qubit"),
    (["circuit", "--obs-qubits", ""], "--obs-qubits needs at least one qubit"),
    (["circuit", "--layout", "fullsingle", "--qubits", "3", "--obs-qubits", "5"],
     "--obs-qubits (5,) must sit inside gate 0's qubits (0, 1, 2)"),
    (["variance", "--cost", "xeb", "--d", "3"], "--d must be 2 for --cost xeb, got 3"),
    # malformed values that the other options leave unused are still rejected
    (["variance", "--case", "onsite-both", "--delta", "x"], "--delta must be an integer, got 'x'"),
    (["circuit", "--layout", "fullsingle", "--layers", "x"], "--layers must be an integer, got 'x'"),
    (["variance", "--cost", "xeb", "--O", "x"], "--O: unknown observable spec 'x'"),
    (["haar-epsilon", "--n", "1", "--samples", "10", "--out", "no-such-dir/x.csv"],
     "--out no-such-dir/x.csv: no such directory"),
    (["variance", "--case", "offsite-both", "--n", "3", "--delta", "5"],
     "--delta must satisfy 1 <= delta <= 2 for --case offsite-both at n=3, got 5"),
    (["variance", "--case", "offsite-plus", "--n", "3", "--delta", "2"],
     "--delta must satisfy 1 <= delta <= 1 for --case offsite-plus at n=3, got 2"),
    # a target-derived cost holds 2**n amplitudes per target: n is capped before any compute
    (["haar-epsilon", "--n", "40", "--samples", "4"], "--n must be <= 12 for a target-derived cost, got 40"),
    (["variance", "--cost", "xent", "--n", "2:13"], "--n must be <= 12 for a target-derived cost, got 13"),
])
def test_bad_input_is_named(capsys, argv, message):
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


def test_out_is_checked_before_compute_and_kept_on_exit_two(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(cli, "haar_avg_epsilon_mc", never)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert cli.main(["haar-epsilon", "--out", str(out)]) == 2
        assert f"--out {out}:" in capsys.readouterr().err
    # a run that exits 2 later neither truncates nor creates its --out file
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("keep\n")
    for out in (kept, new):
        assert cli.main(["variance", "--case", "offsite-both", "--n", "3", "--delta", "5", "--out", str(out)]) == 2
    assert kept.read_text() == "keep\n"
    assert not new.exists()


def test_layout_file_errors_name_the_line(tmp_path, capsys):
    big = tmp_path / "big.layout"
    big.write_text("# too wide\nqubits 13\n0 1\n")
    assert cli.main(["circuit", "--layout", "file", "--layout-file", str(big)]) == 2
    assert f"{big}:2: qubits must be <= 12, got 13" in capsys.readouterr().err
    # a layout file is read even when --layout does not use it
    bad = tmp_path / "bad.layout"
    bad.write_text("qubits 4\n0 1\nnot a gate\n")
    assert cli.main(["circuit", "--layout", "brick", "--layout-file", str(bad)]) == 2
    assert f"{bad}:3: malformed gate support" in capsys.readouterr().err


def test_internal_error_is_not_a_config_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "diagram_mc", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["identities", "--samples", "200"])


_NUMERIC_FLAGS = [
    (name, flag) for name, command in cli._COMMANDS.items() for flag in command.flags
    if flag.kind in ("int", "range", "qubits")
]


@pytest.mark.parametrize("command,flag", _NUMERIC_FLAGS, ids=[f"{c} {f.name}" for c, f in _NUMERIC_FLAGS])
@given(raw=st.one_of(
    st.text(),
    st.integers().map(str),
    st.from_regex(r"\s*[+-]?\d{1,4}\s*(:\s*[+-]?\d{1,12}\s*)?", fullmatch=True),
    st.from_regex(r"[+-]?\d{1,3}([, ]+[+-]?\d{1,3}){0,4},?", fullmatch=True),
))
@settings(max_examples=150, deadline=None)
def test_numeric_flags_parse_within_bounds_or_name_the_flag(command, flag, raw):
    try:
        value = cli._parse(flag, raw)
    except cli.ConfigError as exc:
        assert flag.name in str(exc)
        return
    if flag.kind == "int":
        assert isinstance(value, int)
        low = value
    elif flag.kind == "range":
        assert len(value) >= 1 and value.step == 1
        low = value[0]
    else:
        assert len(value) >= 1 and all(isinstance(q, int) for q in value)
        low = min(value)
    assert flag.lo is None or low >= flag.lo
