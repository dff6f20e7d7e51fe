"""The golden CLI corpus: fixed invocations of ``plateau`` and their output.

    python tests/golden/corpus.py      (from the repository root)

regenerates ``corpus.json`` next to this file: every argv in ``CASES``, run
through ``plateau.cli.main`` in this process, with its stdout, stderr and
exit code, and the environment fingerprint of ``perfbench/child.py``
(``plateau`` is imported from this checkout's ``src``).  Only
the wall-time fields are stripped: the JSON ``wall_time_s`` field and the
text ``, wall N.Ns``.  ``tests/test_golden.py`` runs the same argv and
compares.  A change that alters a stored output lists the invocation and
the reason when it regenerates the corpus.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CORPUS = os.path.join(HERE, "corpus.json")
# argparse wraps help text at the terminal width
ENV = {"COLUMNS": "80"}


def _perfbench(name: str, seed: int) -> list[list[str]]:
    # perfbench/workloads.commands(name, seed, tiny=True), copied so that the
    # corpus does not move when the benchmark does
    serial = ["--seed", str(seed), "--workers", "1"]
    return {
        "mps-ring": [
            ["variance", "--cost", "xeb", "--case", "onsite-both", "--generator", "pauli:ZI",
             "--n", "4:10", "--samples", "20", "--format", "json", *serial],
            ["variance", "--case", "onsite-minus", "--O", "Z", "--generator", "gue:0", "--D", "3",
             "--d", "2", "--n", "2:6", "--samples", "20", "--const-samples", "20", "--format", "json", *serial],
        ],
        "haar-targets": [
            ["haar-epsilon", "--cost", "xeb", "--n", "1:6", "--samples", "50", "--format", "json", *serial],
            ["haar-epsilon", "--cost", "xent", "--n", "2:6", "--samples", "50", "--format", "json", *serial],
        ],
        "brick-circuit": [
            ["circuit", "--layout", "brick", "--qubits", "4", "--layers", "2", "--samples", "10", *serial],
            ["circuit", "--layout", "brick", "--qubits", "8", "--layers", "4", "--samples", "4", *serial],
        ],
        "twirl-batch": [
            ["identities", "--format", "json", "--D", "2", "--d", "2", "--samples", "64", "--seed", str(seed)],
            ["identities", "--format", "json", "--D", "3", "--d", "2", "--samples", "64", "--seed", str(seed)],
        ],
    }[name]


CASES = (
    [argv for name in ("mps-ring", "haar-targets", "brick-circuit", "twirl-batch")
     for seed in (0, 1) for argv in _perfbench(name, seed)]
    + [
        ["circuit", "--layout", "brick", "--qubits", "4", "--layers", "2", "--samples", "200", "--seed", "5"],
        ["circuit", "--layout", "brick", "--qubits", "8", "--layers", "4", "--samples", "100", "--seed", "0"],
        ["circuit", "--layout", "fullsingle", "--qubits", "3", "--samples", "200", "--seed", "2"],
        # a two-qubit observable: gate 1 of the 4x2 brick spans qubits 2 and 3
        ["circuit", "--qubits", "4", "--layers", "2", "--obs-qubits", "2,3", "--obs-layer", "1",
         "--samples", "150", "--seed", "3"],
        ["circuit", "--qubits", "4", "--layers", "2", "--samples", "100", "--seed", "4", "--workers", "3"],
    ]
    + [
        ["haar-epsilon", "--cost", cost, "--n", n, "--samples", "300", "--seed", "2", *extra]
        for cost, n in (("xeb", "1:4"), ("xent", "2:5"))
        for extra in ([], ["--workers", "2"], ["--format", "json"])
    ]
    + [
        ["haar-epsilon", "--cost", "xent", "--n", "2:3", "--samples", "100", "--seed", "6", "--verify"],
        # more than one chunk of stream seeds
        ["haar-epsilon", "--cost", "xent", "--n", "2", "--samples", "4200", "--seed", "8"],
    ]
    + [
        ["variance", "--case", case, "--n", n, "--samples", "200", "--const-samples", "300",
         "--seed", "3", "--format", "json", *extra]
        for case, n, extra in (
            ("onsite-minus", "2:4", []),
            ("onsite-plus", "2:4", []),
            ("offsite-plus", "3:5", ["--delta", "1"]),
            ("offsite-minus", "2:4", ["--delta", "1"]),
        )
    ]
    + [
        ["variance", "--case", "onsite-plus", "--n", "2:3", "--samples", "100", "--const-samples", "100",
         "--seed", "1"],
        ["variance", "--cost", "xent", "--n", "2:3", "--samples", "100", "--seed", "2", "--format", "json"],
    ]
    + [["--help"], ["--version"]]
    + [[cmd, "--help"] for cmd in ("identities", "variance", "haar-epsilon", "circuit")]
    + [
        ["identities", "--D", "1"],
        ["variance", "--case", "offsite-both", "--n", "3", "--delta", "5"],
        ["haar-epsilon", "--n", "13"],
        ["circuit", "--obs-layer", "9"],
        ["circuit", "--layout", "spiral"],
    ]
)


def strip_wall(text: str) -> str:
    """``text`` without its wall-time fields."""
    text = re.sub(r',\n *"wall_time_s": [0-9.eE+-]+(?=\n)', "", text)  # the last key
    text = re.sub(r'\n *"wall_time_s": [0-9.eE+-]+,(?=\n)', "", text)
    return re.sub(r", wall [0-9.]+s\)", ")", text)


def run(argv: list[str]) -> dict:
    """One invocation through ``plateau.cli.main``, as stored in the corpus."""
    from plateau import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return {"argv": list(argv), "stdout": strip_wall(out.getvalue()),
            "stderr": strip_wall(err.getvalue()), "rc": rc}


def fingerprint() -> dict:
    """perfbench's environment fingerprint without the BLAS install paths,
    which name a directory, not a build."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from child import fingerprint as perfbench_fingerprint
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    out = perfbench_fingerprint()
    if isinstance(out["blas"], dict):
        out["blas"] = {k: v for k, v in out["blas"].items() if not k.endswith("directory")}
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.update(ENV)
    os.environ.pop("PLATEAU_SEED", None)
    doc = {"fingerprint": fingerprint(), "cases": [run(argv) for argv in CASES]}
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(doc['cases'])} invocations to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
