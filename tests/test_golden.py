"""Every invocation of the golden corpus (``tests/golden``) against its stored output.

Bitwise agreement holds only within one numpy/BLAS build.  When this
environment's fingerprint equals the stored one, stdout and stderr must be
byte-identical; otherwise every number must agree to 1e-12 relative and the
text around the numbers exactly.  The mode that ran is printed, and named in
every failure.  ``python tests/golden/corpus.py`` regenerates the corpus.
"""

import json
import math
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))
import corpus  # noqa: E402

with open(corpus.CORPUS, encoding="utf-8") as fh:
    STORED = json.load(fh)

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")
REL_TOL = 1e-12


@pytest.fixture(scope="module")
def mode():
    same = corpus.fingerprint() == STORED["fingerprint"]
    name = "bytes" if same else f"numbers at {REL_TOL:g} relative (fingerprint differs)"
    print(f"golden corpus: comparing {name}")
    return name


def numbers_agree(got: str, want: str) -> bool:
    # equal text between the numbers implies equally many numbers
    return NUMBER.split(got) == NUMBER.split(want) and all(
        a == b or math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0)
        for a, b in zip(NUMBER.findall(got), NUMBER.findall(want))
    )


def test_corpus_lists_every_case():
    assert [c["argv"] for c in STORED["cases"]] == corpus.CASES


@pytest.mark.parametrize("case", STORED["cases"], ids=[" ".join(c["argv"]) for c in STORED["cases"]])
def test_output_matches_corpus(case, mode, monkeypatch):
    for key, val in corpus.ENV.items():
        monkeypatch.setenv(key, val)
    monkeypatch.delenv("PLATEAU_SEED", raising=False)
    got = corpus.run(case["argv"])
    assert got["rc"] == case["rc"], mode
    for stream in ("stdout", "stderr"):
        if mode == "bytes":
            assert got[stream] == case[stream], f"{stream} differs ({mode})"
        else:
            assert numbers_agree(got[stream], case[stream]), f"{stream} differs ({mode})"


def test_number_mode_tolerates_last_place_only():
    want = '{"value": 0.12345678901234567, "n": 4}\nok (200 samples)\n'
    assert numbers_agree(want.replace("0.12345678901234567", "0.12345678901234569"), want)
    assert not numbers_agree(want.replace("0.12345678901234567", "0.12345678911234567"), want)
    assert not numbers_agree(want.replace('"n": 4', '"n": 5'), want)
    assert not numbers_agree(want.replace("ok", "FAILED"), want)
