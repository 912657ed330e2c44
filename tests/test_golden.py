"""Byte identity of `modules` reports against a committed golden corpus.

Each case is a CLI call; `tests/golden/<name>.json` holds its exact
standard output.  The corpus covers Case A codes at several k, a length-3
code, a character filter, induced-module reports at k = 1 and k = 3
(mod 4), including a multiplicity-two orbit under a character filter,
and two Case B codes.

Regenerate the corpus (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from parafusion.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _code(k, length, generators):
    return json.dumps({"k": k, "length": length, "generators": generators},
                      separators=(",", ":"))


CASES = {
    "case-a-k3": ["--code", _code(3, 2, [[3, 3]])],
    "case-a-k4": ["--code", _code(4, 2, [[4, 0], [0, 4]])],
    "case-a-k5": ["--code", _code(5, 2, [[5, 5], [2, 4]])],
    "case-a-k7": ["--code", _code(7, 2, [[7, 7]])],
    "case-a-k3-length3": ["--code", _code(3, 3, [[2, 2, 2], [3, 3, 0]])],
    "chi-k5": ["--code", _code(5, 2, [[5, 5], [2, 4]]), "--chi", "eta=1,3"],
    "chi-k4": ["--code", _code(4, 2, [[4, 0], [0, 4]]), "--chi", "3,6"],
    "induce-k5": ["--code", _code(5, 2, [[5, 5], [2, 4]]), "--induce"],
    "induce-k3": ["--code", _code(3, 2, [[3, 3]]), "--induce"],
    "induce-k3-multiplicity2": [
        "--code", _code(3, 3, [[3, 3, 0], [0, 3, 3]]), "--chi", "0,0,0", "--induce"],
    "case-b-k3": ["--code", _code(3, 2, [[3, 0], [0, 3]])],
    "case-b-k4": ["--code", _code(4, 2, [[2, 2]])],
}


def _run(capsys, name: str) -> str:
    status = main(["modules"] + CASES[name])
    captured = capsys.readouterr()
    assert status == 0 and captured.err == ""
    return captured.out


@pytest.mark.parametrize("name", sorted(CASES))
def test_modules_report_matches_golden(capsys, name):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert _run(capsys, name) == expected


def test_golden_corpus_has_no_strays():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, args in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(["modules"] + args) != 0:
                sys.exit(f"{name}: nonzero exit")
        (GOLDEN / f"{name}.json").write_text(out.getvalue())
        print(name, len(out.getvalue()), file=sys.stderr)
