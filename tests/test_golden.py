"""Byte identity of CLI reports against a committed golden corpus.

Each case is a full CLI argument list; `tests/golden/<name>.json` holds
its exact standard output.  The `modules` cases cover Case A codes at
several k, a length-3 code, a character filter, induced-module reports at
k = 1 and k = 3 (mod 4), including a multiplicity-two orbit under a
character filter, and two Case B codes.  The `classify` cases cover the
empty code, Case A, Case B at k = 3, 4 and 8, an Invalid code and a
length-5 code; the `verify` cases run every suite: counting, which
classifies every code of `all_codes`, at k = 2, 3, fusion-axioms at k = 2,
4, appendix-a and discriminant up to k = 8, and lattice-lemmas at k = 2
with seed 1 and at k = 8 with seed 5; the `fusion` cases fuse one pair at
k = 3, 4, 5.

Regenerate the corpus (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from parafusion import cli
from parafusion.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _code(k, length, generators):
    return json.dumps({"k": k, "length": length, "generators": generators},
                      separators=(",", ":"))


CASES = {
    "case-a-k3": ["modules", "--code", _code(3, 2, [[3, 3]])],
    "case-a-k4": ["modules", "--code", _code(4, 2, [[4, 0], [0, 4]])],
    "case-a-k5": ["modules", "--code", _code(5, 2, [[5, 5], [2, 4]])],
    "case-a-k7": ["modules", "--code", _code(7, 2, [[7, 7]])],
    "case-a-k3-length3": ["modules", "--code", _code(3, 3, [[2, 2, 2], [3, 3, 0]])],
    "chi-k5": ["modules", "--code", _code(5, 2, [[5, 5], [2, 4]]), "--chi", "eta=1,3"],
    "chi-k4": ["modules", "--code", _code(4, 2, [[4, 0], [0, 4]]), "--chi", "3,6"],
    "induce-k5": ["modules", "--code", _code(5, 2, [[5, 5], [2, 4]]), "--induce"],
    "induce-k3": ["modules", "--code", _code(3, 2, [[3, 3]]), "--induce"],
    "induce-k3-multiplicity2": [
        "modules", "--code", _code(3, 3, [[3, 3, 0], [0, 3, 3]]),
        "--chi", "0,0,0", "--induce"],
    "case-b-k3": ["modules", "--code", _code(3, 2, [[3, 0], [0, 3]])],
    "case-b-k4": ["modules", "--code", _code(4, 2, [[2, 2]])],
    "classify-empty": ["classify", "--code", _code(3, 2, [])],
    "classify-case-a-k3": ["classify", "--code", _code(3, 2, [[3, 3]])],
    "classify-case-b-k3": ["classify", "--code", _code(3, 1, [[3]])],
    "classify-case-b-k4": ["classify", "--code", _code(4, 2, [[2, 2]])],
    "classify-invalid-k3": ["classify", "--code", _code(3, 1, [[1]])],
    "classify-k3-length5": [
        "classify", "--code", _code(3, 5, [[3, 3, 0, 0, 0], [2, 2, 2, 0, 0], [0, 0, 3, 3, 3]])],
    "classify-case-b-k8-length4": [
        "classify", "--code", _code(8, 4, [[4, 4, 0, 0], [0, 4, 4, 4]])],
    "verify-counting-k2": ["verify", "--suite", "counting", "--k", "2"],
    "verify-counting-k3": ["verify", "--suite", "counting", "--k", "3"],
    "verify-fusion-axioms-k2": ["verify", "--suite", "fusion-axioms", "--k", "2"],
    "verify-fusion-axioms-k4": ["verify", "--suite", "fusion-axioms", "--k", "4"],
    "verify-appendix-a-k8": ["verify", "--suite", "appendix-a", "--k", "8"],
    "verify-lattice-lemmas-k2-seed1": [
        "verify", "--suite", "lattice-lemmas", "--k", "2", "--seed", "1"],
    "verify-lattice-lemmas-k8-seed5": [
        "verify", "--suite", "lattice-lemmas", "--k", "8", "--seed", "5"],
    "verify-discriminant-k8": ["verify", "--suite", "discriminant", "--k", "8"],
    "fusion-k3": ["fusion", "--k", "3", "--left", "1,1", "--right", "1,1"],
    "fusion-k4": ["fusion", "--k", "4", "--left", "2,2", "--right", "2,0"],
    "fusion-k5": ["fusion", "--k", "5", "--left", "2,2", "--right", "2,4"],
}


def _names(command: str) -> list[str]:
    return sorted(name for name, argv in CASES.items() if argv[0] == command)


def _check(capsys, name: str) -> None:
    status = main(CASES[name])
    captured = capsys.readouterr()
    assert status == 0 and captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", _names("modules"))
def test_modules_report_matches_golden(capsys, name):
    _check(capsys, name)


@pytest.mark.parametrize("name", _names("classify"))
def test_classify_report_matches_golden(capsys, name):
    _check(capsys, name)


@pytest.mark.parametrize("name", _names("verify"))
def test_verify_report_matches_golden(capsys, name):
    _check(capsys, name)


@pytest.mark.parametrize("name", _names("fusion"))
def test_fusion_report_matches_golden(capsys, name):
    _check(capsys, name)


def test_census_reports_build_no_orbit_members(monkeypatch, capsys):
    # a census lists each orbit by its least member: every plain and --chi
    # Case A report keeps its bytes when building an orbit's members fails,
    # and an --induce report, which lists the members, does fail
    def refuse(code, row, *args):
        raise AssertionError(f"built the members of {row.representative}")

    monkeypatch.setattr(cli, "orbit_members", refuse)
    names = [name for name in _names("modules")
             if name.startswith(("case-a", "chi")) and "--induce" not in CASES[name]]
    assert len(names) == 7
    for name in names:
        _check(capsys, name)
    with pytest.raises(AssertionError, match="^built the members of U"):
        main(CASES["induce-k3"])


def test_golden_corpus_has_no_strays():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(argv) != 0:
                sys.exit(f"{name}: nonzero exit")
        (GOLDEN / f"{name}.json").write_text(out.getvalue())
        print(name, len(out.getvalue()), file=sys.stderr)
