"""The `modules` report, written from census rows, against the report built
as a dict per entry and encoded by the standard library's indenting
encoder, byte for byte: a Case A report against `scans.modules_report`, a
Case B report against `scans.case_b_report`."""

import contextlib
import io
import json
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scans import case_b_report, modules_report

from parafusion import cli, u0, ud
from parafusion.codes import Classification, all_codes, enumerate_code
from parafusion.ud import orbits

REFERENCE = json.JSONEncoder(indent=2, sort_keys=True)


def _source(code) -> str:
    gens = [list(g.entries) for g in code.generators]
    return json.dumps({"k": code.k, "length": code.length, "generators": gens})


def _check(code, chi=None, induce=False) -> None:
    source = _source(code)
    argv = ["modules", "--code", source] + (["--chi", chi] if chi else []) \
        + (["--induce"] if induce else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    assert status == 0 and err.getvalue() == ""
    if code.classification is Classification.CASE_B:
        expected = case_b_report(source)
    else:
        expected = modules_report(source, chi, induce)
    assert out.getvalue() == REFERENCE.encode(expected) + "\n"


# every (k, ell) with k = 2..7, ell <= 3 and at most 2^16 labels
SHAPES = [(k, ell) for k in range(2, 8) for ell in range(1, 4) if k ** (2 * ell) <= 2 ** 16]


@st.composite
def case_a_codes(draw):
    """A Case A code: each generator even, and pairing integrally with every
    earlier one."""
    k, ell = draw(st.sampled_from(SHAPES))
    n, gens = 2 * k, []
    for _ in range(draw(st.integers(1, 3))):
        pool = [v for v in product(range(n), repeat=ell)
                if (k - 1) * sum(a * a for a in v) % (2 * n) == 0
                and all((k - 1) * sum(map(int.__mul__, v, g)) % n == 0 for g in gens)]
        gens.append(draw(st.sampled_from(pool)))
    code = enumerate_code(k, ell, gens)
    assert code.classification is Classification.CASE_A
    return code


@settings(max_examples=25, deadline=None)
@given(code=case_a_codes(), mode=st.sampled_from(["plain", "chi", "induce"]), data=st.data())
def test_modules_report_matches_the_reference(code, mode, data):
    chi = None
    if mode == "chi":
        eta = data.draw(st.lists(st.integers(0, 2 * code.k - 1),
                                 min_size=code.length, max_size=code.length))
        chi = ",".join(map(str, eta))
    _check(code, chi, mode == "induce")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_every_small_case_a_report_matches_the_reference(k):
    checked = 0
    for code in all_codes(k, 2):
        if code.classification is not Classification.CASE_A:
            continue
        _check(code)
        _check(code, induce=True)
        for chi in {o.character for o in orbits(code)}:
            _check(code, ",".join(map(str, chi.eta)))
        checked += 1
    assert checked > 0


def _integral(k, v, g) -> bool:
    return (k - 1) * sum(map(int.__mul__, v, g)) % (2 * k) == 0


def _odd(k, v) -> bool:
    return (k - 1) * sum(a * a for a in v) // (2 * k) % 2 == 1


# the shapes of SHAPES with at most 2^12 labels that hold a Case B code: an
# odd vector pairing integrally with itself
CASE_B_SHAPES = [(k, ell) for k, ell in SHAPES if k ** (2 * ell) <= 2 ** 12
                 and any(_integral(k, v, v) and _odd(k, v)
                         for v in product(range(2 * k), repeat=ell))]


@st.composite
def case_b_codes(draw):
    """A Case B code: an odd first generator, and each generator pairing
    integrally with itself and with every earlier one."""
    k, ell = draw(st.sampled_from(CASE_B_SHAPES))
    pool = [v for v in product(range(2 * k), repeat=ell) if _integral(k, v, v)]
    gens = [draw(st.sampled_from([v for v in pool if _odd(k, v)]))]
    for _ in range(draw(st.integers(0, 2))):
        gens.append(draw(st.sampled_from([v for v in pool
                                          if all(_integral(k, v, g) for g in gens)])))
    code = enumerate_code(k, ell, gens)
    assert code.classification is Classification.CASE_B
    return code


@settings(max_examples=25, deadline=None)
@given(code=case_b_codes())
def test_case_b_report_matches_the_reference(code):
    _check(code)


def test_every_small_case_b_report_matches_the_reference():
    # every Case B code of all_codes(k, ell), k = 2..5, ell <= 3, at most 2^12 labels
    checked = 0
    for k, ell in SHAPES:
        if k <= 5 and k ** (2 * ell) <= 2 ** 12:
            for code in all_codes(k, ell):
                if code.classification is Classification.CASE_B:
                    _check(code)
                    checked += 1
    assert checked == 110


_COUNTED = ("all_u0_labels",)


@pytest.mark.parametrize("flags", [[], ["--chi", "1,2,0"], ["--induce"], "case-b"])
def test_a_modules_request_builds_each_class_table_once(monkeypatch, capsys, flags):
    # the class table is built once, however many layers ask for it by k, and
    # no class is a U0Label on the way to the report (the label list is
    # counted wherever a program module binds it); the weights mod 1 are a
    # field of the class table
    calls = dict.fromkeys(_COUNTED, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in _COUNTED:
        fn = getattr(u0, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "") or "").startswith("parafusion") \
                    and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    if flags == "case-b":
        argv = ["modules", "--code", json.dumps({"k": 3, "length": 2, "generators": [[3, 0]]})]
    else:
        code = {"k": 3, "length": 3, "generators": [[3, 3, 0], [0, 3, 3]]}
        argv = ["modules", "--code", json.dumps(code)] + flags
    u0.class_index.cache_clear()
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"]
    assert u0.class_index.cache_info().misses == 1
    assert calls == {"all_u0_labels": 0}


def test_a_failure_while_the_report_is_written_exits_2(monkeypatch, capsys):
    # an induced module is computed as its entry is written: with every
    # isotropic part empty, the stabilized orbits of k = 3 induce no square
    monkeypatch.setattr(ud, "_isotropic_part", lambda code, stab: ())
    code = json.dumps({"k": 3, "length": 2, "generators": [[3, 3]]})
    assert cli.main(["modules", "--code", code, "--induce"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: stabilizer order 2 is not a square times the summand count 0\n"
    assert cli.main(["modules", "--code", code]) == 0


def test_a_case_b_report_is_written_before_its_last_entry_is_read(monkeypatch, capsys):
    # 729 entries, far more than the WRITE_PIECES pieces one write joins: the
    # first entries are out before the row source computes the last row's
    # decomposition
    code = json.dumps({"k": 3, "length": 3, "generators": [[3, 0, 0]]})
    rows = list(ud.case_b_inventory(cli.load_code(code))[2])
    assert sum(row.summand_count for row in rows) > 2 * cli.WRITE_PIECES
    last = rows[-1].orbit.least
    members = ud.orbit_members

    def last_raises(code, row, *args):
        if row.least == last:
            raise ValueError("the last row's decomposition was computed")
        return members(code, row, *args)

    monkeypatch.setattr(ud, "orbit_members", last_raises)
    assert cli.main(["modules", "--code", code]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the last row's decomposition was computed\n"
    assert captured.out.count('"orbit_representative"') > cli.WRITE_PIECES
    assert captured.out.startswith('{\n  "command": "modules"')
