"""The report writer against the standard library's indenting encoder.

`cli._render` and `cli._stream` must write every report byte for byte as
`json.JSONEncoder(indent=2, sort_keys=True)` does, which stays here as the
reference only.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafusion import cli

GOLDEN = Path(__file__).parent / "golden"
REFERENCE = json.JSONEncoder(indent=2, sort_keys=True)

_text = st.text(max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f", "é", "χ[1,3]", "\U0001d54c", "U(1,2)"])
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=10 ** 30, max_value=10 ** 60) | _text)
_trees = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(_text, max_size=4)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=30,
)


def _streamed(value, levels=cli.STREAMED_LEVELS) -> str:
    return "".join(cli._stream(value, "", levels))


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_writer_matches_the_indenting_encoder(tree):
    expected = REFERENCE.encode(tree)
    assert cli._render(tree, "") == expected
    for levels in range(5):
        assert _streamed(tree, levels) == expected


def test_writer_writes_empty_and_nested_containers():
    tree = {"a": [], "b": {}, "c": [[], [{}], ({"d": ()},)], "é": [None, True, False]}
    assert _streamed(tree) == cli._render(tree, "") == REFERENCE.encode(tree)


def test_writer_writes_a_listing_as_the_list_of_its_entries():
    # each entry is written by the listing's function, at the indent the
    # writer reached: "orbits" sits under "results", so its entries at 6
    def entry(row, indent):
        return cli._render({"row": row, "indent": len(indent)}, indent)

    rows = [[1, "a"], [], [None]]

    def tree(listed=list):
        return {"results": {"orbits": cli._Listing(listed(rows), entry),
                            "none": cli._Listing(listed([]), entry)}}

    expected = REFERENCE.encode(
        {"results": {"orbits": [{"row": r, "indent": 6} for r in rows], "none": []}})
    # rows held as a list, or read once from an iterator that has no length
    for listed in (list, iter):
        assert cli._render(tree(listed), "") == expected
        for levels in range(5):
            assert _streamed(tree(listed), levels) == expected


@pytest.mark.parametrize("bad", [0.5, {1, 2}, frozenset(), 1j, b"x"])
def test_writer_refuses_what_a_report_never_holds(bad):
    # reports are exact: rationals are strings, never floats
    for tree in (bad, [bad], {"results": {"orbits": [{"x": [bad]}]}}):
        with pytest.raises(TypeError):
            cli._render(tree, "")
        with pytest.raises(TypeError):
            _streamed(tree)


def test_writer_refuses_keys_that_are_not_strings():
    with pytest.raises(TypeError):
        _streamed({"results": {1: "one"}})


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_reports_are_the_indenting_encoders_bytes(path):
    text = path.read_text()
    report = json.loads(text)
    assert REFERENCE.encode(report) + "\n" == text
    assert _streamed(report) + "\n" == text


class _Recorder:
    def __init__(self):
        self.writes: list[str] = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_census_report_is_written_in_bounded_pieces(monkeypatch):
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    code = json.dumps({"k": 5, "length": 2, "generators": [[5, 5]]})
    assert cli.main(["modules", "--code", code]) == 0
    report = "".join(recorder.writes)
    assert json.loads(report)["results"]["orbit_count"] == 325
    bound = 24 * 1024
    assert len(report) > 3 * bound
    assert max(map(len, recorder.writes)) <= bound
