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


def _streamed(value) -> str:
    return "".join(cli._stream(value))


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_writer_matches_the_indenting_encoder(tree):
    expected = REFERENCE.encode(tree)
    assert cli._render(tree, "") == expected
    assert _streamed(tree) == expected


class _Listed(list):
    """A list the tests write through a `_Listing`: its items are the rows,
    each a nonempty list of the elements that row's entry writes."""


_listed_trees = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_text, inner, max_size=4)
                   | st.lists(st.lists(inner, min_size=1, max_size=3), max_size=3).map(_Listed)),
    max_leaves=30,
)


def _plain(tree):
    """The tree as the encoder sees it: each listing the list of its elements."""
    if isinstance(tree, _Listed):
        return [_plain(v) for row in tree for v in row]
    if isinstance(tree, list):
        return [_plain(v) for v in tree]
    if isinstance(tree, dict):
        return {key: _plain(v) for key, v in tree.items()}
    return tree


def _listings(tree):
    """The tree with each listing a `_Listing` whose rows are read once."""
    if isinstance(tree, _Listed):
        def entry(row, indent):
            return (",\n" + indent).join(cli._render(v, indent) for v in row)

        return cli._Listing(iter([[_listings(v) for v in row] for row in tree]), entry)
    if isinstance(tree, list):
        return [_listings(v) for v in tree]
    if isinstance(tree, dict):
        return {key: _listings(v) for key, v in tree.items()}
    return tree


@settings(max_examples=300, deadline=None)
@given(_listed_trees)
def test_writer_writes_listings_at_any_depth(tree):
    # the tree itself, and as the one row of a listing, in a list and in a dict
    for value in (tree, _Listed([[tree]]), [tree], {"x": tree}):
        expected = REFERENCE.encode(_plain(value))
        assert cli._render(_listings(value), "") == expected
        assert _streamed(_listings(value)) == expected


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
        assert _streamed(tree(listed)) == expected


def test_writer_writes_each_row_of_a_listing_as_one_piece():
    def entry(row, indent):
        return (",\n" + indent).join(map(str, row))

    pieces = list(cli._stream(cli._Listing(iter([[1], [2, 3], [4]]), entry), "  "))
    assert pieces == ["[\n    1", ",\n    2,\n    3", ",\n    4", "\n  ]"]


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


def _written(monkeypatch, argv) -> tuple[str, list[str]]:
    """The report `cli.main(argv)` writes, and its writes one by one."""
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert cli.main(argv) == 0
    return "".join(recorder.writes), recorder.writes


def test_census_report_is_written_in_bounded_pieces(monkeypatch):
    code = json.dumps({"k": 5, "length": 2, "generators": [[5, 5]]})
    report, writes = _written(monkeypatch, ["modules", "--code", code])
    assert json.loads(report)["results"]["orbit_count"] == 325
    bound = 24 * 1024
    assert len(report) > 3 * bound
    assert max(map(len, writes)) <= bound


def test_verify_report_is_written_in_bounded_pieces(monkeypatch):
    # each check goes out piece by piece, not as one element of its list
    report, writes = _written(monkeypatch, ["verify", "--suite", "appendix-a", "--k", "101"])
    assert len(json.loads(report)["results"]["checks"]) == 100
    bound = 3 * 1024
    assert len(report) > 3 * bound
    assert max(map(len, writes)) <= bound


def test_classify_report_is_written_in_bounded_pieces(monkeypatch, tmp_path):
    # several hundred generators, each written piece by piece; the code is
    # read from a file, so the echoed parameter is short
    generators = [[(7 * g + 3 * j * j) % 10 for j in range(6)] for g in range(400)]
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 5, "length": 6, "generators": generators}))
    report, writes = _written(monkeypatch, ["classify", "--code", str(path)])
    assert len(json.loads(report)["results"]["generators"]) == 400
    bound = 4 * 1024
    assert len(report) > 3 * bound
    assert max(map(len, writes)) <= bound
