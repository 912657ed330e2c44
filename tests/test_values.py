"""The value types on arith.Value against the frozen dataclasses they were
declared as (scans.DATACLASS_TWINS): equality, hash, ordering, repr and
refused assignment agree on drawn field values."""

import copy
from fractions import Fraction
from itertools import product
from operator import ge, gt, le, lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scans import DATACLASS_TWINS, dataclass_twin

from parafusion.arith import IntegerMatrix, ResidueVector
from parafusion.codes import Code, enumerate_code
from parafusion.lattice import CosetSpec, LatticeVector, nja_coset, ntilde_coset
from parafusion.parafermion import ParafermionLabel, TildeLabel
from parafusion.u0 import SummandLabel, U0Label
from parafusion.ud import (
    CharacterLabel,
    IrrU0Label,
    character_from_eta,
)
from parafusion.verify import CheckResult
from parafusion.virasoro import VirasoroLabel

small = st.integers(-7, 7)
levels = st.integers(2, 3)


def tuples(elements, min_size=1, max_size=2):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(tuple)


@st.composite
def codes(draw):
    # several presentations of one subgroup are equal codes
    k, length = draw(levels), draw(st.integers(1, 2))
    return enumerate_code(k, length, draw(st.lists(tuples(small, length, length), max_size=2)))


@st.composite
def integer_matrices(draw):
    width = draw(st.integers(1, 2))
    return IntegerMatrix(draw(tuples(tuples(small, width, width))))


@st.composite
def lattice_vectors(draw):
    k = draw(levels)
    return LatticeVector(k, [Fraction(n, 2 * k) for n in draw(tuples(small, k, k))])


@st.composite
def coset_specs(draw):
    k = draw(levels)
    return draw(st.one_of(
        st.builds(ntilde_coset, st.just(k), small),
        st.builds(nja_coset, st.just(k), small, tuples(st.integers(0, 1), k, k)),
        st.just(CosetSpec(k, "ntilde")),
    ))


def labels(cls, top, extra=1):
    """cls(k, i, *rest) with 0 <= i <= k + top and `extra` small integers."""
    return levels.flatmap(lambda k: st.builds(cls, st.just(k), st.integers(0, k + top),
                                              *[small] * extra))


@st.composite
def tilde_labels(draw):
    k = draw(levels)
    i = draw(st.integers(0, k))
    return TildeLabel(k, i, 2 * draw(small) + i)


@st.composite
def virasoro_labels(draw):
    m = draw(st.integers(1, 2))
    return VirasoroLabel(m, draw(st.integers(1, m + 1)), draw(st.integers(1, m + 2)))


@st.composite
def irr_labels(draw):
    k, length = draw(levels), draw(st.integers(1, 2))
    return IrrU0Label(k, draw(tuples(st.integers(0, k - 1), length, length)),
                      draw(tuples(small, length, length)))


@st.composite
def characters(draw):
    code = draw(codes())
    eta = draw(tuples(small, code.length, code.length))
    return draw(st.sampled_from([character_from_eta(code, eta), CharacterLabel(code, eta)]))


VALUES = {
    ResidueVector: st.builds(ResidueVector, st.integers(1, 4), tuples(small, 1, 3)),
    IntegerMatrix: integer_matrices(),
    Code: codes(),
    LatticeVector: lattice_vectors(),
    CosetSpec: coset_specs(),
    ParafermionLabel: labels(ParafermionLabel, 0),
    TildeLabel: tilde_labels(),
    U0Label: labels(U0Label, -1),
    SummandLabel: labels(SummandLabel, -1, extra=2),
    VirasoroLabel: virasoro_labels(),
    IrrU0Label: irr_labels(),
    CharacterLabel: characters(),
    CheckResult: st.builds(CheckResult, st.sampled_from(["a", "b"]), st.booleans(),
                           st.sampled_from(["", "x"])),
}


def test_every_value_type_has_a_twin_and_a_strategy():
    assert len(DATACLASS_TWINS) == 13
    assert VALUES.keys() == DATACLASS_TWINS.keys()


def _refusal(action, target, name):
    with pytest.raises(AttributeError) as refused:  # FrozenInstanceError is one
        action(target, name)
    return str(refused.value)


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_value_semantics_match_the_dataclass(cls, data):
    values = data.draw(st.lists(VALUES[cls], min_size=2, max_size=4))
    values.append(copy.copy(values[0]))
    twins = list(map(dataclass_twin, values))
    ordered = type(twins[0]).__dataclass_params__.order
    for v, t in zip(values, twins):
        assert type(v) is cls
        assert hash(v) == hash(t)
        assert repr(v) == repr(t)
        assert v != t and not v == t  # equality holds only within one class
        for name in [*vars(v), "other"]:
            for action in (lambda x, n: setattr(x, n, 0), delattr):
                assert _refusal(action, v, name) == _refusal(action, t, name)
    for (a, ta), (b, tb) in product(zip(values, twins), repeat=2):
        assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
        if ordered:
            assert [op(a, b) for op in (lt, le, gt, ge)] == [op(ta, tb) for op in (lt, le, gt, ge)]
        else:
            with pytest.raises(TypeError):
                a < b
    if ordered:
        indices = range(len(values))
        assert sorted(indices, key=values.__getitem__) == sorted(indices, key=twins.__getitem__)


def test_defaults_are_the_dataclass_defaults():
    spec, twin = CosetSpec(3, "ntilde"), DATACLASS_TWINS[CosetSpec](3, "ntilde")
    assert (spec.l, spec.j, spec.a) == (twin.l, twin.j, twin.a) == (0, 0, ())
    assert CheckResult("a", True).detail == DATACLASS_TWINS[CheckResult]("a", True).detail == ""
    assert CheckResult("a", True) == CheckResult("a", True, "")


def test_equality_and_order_hold_within_one_class():
    # equal field tuples in two classes, as for their twins
    u, p = U0Label(3, 1, 2), ParafermionLabel(3, 1, 2)
    tu, tp = dataclass_twin(u), dataclass_twin(p)
    assert (u == p, u != p, hash(u) == hash(p)) == (tu == tp, tu != tp, True) == (False, True, True)
    for a, b in ((u, p), (tu, tp)):
        with pytest.raises(TypeError):
            a < b
