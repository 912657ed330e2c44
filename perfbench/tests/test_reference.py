"""The reference code on small cases checked by hand."""

from fractions import Fraction

import pytest

import reference as ref


def test_closure_of_small_codes():
    assert ref.closure(3, 1, [(3,)]) == {(0,), (3,)}
    assert ref.closure(3, 1, [(2,)]) == {(0,), (2,), (4,)}
    assert len(ref.closure(2, 2, [(1, 0), (0, 2)])) == 8
    assert ref.closure(3, 2, []) == {(0, 0)}
    assert ref.closure(3, 1, [(1,)], cap=5) is None


@pytest.mark.parametrize("k, length, gens, expected", [
    (3, 1, [(3,)], ref.CASE_B),                  # (k-1)9/2k = 3, odd
    (5, 1, [(5,)], ref.CASE_A),                  # 4*25/10 = 10, even
    (2, 2, [(2, 2)], ref.CASE_A),                # 1*8/4 = 2
    (3, 1, [(1,)], ref.INVALID),                 # 2/6 is no integer
    (3, 2, [], ref.CASE_A),                      # the zero code
    # every diagonal is an integer, but (x | y)/4 = 1/2 for the generators
    (2, 4, [(1, 1, 1, 1), (2, 0, 0, 0)], ref.INVALID),
])
def test_classify(k, length, gens, expected):
    assert ref.classify(k, ref.closure(k, length, gens), gens) == expected


def test_even_part_of_a_case_b_code():
    elements = ref.closure(3, 2, [(3, 0), (0, 3)])
    assert ref.even_part(3, elements) == {(0, 0), (3, 3)}


@pytest.mark.parametrize("k, length, gens, size", [
    (3, 1, [(3,)], 3),             # 3 eta = 0 mod 6: the even residues
    (2, 4, [(1, 1, 1, 1), (2, 0, 0, 0)], 32),
    (5, 2, [(5, 5)], 50),
])
def test_dual_size(k, length, gens, size):
    assert ref.dual_size(k, length, gens) == size
    assert size * len(ref.closure(k, length, gens)) == (2 * k) ** length


def test_weights():
    assert ref.euclidean_weight(3, (1, 5, 3)) == 1 + 1 + 9
    assert ref.weight_mod1(3, (3,)) == Fraction(1, 2)   # 2*9/12 = 3/2
    assert ref.weight_mod1(5, (5,)) == 0                # 4*25/20 = 5


def test_classes():
    assert ref.canonical_class(3, 2, 0) == (0, 3)
    assert ref.canonical_class(3, 1, 4) == (1, 1)       # self-paired row, l < k
    for k in range(2, 8):
        assert len(ref.all_classes(k)) == k * k
        for i in range(k):
            for l in range(2 * k):
                assert ref.label_eta(k, [(i, l)]) == ref.label_eta(k, [(k - 1 - i, l + k)])


def test_census_k5_length1():
    # D = {0, 5} in Z_10 maps U(i, l) to U(4-i, l): the five classes with
    # i = 2 are fixed, the other twenty pair up.
    elements = ref.closure(5, 1, [(5,)])
    orbits = ref.census(5, 1, elements, [(5,)])
    assert len(orbits) == 15
    assert orbits.count((1, 2, (0,))) == 5
    assert sum(size for size, _, _ in orbits) == 25
    # the character is (-1)^i: trivial on i = 0, 2 (ten orbits), not on i = 1
    assert sum(1 for _, _, key in orbits if key == (0,)) == 10


def test_census_of_the_zero_code():
    assert ref.census(2, 1, {(0,)}, []) == [(1, 1, ())] * 4
