from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafusion.arith import (
    BUDGET,
    CodeTooLargeError,
    IntegerMatrix,
    ResidueVector,
    SingularMatrixError,
    _power_over,
    check_budget,
    mod1,
    smith_normal_form,
    standard_inner,
)

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


@pytest.mark.parametrize(
    "value, expected",
    [
        (Fraction(7, 3), Fraction(1, 3)),
        (Fraction(-1, 6), Fraction(5, 6)),
        (2, Fraction(0)),
        (Fraction(0), Fraction(0)),
        (Fraction(-7, 2), Fraction(1, 2)),
    ],
)
def test_mod1_examples(value, expected):
    assert mod1(value) == expected


@given(rationals)
def test_mod1_range_and_idempotence(q):
    r = mod1(q)
    assert 0 <= r < 1
    assert (q - r).denominator == 1
    assert mod1(r) == r


@given(rationals, rationals)
def test_mod1_additive_modulo_integers(a, b):
    assert mod1(a + b) == mod1(mod1(a) + mod1(b))


@pytest.mark.parametrize(
    "n, xi, eta, expected",
    [
        (4, (2, 2), (1, 1), 0),
        (6, (3, 3), (3, 3), 0),
        (5, (1, 2, 3), (0, 0, 0), 0),
        (6, (1, 2), (3, 4), 5),
    ],
)
def test_standard_inner_examples(n, xi, eta, expected):
    assert standard_inner(ResidueVector(n, xi), ResidueVector(n, eta)) == expected


small_vectors = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-30, 30), min_size=1, max_size=5),
        st.lists(st.integers(-30, 30), min_size=1, max_size=5),
        st.lists(st.integers(-30, 30), min_size=1, max_size=5),
        st.integers(-5, 5),
    )
)


@given(small_vectors)
def test_standard_inner_symmetric_and_bilinear(data):
    n, xs, ys, zs, c = data
    length = min(len(xs), len(ys), len(zs))
    xi = ResidueVector(n, tuple(xs[:length]))
    eta = ResidueVector(n, tuple(ys[:length]))
    zeta = ResidueVector(n, tuple(zs[:length]))
    assert standard_inner(xi, eta) == standard_inner(eta, xi)
    assert standard_inner(xi + zeta, eta) == (
        standard_inner(xi, eta) + standard_inner(zeta, eta)
    ) % n
    assert standard_inner(xi.scaled(c), eta) == (c * standard_inner(xi, eta)) % n


def test_standard_inner_shape_mismatch():
    with pytest.raises(ValueError):
        standard_inner(ResidueVector(4, (1,)), ResidueVector(6, (1,)))
    with pytest.raises(ValueError):
        standard_inner(ResidueVector(4, (1,)), ResidueVector(4, (1, 2)))


def test_residue_vector_reduces_entries():
    v = ResidueVector(5, (-1, 7, 5))
    assert v.entries == (4, 2, 0)
    assert (-v).entries == (1, 3, 0)
    assert ResidueVector.zero(5, 3).is_zero()


def test_residue_vector_validation():
    with pytest.raises(ValueError):
        ResidueVector(0, (1,))
    with pytest.raises(ValueError):
        ResidueVector(4, ())


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[4]], (4,)),
        ([[4, -2], [-2, 4]], (2, 6)),
        ([[4, -2, 0], [-2, 4, -2], [0, -2, 4]], (2, 2, 8)),
        ([[1, 0], [0, 1]], (1, 1)),
        ([[2, 4], [6, 8]], (2, 4)),
    ],
)
def test_snf_examples(rows, expected):
    assert smith_normal_form(rows) == expected
    assert smith_normal_form(IntegerMatrix(tuple(map(tuple, rows)))) == expected


def test_snf_rejects_singular_and_nonsquare():
    with pytest.raises(SingularMatrixError):
        smith_normal_form([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        smith_normal_form([[0]])
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2, 3], [4, 5, 6]])


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_cofactor(minor)
    return total


square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=150)
@given(square_matrices)
def test_snf_divisor_chain_and_determinant(rows):
    det = _det_cofactor(rows)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            smith_normal_form(rows)
        return
    divisors = smith_normal_form(rows)
    assert all(d > 0 for d in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0
    product = 1
    for d in divisors:
        product *= d
    assert product == abs(det)


def test_integer_matrix_validation():
    with pytest.raises(ValueError):
        IntegerMatrix(((1, 2), (3,)))
    m = IntegerMatrix(((1, 2, 3), (4, 5, 6)))
    assert m.rows == 2 and m.cols == 3


@given(st.integers(2, 50), st.integers(0, 64), st.integers(1, 2**40))
def test_power_over_decides_the_power(base, exponent, bound):
    power = base ** exponent
    assert _power_over(base, exponent, bound) == (None if power <= bound else str(power))


def test_check_budget_admits_the_budget_and_refuses_past_it():
    assert BUDGET == 2**20
    check_budget("code", 2**20)
    check_budget("label space", 2, 20)
    with pytest.raises(CodeTooLargeError) as refused:
        check_budget("code", 2**20 + 1)
    assert str(refused.value) == "code of size 1048577 exceeds the budget 1048576"
    with pytest.raises(CodeTooLargeError) as refused:
        check_budget("label space", 2, 21)
    assert str(refused.value) == "label space of size 2097152 exceeds the budget 1048576"
