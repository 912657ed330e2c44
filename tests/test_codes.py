import json
import random

import pytest

from parafusion.arith import ResidueVector, standard_inner
from parafusion.codes import (
    Classification,
    CodeTooLargeError,
    all_codes,
    dual_code,
    enumerate_code,
    euclidean_weight,
    generating_subset,
    load_code,
    random_code,
    split_even_odd,
)


def _elementwise_classification(code):
    """The rule that walked every codeword, kept as the reference for the generator rule."""
    k = code.k
    diag = []
    for xi in code.elements:
        num = (k - 1) * sum(a * a for a in xi)
        diag.append(None if num % (2 * k) else (num // (2 * k)) % 2)
    if all(c == 0 for c in diag):
        return Classification.CASE_A
    if any(c is None for c in diag):
        return Classification.INVALID
    gens = code.generators
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            if (k - 1) * sum(a * b for a, b in zip(gens[i], gens[j])) % (2 * k):
                return Classification.INVALID
    return Classification.CASE_B


def test_trivial_code():
    code = enumerate_code(3, 2, [])
    assert code.size == 1
    assert code.classification is Classification.CASE_A
    assert code.zero() in code


def test_enumeration_examples():
    code = enumerate_code(2, 4, [(1, 1, 1, 1)])
    assert code.size == 4
    assert code.classification is Classification.CASE_B
    code = enumerate_code(3, 2, [(3, 3)])
    assert code.size == 2
    assert code.classification is Classification.CASE_A
    code = enumerate_code(3, 1, [(1,)])
    assert code.classification is Classification.INVALID


def test_elements_form_a_subgroup():
    rng = random.Random(2)
    for _ in range(20):
        code = random_code(rng.randint(2, 4), rng.randint(1, 3), rng)
        elements = set(code.elements)
        assert code.zero() in elements
        for x in code.elements:
            assert -x in elements
            for y in code.elements:
                assert x + y in elements
        assert (2 * code.k) ** code.length % code.size == 0


def test_classification_is_presentation_independent():
    rng = random.Random(9)
    for _ in range(20):
        code = random_code(rng.randint(2, 5), rng.randint(1, 3), rng)
        # greedy generators taken in a random order give a different presentation
        shuffled = list(code.elements)
        rng.shuffle(shuffled)
        gens = []
        have = {code.zero()}
        for x in shuffled:
            if x not in have:
                gens.append(x)
                have = set(enumerate_code(code.k, code.length, gens).elements)
        regenerated = enumerate_code(code.k, code.length, gens)
        assert regenerated.elements == code.elements
        assert regenerated.classification == code.classification
        deterministic = enumerate_code(
            code.k, code.length, generating_subset(code.k, code.length, code.elements)
        )
        assert deterministic.elements == code.elements
        assert deterministic.classification == code.classification
    rng = random.Random(17)
    case_b = 0
    for _ in range(1000):
        code = random_code(rng.randint(2, 7), rng.randint(1, 4), rng, max_generators=3)
        assert code.classification is _elementwise_classification(code), code
        case_b += code.classification is Classification.CASE_B
    assert case_b


def test_enumeration_guard():
    with pytest.raises(CodeTooLargeError):
        enumerate_code(6, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], max_size=100)


def test_split_even_odd():
    code = enumerate_code(3, 1, [(3,)])
    d0, d1 = split_even_odd(code)
    assert d0 == (ResidueVector(6, (0,)),)
    assert d1 == (ResidueVector(6, (3,)),)

    code = enumerate_code(2, 4, [(1, 1, 1, 1)])
    d0, d1 = split_even_odd(code)
    assert len(d0) == 2 and len(d1) == 2
    # the even part is itself Case A
    even = enumerate_code(code.k, code.length, d0)
    assert even.classification is Classification.CASE_A
    assert set(d0) | set(d1) == set(code.elements)


def test_split_even_odd_requires_case_b():
    with pytest.raises(ValueError):
        split_even_odd(enumerate_code(3, 2, [(3, 3)]))


def test_case_b_parity_is_an_additive_character():
    rng = random.Random(31)
    found = 0
    while found < 10:
        code = random_code(rng.randint(2, 5), rng.randint(1, 3), rng)
        if code.classification is not Classification.CASE_B:
            continue
        found += 1
        d0, d1 = split_even_odd(code)
        assert len(d0) == len(d1) == code.size // 2
        d0set = set(d0)

        def parity(x):
            return 0 if x in d0set else 1

        for x in code.elements:
            for y in code.elements:
                assert parity(x + y) == (parity(x) + parity(y)) % 2


@pytest.mark.parametrize("modulus, entries, expected", [
    (4, (0,), 0),
    (4, (3, 1), 2),
    (8, (5,), 9),
    (6, (3, 3), 18),
    (6, (5, 1, 0), 2),
])
def test_euclidean_weight_examples(modulus, entries, expected):
    assert euclidean_weight(ResidueVector(modulus, entries)) == expected


def test_euclidean_weight_congruence():
    # wt_E and the plain squared sum agree after dividing by 2k, mod 2
    rng = random.Random(13)
    for _ in range(200):
        k = rng.randint(2, 6)
        ell = rng.randint(1, 4)
        xi = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
        diff = sum(e * e for e in xi) - euclidean_weight(xi)
        assert diff % (4 * k) == 0


def test_dual_examples():
    trivial = enumerate_code(2, 2, [])
    assert dual_code(trivial).size == 16
    code = enumerate_code(2, 2, [(2, 2)])
    dual = dual_code(code)
    assert dual.size == 8
    assert code.size * dual.size == 16
    assert all(
        standard_inner(x, y) == 0 for x in code.elements for y in dual.elements
    )


def test_double_dual_is_identity():
    rng = random.Random(41)
    for _ in range(15):
        code = random_code(rng.randint(2, 4), rng.randint(1, 3), rng)
        assert dual_code(dual_code(code)).elements == code.elements
        assert dual_code(code).size == (2 * code.k) ** code.length // code.size


def test_dual_guard():
    with pytest.raises(CodeTooLargeError):
        dual_code(enumerate_code(6, 4, []), max_size=1000)


def test_all_codes_counts():
    # subgroup counts of Z_n and Z_n x Z_n (sum of gcds of divisor pairs)
    assert len(all_codes(2, 1)) == 3
    assert len(all_codes(3, 1)) == 4
    assert len(all_codes(2, 2)) == 15
    assert len(all_codes(3, 2)) == 30
    with pytest.raises(ValueError):
        all_codes(2, 3)
    for k in range(2, 7):
        for length in (1, 2):
            for code in all_codes(k, length):
                assert code.classification is _elementwise_classification(code), code


def test_load_code(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 3, "length": 2, "generators": [[3, -3]]}))
    code = load_code(path)
    assert code.k == 3 and code.length == 2
    assert code.generators[0].entries == (3, 3)

    code = load_code({"k": 2, "length": 1, "generators": []})
    assert code.size == 1

    with pytest.raises(ValueError):
        load_code({"k": 2, "length": 1})
    with pytest.raises(ValueError):
        load_code({"k": 2, "length": 1, "generators": [["x"]]})
    with pytest.raises(json.JSONDecodeError):
        load_code("not json {")
