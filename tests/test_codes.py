import json
import random
import time
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scans import SCANNED, scanned_dual

from parafusion.arith import ResidueVector, standard_inner
from parafusion.codes import (
    Classification,
    CodeTooLargeError,
    all_codes,
    dual_code,
    enumerate_code,
    euclidean_weight,
    generating_subset,
    hermite_form,
    least_in_coset,
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


def _closure(k, length, generators):
    """Breadth-first closure of the generators: the reference for the Hermite form."""
    n = 2 * k
    zero = (0,) * length
    elements, frontier = {zero}, [zero]
    while frontier:
        new = []
        for g in generators:
            for x in frontier:
                y = tuple((a + b) % n for a, b in zip(x, g))
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    return sorted(elements)


def _pair_closure_codes(k, length):
    """Every subgroup of (Z_2k)^length for length <= 2, as element sets: such
    a subgroup is generated by at most two elements."""
    ambient = list(product(range(2 * k), repeat=length))
    return {frozenset(_closure(k, length, pair))
            for pair in combinations_with_replacement(ambient, 2)}


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


# k = 3, length 30: eight unit vectors span 6^8 = 1 679 616 codewords (Invalid),
# and eight disjoint (1,1,1) blocks span as many (Case B), past the 2^20 budget
_UNITS = [[int(r == j) for r in range(30)] for j in range(8)]
_TRIPLES = [[int(3 * j <= r < 3 * j + 3) for r in range(30)] for j in range(8)]


def test_enumeration_guard():
    # the Hermite form is built, no codeword is: the refusal comes at once,
    # and membership, a reduction against the form, answers
    units = enumerate_code(3, 30, _UNITS)
    triples = enumerate_code(3, 30, _TRIPLES)
    assert units.size == triples.size == 6 ** 8
    assert triples.classification is Classification.CASE_B
    message = "code of size 1679616 exceeds the budget 1048576"
    start = time.perf_counter()
    for code in (units, triples):
        with pytest.raises(CodeTooLargeError, match=message):
            code.elements
        last = code.generators[-1]
        assert code.zero() in code and last in code and last.scaled(5) in code
        assert ResidueVector(6, (1,) * 30) not in code
    with pytest.raises(CodeTooLargeError, match=message):
        split_even_odd(triples)
    assert time.perf_counter() - start < 1.0
    assert "elements" not in vars(units) and "elements" not in vars(triples)


def test_hermite_form_matches_closure():
    rng = random.Random(23)
    # membership probes come from their own generator, so the codes stay the same
    probe = random.Random(29)
    for _ in range(600):
        k, length = rng.randint(2, 8), rng.randint(1, 4)
        n = 2 * k
        gens = [tuple(rng.randrange(n) for _ in range(length))
                for _ in range(rng.randint(0, 3))]
        code = enumerate_code(k, length, gens)
        reference = _closure(k, length, gens)
        assert [x.entries for x in code.elements] == reference, (k, gens)
        assert code.size == len(reference)
        # membership by reduction against the form agrees with the codewords
        members = set(reference)
        for v in reference[:8] + [tuple(probe.randrange(n) for _ in range(length))
                                  for _ in range(8)]:
            assert (ResidueVector(n, v) in code) == (v in members), (k, gens, v)
        for j, h in code.hermite:
            assert n % h[j] == 0 and h[j] < n and not any(h[:j])
            assert all(row[j] < h[j] for i, row in code.hermite if i < j)
        # another generating set of the same code: shuffled, with a multiple
        # of one generator and a sum of two
        more = list(gens)
        if gens:
            c = rng.randrange(n)
            more.append(tuple(c * a for a in rng.choice(gens)))
            more.append(tuple(a + b for a, b in zip(rng.choice(gens), rng.choice(gens))))
        rng.shuffle(more)
        assert hermite_form(n, length, more) == code.hermite


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
    # the dual of <(3,...,3)> at length 30 has 6^30/2 codewords: it is built
    # from its form at once, and only its codewords are refused
    start = time.perf_counter()
    dual = dual_code(enumerate_code(3, 30, [[3] * 30]))
    assert time.perf_counter() - start < 1.0
    assert dual.size == 6 ** 30 // 2 and "elements" not in vars(dual)
    with pytest.raises(CodeTooLargeError,
                       match=f"code of size {6 ** 30 // 2} exceeds the budget 1048576"):
        dual.elements


@pytest.mark.parametrize("k, ell", SCANNED)
def test_dual_code_matches_the_ambient_scan(k, ell):
    for code in all_codes(k, ell):
        assert dual_code(code).elements == scanned_dual(code), code


def test_dual_code_of_a_long_code_comes_from_its_form():
    # 2e_1..2e_18 at k = 2 is its own dual; an ambient scan would visit 4^18 vectors
    code = enumerate_code(2, 18, [[2 * (r == j) for r in range(18)] for j in range(18)])
    start = time.perf_counter()
    dual = dual_code(code)
    assert time.perf_counter() - start < 1.0
    assert dual == code and dual.hermite == code.hermite
    assert dual.size == 2 ** 18


@given(st.data())
def test_least_in_coset_is_the_least_vector_of_the_coset(data):
    k, ell = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 3))
    n = 2 * k
    vector = st.tuples(*[st.integers(0, n - 1)] * ell)
    code = enumerate_code(k, ell, data.draw(st.lists(vector, max_size=3)))
    vec = data.draw(vector)
    assert code.size * dual_code(code).size == n ** ell
    for form, words in ((code.hermite, code.elements),
                        (code.dual_hermite, scanned_dual(code))):
        least = min(tuple((a + b) % n for a, b in zip(vec, w)) for w in words)
        assert least_in_coset(n, form, vec) == least


@pytest.mark.parametrize("k, length, message", [
    (1, 1, "k must be >= 2, got 1"),
    (0, 2, "k must be >= 2, got 0"),
    (3, 0, "length must be >= 1, got 0"),
])
def test_all_codes_rejects_what_enumerate_code_rejects(k, length, message):
    with pytest.raises(ValueError, match=message):
        enumerate_code(k, length, [])
    with pytest.raises(ValueError, match=message):
        all_codes(k, length)


@pytest.mark.parametrize("generator, shown", [
    ((3,), "ResidueVector(modulus=6, entries=(3,))"),
    (ResidueVector(4, (1, 1)), "ResidueVector(modulus=4, entries=(1, 1))"),
])
def test_enumerate_code_refuses_a_generator_of_another_shape(generator, shown):
    with pytest.raises(ValueError) as info:
        enumerate_code(3, 2, [generator])
    assert str(info.value) == f"generator {shown} does not match mod 6, length 2"


def test_all_codes_counts():
    # subgroup counts of Z_n and Z_n x Z_n (sum of gcds of divisor pairs)
    assert len(all_codes(2, 1)) == 3
    assert len(all_codes(3, 1)) == 4
    assert len(all_codes(2, 2)) == 15
    assert len(all_codes(3, 2)) == 30
    # 129 subgroups of Z_4^3, counted by a brute-force closure; for an odd
    # prime p, |Sub(Z_p^3)| = 2p^2 + 2p + 4 (Gaussian binomials), times
    # |Sub(Z_2^3)| = 16, since the count is multiplicative over primes
    assert len(all_codes(2, 3)) == 129
    assert [len(all_codes(p, 3)) for p in (3, 5, 7)] == \
        [16 * (2 * p * p + 2 * p + 4) for p in (3, 5, 7)] == [448, 1024, 1856]
    for k in range(2, 6):
        for length in (1, 2):
            found = [frozenset(x.entries for x in code.elements)
                     for code in all_codes(k, length)]
            assert len(set(found)) == len(found)
            assert set(found) == _pair_closure_codes(k, length)
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
    with pytest.raises(ValueError, match=r"^code JSON has unknown fields: \['extra'\]$"):
        load_code('{"k":3,"length":1,"generators":[[3]],"extra":1}')
    with pytest.raises(json.JSONDecodeError):
        load_code("not json {")


def test_load_code_names_a_missing_file(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(FileNotFoundError, match="missing.json"):
        load_code(path)
