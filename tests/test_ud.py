import random
import time
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scans import (
    SCANNED,
    act,
    ambient_keys,
    b_form_u0,
    b_form_vec,
    case_b_reference,
    direct_census,
    first_hit_names,
    scanned_stabilizer,
)

from parafusion import codes, ud
from parafusion.arith import ResidueVector, mod1
from parafusion.codes import (
    Classification,
    CodeTooLargeError,
    all_codes,
    dual_code,
    enumerate_code,
    random_code,
    split_even_odd,
)
from parafusion.u0 import ClassIndex, U0Label, all_u0_labels, class_index
from parafusion.ud import (
    UNDETERMINED_FLAG,
    CharacterLabel,
    IrrU0Label,
    CosetGroup,
    all_irr_labels,
    canonicalize_irr,
    case_b_inventory,
    character_from_eta,
    character_of,
    count_twisted,
    induce,
    induction,
    orbit_members,
    orbits,
    stabilizer,
    trivial_character,
    twisted_count,
    weight_mod1_uxi,
)


def _members(code, row):
    """The members of a census row as labels, from `orbit_members`."""
    members = orbit_members(code, row)
    return tuple(IrrU0Label(code.k, *zip(*ClassIndex.pairs(code.k, x))) for x in members)


def _key(row):
    """What equality of a row compares beyond its `CosetGroup`, which a
    census builds afresh: least member, stabilizer, isotropic part, character."""
    return row.least, row.group.stabilizer, row.group.isotropic, row.character


def test_label_validation_and_count():
    with pytest.raises(ValueError):
        IrrU0Label(3, (3,), (0,))
    with pytest.raises(ValueError):
        IrrU0Label(3, (1, 1), (0,))
    assert len(all_irr_labels(2, 2)) == 16
    assert len(all_irr_labels(3, 1)) == 9
    assert all(x.is_canonical for x in all_irr_labels(3, 2))


def test_act_examples():
    X = IrrU0Label(2, (0, 0), (0, 0))
    zero = ResidueVector(4, (0, 0))
    assert act(zero, X) == X
    # componentwise (0, 2) is already the canonical representative at k=2
    assert act(ResidueVector(4, (2, 2)), X) == IrrU0Label(2, (0, 0), (2, 2))


@pytest.mark.parametrize("xi", [ResidueVector(6, (3,)), ResidueVector(4, (1, 1))])
def test_act_and_b_form_vec_refuse_a_codeword_of_another_shape(xi):
    X = IrrU0Label(3, (0, 1), (0, 2))
    with pytest.raises(ValueError, match="^codeword shape does not match the label$"):
        act(xi, X)
    with pytest.raises(ValueError, match="^codeword shape does not match the label$"):
        b_form_vec(xi, X)


def test_act_is_a_group_action():
    rng = random.Random(5)
    for k, ell in ((2, 2), (3, 1), (3, 2)):
        labels = all_irr_labels(k, ell)
        for _ in range(30):
            xi = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
            eta = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
            X = labels[rng.randrange(len(labels))]
            assert act(xi + eta, X) == act(xi, act(eta, X))


def test_b_form_vec_examples():
    X = IrrU0Label(2, (0,), (1,))
    assert b_form_vec(ResidueVector(4, (0,)), X) == 0
    assert b_form_vec(ResidueVector(4, (2,)), X) == Fraction(1, 2)


@pytest.mark.parametrize("k, ell", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_b_form_vec_is_componentwise(k, ell):
    from itertools import product

    for X in all_irr_labels(k, ell):
        for entries in product(range(2 * k), repeat=ell):
            xi = ResidueVector(2 * k, entries)
            expected = mod1(
                sum(
                    (b_form_u0(p, U0Label(k, m, n))
                     for p, m, n in zip(entries, X.mu, X.nu)),
                    Fraction(0),
                )
            )
            assert b_form_vec(xi, X) == expected


def test_canonicalize_irr_rejects_unequal_lengths():
    # zip would silently drop the unmatched component
    for mu, nu in (((0, 1), (1,)), ((0,), (1, 2)), ((), ())):
        with pytest.raises(ValueError, match="mu and nu must have equal positive length"):
            canonicalize_irr(3, mu, nu)


def test_b_form_vec_constant_on_canonicalization_fiber():
    k, ell = 3, 2
    for X in all_irr_labels(k, ell):
        raw = IrrU0Label(
            k,
            (k - 1 - X.mu[0],) + X.mu[1:],
            (X.nu[0] + k,) + X.nu[1:],
        )
        assert canonicalize_irr(k, raw.mu, raw.nu) == X
        for entries in ((1, 0), (2, 3), (5, 4)):
            xi = ResidueVector(2 * k, entries)
            assert b_form_vec(xi, raw) == b_form_vec(xi, X)


def test_character_examples():
    code = enumerate_code(2, 2, [(2, 2)])
    vac = IrrU0Label(2, (0, 0), (0, 0))
    assert character_of(vac, code).is_trivial
    ch = character_of(IrrU0Label(2, (0, 0), (1, 0)), code)
    assert not ch.is_trivial
    assert ch.value_exponent(ResidueVector(4, (2, 2))) == Fraction(1, 2)


@pytest.mark.parametrize("k, ell", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_character_trivial_iff_eta_in_dual(k, ell):
    for code in all_codes(k, ell):
        if code.classification is Classification.INVALID:
            continue
        dual = set(dual_code(code).elements)
        for X in all_irr_labels(k, ell):
            eta = ResidueVector(
                2 * k, tuple((k - 1) * n - k * m for m, n in zip(X.mu, X.nu))
            )
            assert character_of(X, code).is_trivial == (eta in dual)


@pytest.mark.parametrize("k, ell", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_character_surjectivity_and_orbit_invariance(k, ell):
    for code in all_codes(k, ell):
        if code.classification is Classification.INVALID:
            continue
        census = orbits(code)
        # characters are constant on orbits
        for info in census:
            chars = {character_of(member, code) for member in _members(code, info)}
            assert chars == {info.character}
        # every character of D is realized
        assert len({info.character for info in census}) == code.size


def test_stabilizer_examples():
    code = enumerate_code(3, 2, [(3, 3)])
    full = stabilizer(code, IrrU0Label(3, (1, 1), (0, 0)))
    assert len(full) == 2
    only_zero = stabilizer(code, IrrU0Label(3, (0, 1), (0, 0)))
    assert only_zero == (ResidueVector(6, (0, 0)),)


@pytest.mark.parametrize("k, ell", [(2, 2), (3, 1), (3, 2), (4, 1), (5, 1)])
def test_stabilizer_closed_form(k, ell):
    for code in all_codes(k, ell):
        if code.classification is Classification.INVALID:
            continue
        for X in all_irr_labels(k, ell):
            stab = set(stabilizer(code, X))
            if k % 2 == 0:
                expected = {code.zero()}
            else:
                expected = {
                    xi
                    for xi in code.elements
                    if all(c in (0, k) for c in xi)
                    and all(
                        X.mu[r] == (k - 1) // 2
                        for r in range(ell)
                        if xi[r] == k
                    )
                }
            assert stab == expected, (code, X)


def test_orbit_census_shapes():
    trivial = enumerate_code(2, 2, [])
    census = orbits(trivial)
    assert len(census) == 16 and all(o.group.size == 1 for o in census)

    code = enumerate_code(2, 2, [(2, 2)])
    census = orbits(code)
    assert len(census) == 8 and all(o.group.size == 2 for o in census)
    assert sum(o.group.size for o in census) == 16
    # representatives are the least members, orbits partition the labels
    seen = set()
    for o in census:
        members = _members(code, o)
        assert o.representative == min(members)
        assert not (seen & set(members))
        seen.update(members)
    assert len(seen) == 16


def test_orbits_reject_invalid_codes():
    with pytest.raises(ValueError):
        orbits(enumerate_code(3, 1, [(1,)]))


def test_induce_free_orbit():
    code = enumerate_code(2, 2, [(2, 2)])
    report = induce(code, IrrU0Label(2, (0, 0), (0, 0)))
    assert report.summand_count == 1 and report.multiplicity == 1
    assert report.orbit.group.size == 2


def test_induce_stabilized_orbit_k3():
    # k = 3 mod 4: two summands, multiplicity one
    code = enumerate_code(3, 2, [(3, 3)])
    report = induce(code, IrrU0Label(3, (1, 1), (0, 0)))
    assert report.orbit.group.stabilizer_order == 2
    assert report.summand_count == 2 and report.multiplicity == 1
    assert report.orbit.representative == IrrU0Label(3, (1, 1), (0, 0))
    assert report.decomposition == ((report.orbit.least, 1),)


def test_induce_stabilized_orbit_k5():
    # k = 1 mod 4: |D_X| summands, multiplicity one
    code = enumerate_code(5, 1, [(5,)])
    assert code.classification is Classification.CASE_A
    report = induce(code, IrrU0Label(5, (2,), (0,)))
    assert report.orbit.group.stabilizer_order == 2
    assert report.summand_count == 2 and report.multiplicity == 1


def test_induce_multiplicity_two():
    # k = 3 mod 4 with a rank-two stabilizer pairing: m = 2
    gens = [(3, 3, 0, 0), (0, 3, 3, 0)]
    code = enumerate_code(3, 4, gens)
    assert code.classification is Classification.CASE_A and code.size == 4
    X = IrrU0Label(3, (1, 1, 1, 1), (0, 0, 0, 0))
    report = induce(code, X)
    assert report.orbit.group.stabilizer_order == 4
    assert report.summand_count == 1 and report.multiplicity == 2
    assert report.orbit.representative == X
    assert report.decomposition == ((report.orbit.least, 2),)


def test_induce_requires_case_a():
    with pytest.raises(ValueError):
        induce(enumerate_code(3, 1, [(3,)]), IrrU0Label(3, (0,), (0,)))


def test_count_twisted_trivial_code():
    code = enumerate_code(3, 1, [])
    assert count_twisted(code, trivial_character(code)) == 9


def test_count_twisted_sum_rule():
    for k, ell in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        for code in all_codes(k, ell):
            if code.classification is not Classification.CASE_A:
                continue
            census = orbits(code)
            chars = {o.character for o in census}
            assert len(chars) == code.size  # nonempty fiber over every character
            total = sum(count_twisted(code, chi) for chi in chars)
            expected = 0
            for o in census:
                if o.group.stabilizer_order == 1:
                    expected += 1
                elif k % 4 == 1:
                    expected += o.group.stabilizer_order
                else:
                    expected += o.group.isotropic_order
            assert total == expected
            if k % 2 == 0:
                assert total == k ** (2 * ell) // code.size


def test_count_twisted_requires_case_a():
    code = enumerate_code(3, 1, [(3,)])
    with pytest.raises(ValueError):
        count_twisted(code, trivial_character(code))


def test_weight_mod1_uxi_examples():
    assert weight_mod1_uxi(ResidueVector(6, (0,))) == 0
    assert weight_mod1_uxi(ResidueVector(6, (3,))) == Fraction(1, 2)


def test_weight_mod1_uxi_refuses_an_odd_modulus():
    with pytest.raises(ValueError, match="^codewords live over an even modulus 2k$"):
        weight_mod1_uxi(ResidueVector(5, (1,)))


def test_weight_mod1_uxi_on_codes():
    rng = random.Random(19)
    seen_b = 0
    for _ in range(40):
        code = random_code(rng.randint(2, 5), rng.randint(1, 3), rng)
        if code.classification is Classification.CASE_A:
            assert all(weight_mod1_uxi(xi) == 0 for xi in code.elements)
        elif code.classification is Classification.CASE_B:
            seen_b += 1
            d0, d1 = split_even_odd(code)
            assert all(weight_mod1_uxi(xi) == 0 for xi in d0)
            assert all(weight_mod1_uxi(xi) == Fraction(1, 2) for xi in d1)
    assert seen_b > 0


def test_case_b_inventory_trivial_even_part():
    code = enumerate_code(3, 1, [(3,)])
    even, _, rows = case_b_inventory(code)
    assert even.size == 1
    rows = list(rows)
    # one summand per row: each row is one entry of the report
    assert [row.summand_count for row in rows] == [1] * 9
    assert len({row.orbit.least for row in rows}) == 9
    for row in rows:
        assert row.multiplicity == 1
        assert sum(m for _, m in row.decomposition) == 2


def test_case_b_inventory_nontrivial_even_part():
    code = enumerate_code(2, 2, [(2, 0), (0, 2)])
    assert code.classification is Classification.CASE_B
    even, _, rows = case_b_inventory(code)
    assert even.size == 2
    rows = list(rows)
    assert sum(row.summand_count for row in rows) == 4
    for row in rows:
        # each induced object has base-algebra length |D|
        assert sum(m for _, m in row.decomposition) == 4


def _random_case_b_codes():
    rng = random.Random(43)
    found = 0
    while found < 20:
        code = random_code(rng.randint(2, 4), rng.randint(1, 3), rng, max_generators=3)
        if code.classification is Classification.CASE_B:
            found += 1
            yield code


def test_case_b_even_part_matches_the_elementwise_split():
    for code in _random_case_b_codes():
        d0, d1 = split_even_odd(code)
        even, xi1, _ = case_b_inventory(code)
        assert even.elements == d0
        assert xi1 == d1[0]


def test_case_b_inventory_matches_the_label_reference():
    # {0,3}^3 at k=3: its even part <(3,3,0),(0,3,3)> has orbits of multiplicity two
    cube = enumerate_code(3, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert max(row.multiplicity for row in case_b_inventory(cube)[2]) == 2
    for code in [*_random_case_b_codes(), cube]:
        labels = all_u0_labels(code.k)

        def label(x):
            return IrrU0Label(code.k, tuple(labels[c].i for c in x),
                              tuple(labels[c].l for c in x))

        # an entry per summand of each row, as the report lists them
        got = [(label(row.orbit.least), s, row.multiplicity,
                tuple((label(x), m) for x, m in row.decomposition), UNDETERMINED_FLAG)
               for row in case_b_inventory(code)[2] for s in range(row.summand_count)]
        assert got == case_b_reference(code)


def test_case_b_inventory_requires_case_b():
    with pytest.raises(ValueError):
        case_b_inventory(enumerate_code(3, 2, [(3, 3)]))


def _kernel_cases():
    for k in range(2, 6):
        for ell in (1, 2):
            for code in all_codes(k, ell):
                if code.classification is not Classification.INVALID:
                    yield code
    rng = random.Random(23)
    for k in (3, 4):
        drawn = 0
        while drawn < 4:
            code = random_code(k, 3, rng)
            if code.classification is not Classification.INVALID:
                drawn += 1
                yield code


def test_orbit_kernel_matches_direct_census(monkeypatch):
    duals = []

    def counted_dual(code, *args, **kwargs):
        duals.append(code)
        return dual_code(code, *args, **kwargs)

    # ud binds no dual_code of its own, so this patch sees every call
    assert not hasattr(ud, "dual_code")
    monkeypatch.setattr(codes, "dual_code", counted_dual)
    checked = 0
    for code in _kernel_cases():
        ud._canonical_eta.cache_clear()
        duals.clear()
        census = orbits(code)
        assert duals == []
        got = [(o.representative, _members(code, o), o.group.stabilizer, o.group.isotropic,
                o.character) for o in census]
        assert got == direct_census(code), code
        assert all(character_of(o.representative, code) == o.character for o in census)
        for chi in {o.character for o in census}:
            assert list(map(_key, orbits(code, restrict_to_character=chi))) == [
                _key(o) for o in census if o.character == chi]
        if code.classification is Classification.CASE_A:
            for o in census:
                summands, mult = induction(code, o.group)
                members = orbit_members(code, o)
                report = induce(code, o.representative)
                assert (_key(report.orbit), report.multiplicity, report.summand_count,
                        report.decomposition) \
                    == (_key(o), mult, summands, tuple((x, mult) for x in members))
        checked += 1
    assert checked > 40


# every (k, ell) with k = 2..7, ell <= 4 and at most 2^16 labels
CENSUS_SHAPES = [(k, ell) for k in range(2, 8) for ell in range(1, 5) if k ** (2 * ell) <= 2 ** 16]


@st.composite
def valid_codes(draw):
    """A Case A or Case B code: each generator pairs integrally with itself
    and with every earlier one."""
    k, ell = draw(st.sampled_from(CENSUS_SHAPES))
    n, gens = 2 * k, []
    for _ in range(draw(st.integers(1, 3))):
        pool = [v for v in product(range(n), repeat=ell)
                if all((k - 1) * sum(map(mul, v, g)) % n == 0 for g in gens + [v])]
        gens.append(draw(st.sampled_from(pool)))
    return enumerate_code(k, ell, gens)


@settings(max_examples=10, deadline=None)
@given(code=valid_codes(), picks=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=6))
def test_census_matches_the_label_walk(code, picks):
    assert code.classification is not Classification.INVALID
    reference = direct_census(code)
    census = orbits(code)

    def fields(o):
        return o.representative, _members(code, o), o.group.stabilizer, o.group.isotropic, \
            o.character

    assert [fields(o) for o in census] == reference
    assert [o.group.size for o in census] == [len(members) for _, members, *_ in reference]
    # each restriction is the census's orbits of that character, which
    # equal the reference's field by field
    for chi in {o.character for o in census}:
        assert list(map(_key, orbits(code, restrict_to_character=chi))) == [
            _key(o) for o in census if o.character == chi]
    # any label, not only a representative: its stabilizer and its orbit,
    # also read off the raw pairs (k-1-i, l+k) of its classes
    orbit_of = {x: t for t, (_, members, *_) in enumerate(reference) for x in members}
    labels = list(orbit_of)
    for x in (labels[p % len(labels)] for p in picks):
        raw = IrrU0Label(code.k, tuple(code.k - 1 - m for m in x.mu),
                         tuple(n + code.k for n in x.nu))
        for y in (x, raw):
            assert stabilizer(code, y) == scanned_stabilizer(code, x)
            info = ud._orbit_of(code, y)
            assert _key(info) == _key(census[orbit_of[x]])
            assert fields(info) == reference[orbit_of[x]]


@pytest.mark.parametrize("k, ell", SCANNED)
def test_canonical_eta_matches_the_first_hit_names(k, ell):
    for code in all_codes(k, ell):
        names = first_hit_names(code)
        for eta, key in ambient_keys(code):
            assert ud._canonical_eta(code, eta) == names[key], (code, eta)
        ud._canonical_eta.cache_clear()


def test_character_from_eta_on_a_long_code():
    # 6^12 eta vectors: too many to name a character by an ambient scan
    code = enumerate_code(3, 12, [(3, 3) + (0,) * 10])
    start = time.perf_counter()
    chi = character_from_eta(code, (5,) * 12)
    assert time.perf_counter() - start < 1.0
    assert str(chi) == "chi[" + ",".join("0" * 12) + "]"


def test_character_from_eta_refuses_a_wrong_length():
    with pytest.raises(ValueError, match="^eta must have length 2$"):
        character_from_eta(enumerate_code(3, 2, [(3, 3)]), (0,))


def test_a_character_names_the_subgroup_not_its_presentation():
    # <(3,3)> and <(3,3),(0,0)> are one code: a character named on either
    # restricts the census of the other
    c1 = enumerate_code(3, 2, [(3, 3)])
    c2 = enumerate_code(3, 2, [(3, 3), (0, 0)])
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1.generators != c2.generators
    chi = character_from_eta(c1, (0, 0))
    assert len(orbits(c2, restrict_to_character=chi)) == len(orbits(c1, chi)) == 27
    assert count_twisted(c2, chi) == count_twisted(c1, chi) == 36


def test_orbits_reject_foreign_or_noncanonical_characters():
    code = enumerate_code(3, 2, [(3, 3)])
    other = enumerate_code(3, 2, [(0, 3)])
    assert orbits(code, restrict_to_character=trivial_character(other)) == []
    assert orbits(code, restrict_to_character=CharacterLabel(code, (3, 3))) == []


def test_orbits_label_budget():
    # 3^14 labels at k = 3, length 7, past the 2^20 budget
    code = enumerate_code(3, 7, [(3,) * 7])
    start = time.perf_counter()
    with pytest.raises(CodeTooLargeError,
                       match="label space of size 4782969 exceeds the budget 1048576"):
        orbits(code)
    with pytest.raises(CodeTooLargeError, match="label space of size 4782969"):
        all_irr_labels(3, 7)
    assert time.perf_counter() - start < 1.0


def test_stabilizer_past_the_code_budget_fails_fast():
    # eight unit vectors of length 30 at k = 3 span 6^8 codewords
    code = enumerate_code(3, 30, [[int(r == j) for r in range(30)] for j in range(8)])
    x = IrrU0Label(3, (0,) * 30, (0,) * 30)
    start = time.perf_counter()
    with pytest.raises(CodeTooLargeError,
                       match="code of size 1679616 exceeds the budget 1048576"):
        stabilizer(code, x)
    assert time.perf_counter() - start < 1.0


def test_induce_from_inconsistent_orbit_is_an_error(monkeypatch):
    # the orbit size is |D|/|D_X|, so only the members induction builds can
    # disagree with a wrong stabilizer: too small, or too large
    code = enumerate_code(3, 2, [(3, 3)])
    census = orbits(code)
    free = next(o for o in census if o.group.stabilizer_order == 1)
    fixed = next(o for o in census if o.group.stabilizer_order == 2)
    small = CosetGroup(code, fixed.group.stabilizer[:1])
    with pytest.raises(ValueError, match=r"^orbit of U\(1,0\) x U\(1,0\) is inconsistent "
                       r"with \|D\| = 2: 1 summands x multiplicity 1\^2 x orbit size 1$"):
        orbit_members(code, fixed._replace(group=small))
    with pytest.raises(ValueError, match=r"^orbit of U\(0,0\) x U\(0,0\) is inconsistent "
                       r"with \|D\| = 2: 2 summands x multiplicity 1\^2 x orbit size 2$"):
        orbit_members(code, free._replace(group=fixed.group))
    # a group whose isotropic part is empty counts no summand
    monkeypatch.setattr(ud, "_isotropic_part", lambda code, stab: ())
    with pytest.raises(ValueError, match="^stabilizer order 2 is not a square times "
                       "the summand count 0$"):
        induction(code, CosetGroup(code, fixed.group.stabilizer))


def test_induce_builds_its_class_table_once():
    # the label's orbit and its members read one table, asked for by k
    code = enumerate_code(3, 2, [(3, 3)])
    class_index.cache_clear()
    report = induce(code, IrrU0Label(3, (0, 1), (2, 1)))
    assert len(report.decomposition) == 2
    assert class_index.cache_info().misses == 1



def test_induce_past_the_label_budget_fails_before_a_table_is_built():
    # the trivial length-1 code at k = 1025 has 1025^2 labels, past the 2^20
    # budget: induce refuses it as orbits does, before its k^2-sized table
    code = enumerate_code(1025, 1, [])
    x = IrrU0Label(1025, (0,), (0,))
    class_index.cache_clear()
    start = time.perf_counter()
    for run in (orbits, lambda code: induce(code, x)):
        with pytest.raises(CodeTooLargeError,
                           match="label space of size 1050625 exceeds the budget 1048576"):
            run(code)
    assert class_index.cache_info().misses == 0
    assert time.perf_counter() - start < 1.0

def test_induce_from_orbit_refuses_an_orbit_of_another_shape():
    code = enumerate_code(3, 2, [(3, 3)])
    for other in (enumerate_code(3, 1, []), enumerate_code(5, 2, [])):
        row = orbits(other)[0]
        with pytest.raises(ValueError, match="does not match"):
            orbit_members(code, row)


def test_twisted_count_rule():
    k3 = orbits(enumerate_code(3, 2, [(3, 3)]))
    k5 = orbits(enumerate_code(5, 1, [(5,)]))
    assert {(o.group.stabilizer_order, o.twisted_count) for o in k3} == {(1, 1), (2, 2)}
    assert {(o.group.stabilizer_order, o.twisted_count) for o in k5} == {(1, 1), (2, 2)}
    mixed = orbits(enumerate_code(3, 3, [(3, 3, 0), (0, 3, 3)]))
    assert {(o.group.stabilizer_order, o.group.isotropic_order, o.twisted_count)
            for o in mixed} == {(1, 1, 1), (2, 2, 2), (4, 1, 1)}


def test_twisted_count_is_one_rule_of_k_and_two_orders(monkeypatch):
    # one over a free orbit; else |D_X| at k = 1 (mod 4) and the isotropic
    # order at k = 3 (mod 4)
    assert [twisted_count(k, 1, 1) for k in (2, 3, 4, 5, 7, 9)] == [1] * 6
    assert [twisted_count(k, 4, 2) for k in (5, 9, 13)] == [4, 4, 4]
    assert [twisted_count(k, 4, 2) for k in (3, 7, 11)] == [2, 2, 2]
    code = enumerate_code(3, 3, [(3, 3, 0), (0, 3, 3)])
    census = orbits(code)
    assert all(o.twisted_count
               == twisted_count(3, o.group.stabilizer_order, o.group.isotropic_order)
               for o in census)
    # an orbit reads its count from that one rule, applied once per coset group
    monkeypatch.setattr(ud, "twisted_count", lambda k, stab, iso: (k, stab, iso))
    assert {o.twisted_count for o in orbits(code)} == {(3, 1, 1), (3, 2, 2), (3, 4, 1)}


def test_case_b_inventory_checks_its_even_part(monkeypatch):
    monkeypatch.setattr(codes, "enumerate_code", lambda k, length, gens: enumerate_code(k, length, []))
    with pytest.raises(RuntimeError, match="even part"):
        case_b_inventory(enumerate_code(2, 2, [(2, 0), (0, 2)]))


def _reference_summands(code, o):
    # the k mod 4 branching that induction used before it read the count
    # from the orbit's twisted_count
    if o.group.stabilizer_order == 1:
        return 1
    if code.k % 4 == 1:
        return o.group.stabilizer_order
    return o.group.isotropic_order


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_induce_summands_match_the_reference_rule(k):
    checked = 0
    for ell in (1, 2):
        for code in all_codes(k, ell):
            if code.classification is not Classification.CASE_A:
                continue
            for o in orbits(code):
                assert induction(code, o.group)[0] \
                    == _reference_summands(code, o) == o.twisted_count
                checked += 1
    assert checked > 0
