import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weights as ref
from scans import (
    b_form_u0,
    first_non_associative,
    phi_grade,
    stabilizing_currents,
    theta_u0,
    verify_weight_difference,
)
from parafusion import u0, verify
from parafusion.arith import mod1
from parafusion.cli import main
from parafusion.codes import CodeTooLargeError
from parafusion.fusion import FusionSum
from parafusion.u0 import (
    ClassIndex,
    SummandLabel,
    TopLevel,
    U0Label,
    all_u0_labels,
    canonicalize_u0,
    class_index,
    eta_u0,
    fuse_u0,
    fusion_table,
    simple_currents,
    summand_weight,
    top_level,
    top_level_closed_form,
    u0_vacuum,
    weight_mod1,
)
from parafusion.verify import suite_appendix_a, suite_fusion_axioms


@pytest.mark.parametrize("k, i, l, ci, cl", [
    (3, 2, 2, 0, 5),
    (3, 0, 2, 0, 2),
    (3, 1, 4, 1, 1),
    (2, 1, 2, 0, 0),
    (5, 3, 0, 1, 5),
    (5, 2, 7, 2, 2),
])
def test_canonicalize_examples(k, i, l, ci, cl):
    assert canonicalize_u0(k, i, l) == U0Label(k, ci, cl)


def test_label_validation():
    with pytest.raises(ValueError):
        U0Label(3, 3, 0)
    with pytest.raises(ValueError):
        U0Label(1, 0, 0)


@pytest.mark.parametrize("k", range(2, 13))
def test_canonical_class_count(k):
    labels = all_u0_labels(k)
    assert len(labels) == k * k
    assert all(lab.is_canonical for lab in labels)
    reached = {canonicalize_u0(k, i, l) for i in range(k) for l in range(2 * k)}
    assert reached == set(labels)


@pytest.mark.parametrize("k", range(2, 9))
def test_class_index_numbers_the_canonical_classes(k):
    index = class_index(k)
    pair_class, moves, eta = index.pair_class, index.moves, index.eta
    labels = all_u0_labels(k)
    # class c is U(c // 2k, c % 2k), named as its label is, in label order
    assert [U0Label(k, i, l) for i, l in ClassIndex.pairs(k, range(k * k))] == list(labels)
    assert list(labels) == sorted(labels)
    assert index.names() == [str(a) for a in labels]
    assert labels[:2 * k] == simple_currents(k) and labels[0] == u0_vacuum(k)
    for i, l in product(range(k), range(2 * k)):
        c = pair_class[i][l]
        assert labels[c] == canonicalize_u0(k, i, l)
        assert labels[c] == U0Label(k, *divmod(c, 2 * k))
        # class c = 2k i' + l' is U(i', l'), moved by d at moves[c + 2k i' + d]
        start = c + 2 * k * labels[c].i
        assert [labels[moves[start + d]] for d in range(2 * k)] == [
            canonicalize_u0(k, i, l + d) for d in range(2 * k)]
        assert index.moved([c], ([d] for d in range(2 * k))) == [
            (moves[start + d],) for d in range(2 * k)]
        # each class of a tuple moves by its own entry
        assert index.moved([c, 0], [(1, 2)]) == [(pair_class[i][(l + 1) % (2 * k)], 2)]
        # eta is a class function, read off any raw pair
        assert eta[c] == eta_u0(k, i, l)


@pytest.mark.parametrize("k", [*range(2, 9), 64])
def test_class_index_tables_hold_at_most_5k2_entries(k):
    # the label budget admits length-1 codes up to k = 1024, so no table
    # may grow like k^3
    index = class_index(k)
    for table in index:
        if isinstance(table, int):
            continue
        entries = sum(len(row) if isinstance(row, list) else 1 for row in table)
        assert entries <= 5 * k * k


@pytest.mark.parametrize("k", [*range(2, 9), 64])
def test_class_index_builds_no_label(monkeypatch, k):
    # a class is its number from the class table to the written report
    def refused(self, *args):
        raise AssertionError(f"U0Label{args} built")

    monkeypatch.setattr(U0Label, "__init__", refused)
    # built here, not left by an earlier test at the same k
    class_index.cache_clear()
    index = class_index(k)
    assert len(index.eta) == len(index.weight) == k * k
    assert index.names()[-1] == "U({},{})".format(*divmod(k * k - 1, 2 * k))


@pytest.mark.parametrize("k", range(2, 8))
def test_fusion_table_matches_fuse_u0(k):
    labels = all_u0_labels(k)
    table = fusion_table(k)
    for (a, x), (b, y) in product(enumerate(labels), repeat=2):
        assert list(table[a][b]) == sorted(table[a][b])
        assert FusionSum(labels[c] for c in table[a][b]) == fuse_u0(x, y)


_terms = u0._fuse_u0_terms.__wrapped__


def _drop_last_when_left_is_larger(k, i1, l1, i2, l2):
    terms = _terms(k, i1, l1, i2, l2)
    return terms[:-1] if i1 > i2 and len(terms) > 1 else terms


def _double_first_on_row_one(k, i1, l1, i2, l2):
    terms = _terms(k, i1, l1, i2, l2)
    return terms + terms[:1] if i1 == i2 == 1 else terms


def _current_square_shifted(k, i1, l1, i2, l2):
    shifted = i1 == i2 == 0 and l1 % 2 and l2 % 2
    return _terms(k, i1, l1, i2, l2 + (k if shifted else 0))


@pytest.mark.parametrize("rule, k, name, detail", [
    (_drop_last_when_left_is_larger, 5, "commutativity",
     "U(1,0) x U(2,0) is not symmetric"),
    (_double_first_on_row_one, 5, "associativity", "triple U(1,0), U(1,0), U(2,0)"),
    (_double_first_on_row_one, 4, "unique-dual",
     "U(1,0) has dual candidates [U(1,0)]"),
    (_current_square_shifted, 3, "simple-current-group",
     "simple currents do not realize the cyclic group law"),
])
def test_fusion_axioms_suite_fails_on_a_broken_rule(monkeypatch, capsys, rule, k, name,
                                                    detail):
    monkeypatch.setattr(u0, "_fuse_u0_terms", rule)
    checks = {c.name: c for c in suite_fusion_axioms(k)}
    assert not checks[name].passed and checks[name].detail == detail
    assert main(["verify", "--suite", "fusion-axioms", "--k", str(k)]) == 1
    assert '"all_passed": false' in capsys.readouterr().out


def test_appendix_a_suite_reports_the_first_mismatch(monkeypatch):
    closed_form = u0.top_level_closed_form

    def wrong_at_k3_l2(k, l):
        return TopLevel(Fraction(1, 3), 1) if (k, l) == (3, 2) else closed_form(k, l)

    monkeypatch.setattr(verify, "top_level_closed_form", wrong_at_k3_l2)
    checks = suite_appendix_a(3)
    assert [(c.name, c.passed) for c in checks] == [
        ("top-level-closed-form-k2", True), ("top-level-closed-form-k3", False)]
    assert checks[1].detail == (
        "l=2: oracle TopLevel(weight=Fraction(2, 3), dimension=2) "
        "vs closed form TopLevel(weight=Fraction(1, 3), dimension=1)")


def _reverse_when_left_is_larger(k, i1, l1, i2, l2):
    terms = _terms(k, i1, l1, i2, l2)
    return terms[::-1] if i1 > i2 else terms


def test_fusion_axioms_suite_ignores_term_order(monkeypatch):
    # a x b and b x a list the same terms in opposite orders
    monkeypatch.setattr(u0, "_fuse_u0_terms", _reverse_when_left_is_larger)
    assert all(c.passed for c in suite_fusion_axioms(5))


def test_fusion_axioms_budget_admits_k10(monkeypatch):
    # associativity visits k^6 triples of classes: 10^6 fit in 2^20, 11^6 do not
    def admitted(k):
        raise _Admitted

    monkeypatch.setattr(verify, "class_index", admitted)
    with pytest.raises(_Admitted):
        suite_fusion_axioms(10)
    with pytest.raises(CodeTooLargeError,
                       match="suite k\\^6 of size 1771561 exceeds the budget 1048576"):
        suite_fusion_axioms(11)


@pytest.mark.parametrize("k", range(2, 7))
def test_associativity_fault_matches_the_triple_scan(k):
    table = fusion_table(k)
    assert verify._associativity_fault(table) is None
    assert first_non_associative(table) is None


@st.composite
def _perturbed_tables(draw):
    # the fusion table of a small k with one entry changed: a term dropped,
    # duplicated or replaced by another class, the entry kept sorted
    k = draw(st.integers(2, 6))
    table = [list(row) for row in fusion_table(k)]
    n = len(table)
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    terms = list(table[a][b])
    i = draw(st.integers(0, len(terms) - 1))
    change = draw(st.sampled_from(["drop", "duplicate", "replace"]))
    if change == "drop":
        del terms[i]
    elif change == "duplicate":
        terms.append(terms[i])
    else:
        terms[i] = draw(st.integers(0, n - 1))
    table[a][b] = tuple(sorted(terms))
    return table


@settings(max_examples=150, deadline=None)
@given(_perturbed_tables())
def test_associativity_fault_matches_the_triple_scan_on_perturbed_tables(table):
    assert verify._associativity_fault(table) == first_non_associative(table)


def test_fusion_examples():
    k = 3
    a = U0Label(k, 1, 1)
    assert fuse_u0(a, a) == FusionSum([U0Label(3, 0, 2), U0Label(3, 0, 5)])
    vac = u0_vacuum(k)
    for lab in all_u0_labels(k):
        assert fuse_u0(vac, lab) == FusionSum([lab])


def test_fusion_level_mismatch():
    with pytest.raises(ValueError):
        fuse_u0(u0_vacuum(2), u0_vacuum(3))


@pytest.mark.parametrize("k", range(2, 6))
def test_simple_current_action(k):
    for p in range(2 * k):
        current = U0Label(k, 0, p)
        for lab in all_u0_labels(k):
            assert fuse_u0(current, lab) == FusionSum(
                [canonicalize_u0(k, lab.i, lab.l + p)]
            )


@pytest.mark.parametrize("k", range(2, 6))
def test_simple_current_group(k):
    currents = simple_currents(k)
    assert len(currents) == 2 * k
    assert len(set(currents)) == 2 * k
    assert currents[0] == u0_vacuum(k)
    for p, q in product(range(2 * k), repeat=2):
        assert fuse_u0(currents[p], currents[q]) == FusionSum(
            [currents[(p + q) % (2 * k)]]
        )
    # invertibility
    for p in range(2 * k):
        assert fuse_u0(currents[p], currents[(-p) % (2 * k)]) == FusionSum(
            [u0_vacuum(k)]
        )


@pytest.mark.parametrize("k", range(2, 6))
def test_fusion_is_class_invariant(k):
    labels = all_u0_labels(k)
    for a, b in product(labels, repeat=2):
        assert fuse_u0(a.partner(), b) == fuse_u0(a, b)
        assert fuse_u0(a, b.partner()) == fuse_u0(a, b)


@pytest.mark.parametrize("k", range(2, 5))
def test_fusion_commutative_and_associative(k):
    labels = all_u0_labels(k)
    pair = {}
    for a, b in product(labels, repeat=2):
        ab = fuse_u0(a, b)
        pair[a, b] = ab
        assert ab == fuse_u0(b, a)
        assert all(mult == 1 for _, mult in ab.items())
    for a, b, c in product(labels, repeat=3):
        left = Counter()
        for t, n in pair[a, b].items():
            for u, p in fuse_u0(t, c).items():
                left[u] += n * p
        right = Counter()
        for t, n in pair[b, c].items():
            for u, p in fuse_u0(a, t).items():
                right[u] += n * p
        assert left == right, (a, b, c)


@pytest.mark.parametrize("k", range(2, 9))
def test_unique_dual(k):
    labels = all_u0_labels(k)
    vac = u0_vacuum(k)
    for a in labels:
        duals = [b for b in labels if vac in fuse_u0(a, b)]
        assert duals == [theta_u0(a)]
        assert fuse_u0(a, duals[0]).multiplicity(vac) == 1


def test_summand_weight_examples():
    assert summand_weight(SummandLabel(3, 0, 0, 0)) == (Fraction(0), 1)
    assert summand_weight(SummandLabel(3, 0, 0, 1)) == (Fraction(1, 6), 1)
    x = SummandLabel(3, 0, 1, 2)
    assert x.lattice_offset == Fraction(-5, 6)
    assert summand_weight(x) == (Fraction(2, 3), 1)


_offsets = st.one_of(
    st.integers(-40, 40).map(Fraction),
    st.integers(-80, 80).map(lambda n: Fraction(n, 2)),
    st.fractions(-40, 40, max_denominator=200),
)


@given(_offsets)
def test_coset_min_matches_a_search(lam):
    # every minimizer of (n + lam)^2 lies within |lam| + 1 of zero
    reach = abs(lam.numerator) // lam.denominator + 2
    values = [(n + lam) ** 2 for n in range(-reach, reach + 1)]
    best = min(values)
    # the kernel takes lam = s/d and returns d^2 times the minimum
    d = lam.denominator
    lattice, count = u0._coset_min(lam.numerator, d)
    assert (Fraction(lattice, d * d), count) == (best, values.count(best))


def test_top_level_examples():
    assert top_level(u0_vacuum(3)) == TopLevel(Fraction(0), 1)
    assert top_level(U0Label(3, 0, 1)) == TopLevel(Fraction(1, 6), 1)
    assert top_level(U0Label(3, 0, 2)) == TopLevel(Fraction(2, 3), 2)
    # self-paired row at odd k
    assert top_level(U0Label(3, 1, 0)).weight > 0


@pytest.mark.parametrize("k", range(2, 21))
def test_top_level_matches_closed_form(k):
    for l in range(2 * k):
        assert top_level(U0Label(k, 0, l)) == top_level_closed_form(k, l), (k, l)


@pytest.mark.parametrize("k", range(2, 11))
def test_top_level_positive_off_vacuum(k):
    for lab in all_u0_labels(k):
        if lab == u0_vacuum(k):
            continue
        assert top_level(lab).weight > 0, lab


def _range2_minimum(k: int, l: int):
    """Minimum of the summand weight over the upper index range, with argmins."""
    lo_bound = Fraction((k - 1) * (k - l), 2 * k)
    start = lo_bound.numerator // lo_bound.denominator
    if start < lo_bound:
        start += 1
    best, arg = None, []
    for j in range(start, k - 1):
        w, _ = summand_weight(SummandLabel(k, 0, j, l))
        if best is None or w < best:
            best, arg = w, [j]
        elif w == best:
            arg.append(j)
    return best, arg


@pytest.mark.parametrize("k", range(3, 16))
def test_minimization_range_bookkeeping(k):
    """The case analysis behind the closed form: the lower index range is
    minimized at j = 0 with value (k-1)l^2/4k, and for l >= 2 a global
    minimizer lies in the upper range with the predicted value."""
    for l in range(1, k + 1):
        bound = Fraction((k - 1) * (k - l), 2 * k)
        range1 = [j for j in range(0, k - 1) if j <= bound]
        weights1 = {j: summand_weight(SummandLabel(k, 0, j, l)).weight for j in range1}
        assert weights1[0] == Fraction((k - 1) * l * l, 4 * k)
        assert all(weights1[0] <= w for w in weights1.values())

        best2, arg2 = _range2_minimum(k, l)
        base = Fraction(l * (2 * k - l), 4 * k)
        if l == 1:
            assert best2 == Fraction(5, 4) - Fraction(1, 4 * k) and arg2 == [k - 2]
        elif l == 2:
            assert best2 == Fraction(k - 1, k) and arg2 == [k - 2]
        elif l % 2:
            assert best2 == base - Fraction(1, 4) and arg2 == [k - (l + 1) // 2]
        else:
            assert best2 == base and arg2 == [k - 1 - l // 2, k - l // 2]

        overall = top_level(U0Label(k, 0, l)).weight
        if l >= 2:
            assert best2 == overall and any(j in arg2 for j in range(k - 1))
        else:
            assert overall == weights1[0] < best2


@pytest.mark.parametrize("k", range(2, 9))
def test_weight_mod1_class_invariant(k):
    for i in range(k):
        for l in range(2 * k):
            a = U0Label(k, i, l)
            assert weight_mod1(a) == weight_mod1(a.partner())


@pytest.mark.parametrize("k", range(2, 11))
def test_weight_mod1_simple_current_formula(k):
    for l in range(2 * k):
        assert weight_mod1(U0Label(k, 0, l)) == mod1(
            Fraction((k - 1) * l * l, 4 * k)
        )


def test_weight_mod1_examples():
    assert weight_mod1(u0_vacuum(3)) == 0
    assert weight_mod1(U0Label(3, 0, 1)) == Fraction(1, 6)


def test_weight_mod1_lifts_to_top_level():
    for k in range(2, 9):
        for lab in all_u0_labels(k):
            assert mod1(top_level(lab).weight) == weight_mod1(lab)


@pytest.mark.parametrize("k", range(2, 41))
def test_weight_kernel_matches_the_fraction_reference(k):
    """Every summand X(i, j, l) and every top level at level k, against the
    Fraction code in tests/weights.py.  That code reads (i, j) in its
    parafermion part and (i - 2j, l) in its lattice part, so each part is
    evaluated once per distinct argument, scaled by Q, and summed per summand."""
    q = 4 * k * (k - 1) * (k + 1)

    def scaled(w: Fraction) -> int:
        assert (w * q).denominator == 1, (k, w)
        return int(w * q)

    pf = [[scaled(ref.pf_factor_weight(k, i, j)) for j in range(k - 1)] for i in range(k)]
    lattice = {}
    for i in range(k):
        for l in range(2 * k):
            best = dim = None
            for j in range(k - 1):
                key = (i - 2 * j, l)
                if key not in lattice:
                    m, count = ref.coset_min(SummandLabel(k, i, j, l).lattice_offset)
                    lattice[key] = scaled((k - 1) * k * m), count
                m, count = lattice[key]
                w = pf[i][j] + m
                assert u0._summand_num(k, i, j, l) == (w, count), (k, i, j, l)
                if best is None or w < best:
                    best, dim = w, count
                elif w == best:
                    dim += count
            assert u0._top_level_num(k, i, l) == (best, dim), (k, i, l)


@pytest.mark.parametrize("k", range(2, 9))
def test_public_weights_match_the_fraction_reference(k):
    for i in range(k):
        for l in range(2 * k):
            a = U0Label(k, i, l)
            assert top_level(a) == ref.top_level(a), a
            for j in range(k - 1):
                x = SummandLabel(k, i, j, l)
                assert summand_weight(x) == ref.summand_weight(x), x


@pytest.mark.parametrize("k", range(2, 13))
def test_weight_mod1_matches_the_fraction_reference_on_raw_pairs(k):
    # the table is per class, so this also checks that a class's raw pairs agree
    index = u0.class_index(k)
    pair_class, q, table = index.pair_class, index.q, index.weight
    for i in range(k):
        for l in range(2 * k):
            a = U0Label(k, i, l)
            assert weight_mod1(a) == ref.weight_mod1(a) \
                == Fraction(table[pair_class[i][l]], q), a


def test_top_level_builds_one_fraction_per_label(monkeypatch):
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    expected = {a: ref.top_level(a) for k in (2, 3, 7, 12) for a in all_u0_labels(k)}
    monkeypatch.setattr(u0, "Fraction", Counted)
    for a, level in expected.items():
        built.clear()
        assert top_level(a) == level
        assert len(built) <= 1, (a, built)
        for weigh in (weight_mod1, lambda a: summand_weight(SummandLabel(a.k, a.i, 0, a.l))):
            built.clear()
            weigh(a)
            assert len(built) <= 1, (a, built)
        built.clear()
        assert verify_weight_difference(a.k, a.i, a.k - 2, a.l)
        assert not built, (a, built)


def test_b_form_examples():
    assert b_form_u0(0, U0Label(3, 1, 1)) == 0
    assert b_form_u0(1, U0Label(3, 1, 1)) == Fraction(5, 6)


@pytest.mark.parametrize("k", range(2, 7))
def test_b_form_class_invariant(k):
    for p in range(2 * k):
        for i in range(k):
            for l in range(2 * k):
                a = U0Label(k, i, l)
                assert b_form_u0(p, a) == b_form_u0(p, a.partner())


def test_theta_examples():
    assert theta_u0(u0_vacuum(4)) == u0_vacuum(4)
    assert theta_u0(U0Label(3, 0, 1)) == U0Label(3, 0, 5)


@pytest.mark.parametrize("k", range(2, 9))
def test_theta_is_an_involution(k):
    for lab in all_u0_labels(k):
        assert theta_u0(theta_u0(lab)) == lab


@pytest.mark.parametrize("k", range(2, 5))
def test_theta_is_a_fusion_automorphism(k):
    labels = all_u0_labels(k)
    for a, b in product(labels, repeat=2):
        assert fuse_u0(theta_u0(a), theta_u0(b)) == fuse_u0(a, b).map_labels(theta_u0)


def test_phi_grade_examples():
    assert phi_grade(u0_vacuum(3)) == 0
    assert phi_grade(U0Label(4, 1, 5)) == 1


@pytest.mark.parametrize("k", range(2, 5))
def test_phi_grade_additive_and_well_defined(k):
    labels = all_u0_labels(k)
    for a in labels:
        assert phi_grade(a) == phi_grade(a.partner())
    for a, b in product(labels, repeat=2):
        grade = (phi_grade(a) + phi_grade(b)) % k
        for t, _ in fuse_u0(a, b).items():
            assert phi_grade(t) == grade


@pytest.mark.parametrize("k", range(2, 8))
def test_stabilizing_currents_closed_form(k):
    for lab in all_u0_labels(k):
        expected = (0, k) if k % 2 and lab.i == (k - 1) // 2 else (0,)
        assert stabilizing_currents(lab) == expected



@pytest.mark.parametrize("k", range(2, 8))
def test_stabilizing_currents_are_the_moves_that_fix_a_class_number(k):
    # the label-by-label reference against the program's class-number route
    index = class_index(k)
    for c, a in enumerate(all_u0_labels(k)):
        fixed = tuple(p for p in range(2 * k) if index.moved([c], [(p,)]) == [(c,)])
        assert stabilizing_currents(a) == fixed

def test_stabilizing_currents_examples():
    assert stabilizing_currents(U0Label(4, 1, 3)) == (0,)
    assert stabilizing_currents(U0Label(3, 1, 0)) == (0, 3)
    assert stabilizing_currents(U0Label(3, 0, 0)) == (0,)


@pytest.mark.parametrize("k", range(2, 6))
def test_weight_difference_congruence(k):
    for i in range(k):
        for j in range(max(k - 1, 1)):
            for s in range(2 * (k - 1) * k):
                assert verify_weight_difference(k, i, j, s), (k, i, j, s)


def test_weight_difference_validation():
    with pytest.raises(ValueError):
        verify_weight_difference(3, 3, 0, 0)
    with pytest.raises(ValueError):
        verify_weight_difference(3, 0, 2, 0)
    with pytest.raises(ValueError):
        verify_weight_difference(3, 0, 0, 12)


def test_fusion_over_term_budget_fails_fast(capsys):
    # U(4*10^8, 0) x U(4*10^8, 0) at k = 10^9 has 4*10^8 + 1 terms
    cached = u0._fuse_u0_terms.cache_info().currsize
    start = time.perf_counter()
    status = main(["fusion", "--k", "1000000000", "--left", "400000000,0",
                   "--right", "400000000,0"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert status == 2 and captured.out == ""
    assert captured.err == ("error: fusion product of size 400000001 exceeds "
                            "the budget 1048576\n")
    assert u0._fuse_u0_terms.cache_info().currsize == cached


class _Admitted(Exception):
    pass


def test_fusion_term_budget_admits_the_last_count(monkeypatch):
    # i1 = i2 = i has terms r = 0, 2, ..., min(2i, 2(k-1) - 2i): 2^20 of them
    # at k = 2^21 - 1, i = 2^20 - 1, and 2^20 + 1 at k = 2^21 + 1, i = 2^20
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(u0, "_fuse_u0_terms", admitted)
    a = U0Label(2**21 - 1, 2**20 - 1, 0)
    with pytest.raises(_Admitted):
        fuse_u0(a, a)
    b = U0Label(2**21 + 1, 2**20, 0)
    with pytest.raises(CodeTooLargeError,
                       match="fusion product of size 1048577 exceeds the budget 1048576"):
        fuse_u0(b, b)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_fusion_term_count_matches_the_rule(k):
    for a in all_u0_labels(k):
        for b in all_u0_labels(k):
            lo, hi = abs(a.i - b.i), min(a.i + b.i, 2 * (k - 1) - a.i - b.i)
            terms = sum(m for _, m in fuse_u0(a, b).items())
            assert terms == (hi - lo) // 2 + 1
