import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafusion import lattice
from parafusion.arith import ResidueVector
from parafusion.cli import main
from parafusion.codes import Classification, enumerate_code, random_code
from parafusion.lattice import (
    CosetSpec,
    GammaParity,
    LatticeVector,
    alpha_vector,
    coset_contains,
    coset_rep,
    discriminant_group,
    gamma_d_parity,
    n_basis,
    nja_coset,
    ntilde_coset,
    random_n_element,
    special_vectors,
    verify_coset_index,
    verify_coset_inner_congruence,
    verify_coset_inner_congruence_vec,
    verify_pairing_matches_b_form,
)
from parafusion.verify import suite_lattice_lemmas


@pytest.mark.parametrize("k", range(2, 13))
def test_special_vector_norms(k):
    sv = special_vectors(k)
    assert sv.gamma_k.norm() == 2 * k
    assert sv.gamma_km1.norm() == 2 * (k - 1)
    assert sv.d.norm() == 2 * (k - 1) * k
    assert sv.gamma_k.inner(sv.d) == 0
    assert sv.d == sv.gamma_k - alpha_vector(k, k).scaled(k)


def test_special_vectors_small_coordinates():
    assert special_vectors(2).d.coords == (1, -1)
    sv = special_vectors(3, a=(1, 0, 1))
    assert sv.delta.coords == (Fraction(1, 2), 0, Fraction(1, 2))


def test_special_vectors_rejects_bad_half_vector():
    with pytest.raises(ValueError):
        special_vectors(3, a=(1, 0))
    with pytest.raises(ValueError):
        special_vectors(3, a=(2, 0, 0))


@pytest.mark.parametrize("k", range(2, 9))
def test_n_basis_lies_in_n(k):
    gamma_k = special_vectors(k).gamma_k
    for beta in n_basis(k):
        assert beta.in_n()
        assert beta.inner(gamma_k) == 0


@pytest.mark.parametrize("k", range(2, 7))
def test_random_n_elements_lie_in_n(k):
    rng = random.Random(7)
    gamma_k = special_vectors(k).gamma_k
    for _ in range(25):
        v = random_n_element(k, rng)
        assert v.in_n()
        assert v.inner(gamma_k) == 0


@pytest.mark.parametrize("k", range(2, 11))
def test_random_n_element_is_the_beta_combination_of_its_draws(k):
    # the same draws, in the same order, as summing c_r beta_r one by one;
    # the next draw agrees too, so no draw is added or lost
    for seed in range(4):
        for bound in (0, 1, 2, 3, 7):
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(10):
                expected = LatticeVector(k, (0,) * k)
                for beta in n_basis(k):
                    expected = expected + beta.scaled(twin.randint(-bound, bound))
                assert random_n_element(k, rng, bound) == expected
            assert rng.random() == twin.random()


class _Undrawn(random.Random):
    def getrandbits(self, n):
        raise AssertionError("a draw was made")


@pytest.mark.parametrize("k, bound", [(3, -1), (3, -4), (1, 3), (0, 3), (-2, 0)])
def test_random_n_element_refuses_before_drawing(k, bound):
    # a negative bound rejected every draw forever, and k = 1 gave a rank-1
    # vector that LatticeVector itself refuses
    with pytest.raises(ValueError, match="bound must be >= 0" if k >= 2 else "rank k"):
        random_n_element(k, _Undrawn(0), bound)


@pytest.mark.parametrize("check", [
    lambda: verify_coset_inner_congruence(1, 0, 1),
    lambda: verify_coset_inner_congruence(0, 0, 1),
    lambda: verify_coset_inner_congruence_vec(ResidueVector(2, (0,)), ResidueVector(2, (1,))),
    lambda: verify_coset_inner_congruence_vec(ResidueVector(2, (1, 1)),
                                              ResidueVector(2, (1, 0))),
    lambda: verify_pairing_matches_b_form(ResidueVector(2, (1,)), (0,), ResidueVector(2, (1,))),
], ids=["scalar-k1", "scalar-k0", "vec-mod2", "vec-mod2-length2", "pairing-mod2"])
def test_coset_checks_refuse_rank_one_before_drawing(monkeypatch, check):
    # at k = 1 no N-coefficient is drawn, so the congruence checks passed
    # vacuously and the pairing check failed on a 0/1 vector of length 1;
    # the rank is refused before any congruence is decided
    def undecided(*args):
        raise AssertionError("a congruence was decided")

    monkeypatch.setattr(lattice, "_congruent", undecided)
    with pytest.raises(ValueError, match=r"^rank k must be >= 2, got [01]$"):
        check()


def test_coset_reps():
    assert coset_rep(ntilde_coset(2, 0)) == LatticeVector(2, (0, 0))
    assert coset_rep(ntilde_coset(2, 1)) == LatticeVector(
        2, (Fraction(-1, 4), Fraction(1, 4))
    )
    assert coset_rep(nja_coset(3, 0, (0, 0, 0))) == LatticeVector(3, (0, 0, 0))


@pytest.mark.parametrize("k", range(2, 6))
def test_coset_reps_are_dual_vectors(k):
    # every representative pairs integrally with the beta basis of N
    specs = [ntilde_coset(k, l) for l in range(2 * k)]
    specs += [
        nja_coset(k, j, (0,) * (k - 2) + (a1, a2))
        for j in range(k)
        for a1 in (0, 1)
        for a2 in (0, 1)
    ]
    for spec in specs:
        rep = coset_rep(spec)
        for beta in n_basis(k):
            assert rep.inner(beta).denominator == 1


def _composed_rep(spec):
    # the representative composed from the special vectors: -l*d/2k, or
    # delta_a - j*alpha_k + ((2j - wt(a))/2k) gamma_k
    k = spec.k
    sv = special_vectors(k, spec.a if spec.kind == "nja" else None)
    if spec.kind == "ntilde":
        return sv.d.scaled(Fraction(-spec.l, 2 * k))
    return (sv.delta - alpha_vector(k, k).scaled(spec.j)
            + sv.gamma_k.scaled(Fraction(2 * spec.j - sum(spec.a), 2 * k)))


@pytest.mark.parametrize("k", range(2, 9))
def test_coset_rep_is_the_special_vector_composition(k):
    specs = [ntilde_coset(k, l) for l in range(2 * k)]
    specs += [nja_coset(k, j, a) for j in range(k) for a in product((0, 1), repeat=k)]
    assert len(specs) == 2 * k + k * 2 ** k
    for spec in specs:
        assert coset_rep(spec) == _composed_rep(spec), spec


def test_coset_spec_rejects_a_bad_half_vector():
    for a in ((2, 0, 0), (1, 0), ()):
        with pytest.raises(ValueError, match="0/1 vector of length 3"):
            CosetSpec(3, "nja", a=a)
        with pytest.raises(ValueError, match="0/1 vector of length 3"):
            nja_coset(3, 0, a)


def test_coset_membership():
    rng = random.Random(3)
    spec = ntilde_coset(3, 2)
    rep = coset_rep(spec)
    assert coset_contains(spec, rep)
    assert coset_contains(spec, rep + random_n_element(3, rng))
    assert not coset_contains(ntilde_coset(3, 1), rep)
    assert not coset_contains(ntilde_coset(3, 0), rep)


@pytest.mark.parametrize("k", range(2, 7))
def test_scalar_coset_congruence(k):
    with patch.object(lattice, "_congruent", _sampled(5, 11)):
        for p in range(2 * k):
            for q in range(2 * k):
                assert verify_coset_inner_congruence(k, p, q)


def test_vector_coset_congruence():
    rng = random.Random(5)
    for k in (2, 3, 4):
        for ell in (1, 2, 3):
            for _ in range(4):
                xi = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                eta = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                with patch.object(lattice, "_congruent", _sampled(5, rng.randrange(10**6))):
                    assert verify_coset_inner_congruence_vec(xi, eta)


@pytest.mark.parametrize("k", range(2, 9))
def test_coset_index(k):
    assert verify_coset_index(k)


@pytest.mark.parametrize("k, expected", [
    (2, (4,)),
    (3, (2, 6)),
    (4, (2, 2, 8)),
])
def test_discriminant_examples(k, expected):
    assert discriminant_group(k) == expected


@pytest.mark.parametrize("k", range(2, 13))
def test_discriminant_pattern(k):
    assert discriminant_group(k) == (2,) * (k - 2) + (2 * k,)


def test_gamma_d_parity_examples():
    assert gamma_d_parity(enumerate_code(3, 2, [])) == GammaParity.EVEN
    assert gamma_d_parity(enumerate_code(3, 1, [[3]])) == GammaParity.ODD
    assert gamma_d_parity(enumerate_code(5, 1, [[5]])) == GammaParity.EVEN
    assert gamma_d_parity(enumerate_code(3, 1, [[1]])) == GammaParity.NOT_INTEGRAL


def test_gamma_d_parity_spot_check_fails_on_a_half_integral_translate(monkeypatch):
    # the representative of the coset 3, moved off N* by numerators (1, 1, 2)
    # over 6, keeps its pairing with itself integral (norm 4): the N* spot
    # check raises, also under python -O
    monkeypatch.setattr(lattice, "coset_rep", _off_n_dual(lambda spec: spec.l == 3, (1, 1, 2)))
    with pytest.raises(RuntimeError, match="N-translate"):
        gamma_d_parity(enumerate_code(3, 1, [[3]]))


def _parity_by_elements(code):
    # the generator-pair integrality test, then the norm of every codeword's
    # representative, read as |d|^2 * sum(c^2) / 4k^2
    k = code.k
    reps = [[coset_rep(ntilde_coset(k, c)) for c in g] for g in code.generators]
    if any(sum(x.inner(y) for x, y in zip(xs, ys)).denominator != 1
           for xs, ys in combinations_with_replacement(reps, 2)):
        return GammaParity.NOT_INTEGRAL
    nd = special_vectors(k).d.norm()
    odd = False
    for xi in code.elements:
        norm = nd * sum(c * c for c in xi) / (4 * k * k)
        if norm.denominator != 1:
            return GammaParity.NOT_INTEGRAL
        odd = odd or norm.numerator % 2 == 1
    return GammaParity.ODD if odd else GammaParity.EVEN


def test_gamma_d_parity_matches_the_element_wise_norms():
    rng = random.Random(1912)
    seen = {}
    for _ in range(600):
        code = random_code(rng.randint(2, 5), rng.randint(1, 3), rng, max_generators=3)
        rng.randrange(10**6)  # the seed gamma_d_parity once took: the same codes
        parity = gamma_d_parity(code)
        assert parity == _parity_by_elements(code), code
        seen[parity] = seen.get(parity, 0) + 1
    assert set(seen) == set(GammaParity) and min(seen.values()) >= 20, seen


def test_gamma_d_parity_builds_no_codeword():
    # 2e_i + 2e_21 for i = 1..20 at k = 2: a Case A code of 2^20 codewords
    gens = [[2 if p in (i, 20) else 0 for p in range(21)] for i in range(20)]
    code = enumerate_code(2, 21, gens)
    assert code.size == 2 ** 20
    start = time.perf_counter()
    assert gamma_d_parity(code) == GammaParity.EVEN
    assert time.perf_counter() - start < 1.0


def test_lattice_lemmas_fail_on_a_half_integral_translate(monkeypatch, capsys):
    # the representative of the zero coset moved off N*, by 1/4 alpha_1: the
    # decided congruences must notice, and verify must exit 1
    monkeypatch.setattr(lattice, "coset_rep",
                        _off_n_dual(lambda spec: spec.kind == "ntilde" and spec.l == 0))
    assert not verify_coset_inner_congruence_vec(ResidueVector(4, (0,)), ResidueVector(4, (0,)))
    checks = {c.name: c for c in suite_lattice_lemmas(2, seed=1)}
    scalar = checks["scalar-coset-congruence"]
    assert not scalar.passed and scalar.detail == "failed at (p, q) = (0, 0)"
    assert checks["coset-index"].passed
    assert main(["verify", "--suite", "lattice-lemmas", "--k", "2", "--seed", "1"]) == 1
    assert '"all_passed": false' in capsys.readouterr().out


@pytest.mark.parametrize("k", range(2, 11))
def test_coset_representatives_lie_in_the_dual_of_n(k):
    # N* is what pairs integrally with N; the basis beta_r decides it
    reps = [coset_rep(ntilde_coset(k, p)) for p in range(2 * k)]
    reps += [lattice._housing_rep(k, m, n) for m in range(k) for n in range(2 * k)]
    assert lattice._in_n_dual(reps)
    for r in reps:
        assert all((r.inner(b)).denominator == 1 for b in n_basis(k))
    off = LatticeVector(k, (Fraction(1, 2 * k),) + (0,) * (k - 1))
    assert not lattice._in_n_dual([off]) and not lattice._in_n_dual(reps + [off])
    assert off.inner(n_basis(k)[0]).denominator != 1


def _off_n_dual(which, num=(1,)):
    """coset_rep, moved off N* on the cosets `which` picks by the vector whose
    leading numerators over 2k are `num` (by default 1/2k alpha_1)."""
    real = lattice.coset_rep

    def rep(spec):
        r = real(spec)
        if which(spec):
            return r + LatticeVector._of(spec.k, num + (0,) * (spec.k - len(num)))
        return r
    return rep


@pytest.mark.parametrize("moved, failing, detail", [
    (None, set(), ""),
    (lambda spec: spec.kind == "ntilde" and spec.l == 1,
     {"scalar-coset-congruence", "vector-coset-congruence", "coset-pairing-matches-b-form"},
     "failed at (p, q) = (0, 1)"),
    (lambda spec: spec.kind == "nja", {"coset-pairing-matches-b-form"}, ""),
], ids=["none-moved", "ntilde-1-moved", "housing-moved"])
def test_lattice_lemmas_decide_representatives_outside_n_dual(monkeypatch, moved, failing,
                                                              detail):
    # the verifiers build every representative in lattice, so one patch
    # moves them
    if moved is not None:
        monkeypatch.setattr(lattice, "coset_rep", _off_n_dual(moved))
    checks = {c.name: c for c in suite_lattice_lemmas(3, seed=1)}
    assert {name for name, c in checks.items() if not c.passed} == failing
    assert checks["scalar-coset-congruence"].detail == detail


def test_verifiers_decide_representatives_outside_n_dual(monkeypatch):
    monkeypatch.setattr(lattice, "coset_rep", _off_n_dual(lambda spec: True))
    assert not verify_coset_inner_congruence_vec(ResidueVector(6, (1, 2)), ResidueVector(6, (0, 4)))
    assert not verify_pairing_matches_b_form(ResidueVector(6, (1,)), (0,), ResidueVector(6, (2,)))


def test_congruence_is_checked_on_the_representatives_themselves():
    # in N*, the targets are still compared
    reps = [coset_rep(ntilde_coset(3, c)) for c in (1, 4)]
    pair = lattice._pair_inner(reps, reps)
    assert lattice._congruent(3, reps, reps, pair, pair)
    assert not lattice._congruent(3, reps, reps, pair + 1, None)
    assert not lattice._congruent(3, reps, reps, pair, pair + 18)  # 2k^2, not 4k^2


def test_congruence_checks_shapes_before_deciding():
    # a representative off N* used to end the check with False before the
    # component counts were compared; a mismatch now raises in either order
    rep = coset_rep(ntilde_coset(3, 1))
    off = LatticeVector(3, (Fraction(1, 6), 0, 0))
    assert not lattice._in_n_dual([off]) and lattice._in_n_dual([rep])
    for xs, ys in [([off], [rep, rep]), ([rep, rep], [off]),
                   ([rep], [rep, rep]), ([rep, rep], [rep]), ([rep], [])]:
        with pytest.raises(ValueError, match="component count mismatch"):
            lattice._congruent(3, xs, ys, 0, None)
    wide = coset_rep(ntilde_coset(4, 1))
    for xs, ys in [([rep], [wide]), ([wide], [rep]), ([off, wide], [rep, rep])]:
        with pytest.raises(ValueError, match="rank 3"):
            lattice._congruent(3, xs, ys, 0, 0)


def _congruent_by_vectors(k, reps_x, reps_y, pair_target, norm_target, samples, seed):
    # the verdict of _congruent recomputed with LatticeVector arithmetic: N*
    # membership from the basis pairings, then the representatives and
    # `samples` pairs of their N-translates r + n, n drawn from Random(seed)
    # with random_n_element (x before y), every case as Fractions
    m = 2 * k * k
    if any(r.inner(b).denominator != 1 for r in reps_x + reps_y for b in n_basis(k)):
        return False
    rng = random.Random(seed)
    cases = [(reps_x, reps_y)]
    for _ in range(samples):
        xs = [r + random_n_element(k, rng) for r in reps_x]
        cases.append((xs, [r + random_n_element(k, rng) for r in reps_y]))
    for xs, ys in cases:
        if (sum(x.inner(y) for x, y in zip(xs, ys)) - Fraction(pair_target, m)).denominator != 1:
            return False
        if norm_target is not None:
            norm = sum(x.norm() for x in xs) - Fraction(norm_target, m)
            if norm.denominator != 1 or norm.numerator % 2:
                return False
    return True


def _sampled(samples, seed):
    """lattice._congruent, each verdict also required of _congruent_by_vectors
    on `samples` translates drawn from Random(seed)."""
    real = lattice._congruent

    def congruent(*args):
        verdict = real(*args)
        assert verdict == _congruent_by_vectors(*args, samples, seed)
        return verdict
    return congruent


@st.composite
def _congruence_cases(draw):
    k = draw(st.integers(2, 6))
    ell = draw(st.integers(1, 3))

    def reps():
        out = []
        for _ in range(ell):
            if draw(st.booleans()):
                r = coset_rep(ntilde_coset(k, draw(st.integers(0, 2 * k - 1))))
            else:
                r = lattice._housing_rep(k, draw(st.integers(0, k - 1)),
                                         draw(st.integers(0, 2 * k - 1)))
            if draw(st.integers(0, 7)) == 0:  # moved, mostly off N*
                num = draw(st.lists(st.integers(-2 * k, 2 * k), min_size=k, max_size=k))
                r = r + LatticeVector._of(k, tuple(num))
            out.append(r)
        return out

    reps_x, reps_y = reps(), reps()
    m = 2 * k * k
    pair = lattice._pair_inner(reps_x, reps_y)
    norm = lattice._pair_inner(reps_x, reps_x)
    # right targets, or off by their modulus, most of the time
    pair += draw(st.sampled_from([0, 0, 0, 0, m, -m, 1, k, m - 1]))
    norm_shift = draw(st.sampled_from([None, 0, 0, 0, 0, 2 * m, -2 * m, m, 1, 2]))
    norm = None if norm_shift is None else norm + norm_shift
    return k, reps_x, reps_y, pair, norm, draw(st.integers(1, 4)), draw(st.integers(0, 2**30))


@settings(max_examples=300, deadline=None)
@given(_congruence_cases())
def test_congruence_verdict_matches_lattice_vector_arithmetic(case):
    # the decision on the representatives against inner and norm on sampled
    # translates r + n, representatives in N* or not, targets right or wrong
    k, reps_x, reps_y, pair, norm, samples, seed = case
    assert (lattice._congruent(k, reps_x, reps_y, pair, norm)
            == _congruent_by_vectors(k, reps_x, reps_y, pair, norm, samples, seed))


def test_gamma_d_parity_decides_representatives_outside_n_dual(monkeypatch):
    # at k = 5 the vector with numerators (1, 7, 0, 0, 0) over 10 has norm 1
    # and leaves N*; moving the representative of the coset 0 by it keeps every
    # generator pairing of D = <(5, 0)> integral, so only the decision can fail
    code = enumerate_code(5, 2, [[5, 0]])
    assert gamma_d_parity(code) == GammaParity.EVEN
    monkeypatch.setattr(lattice, "coset_rep", _off_n_dual(lambda spec: spec.l == 0, (1, 7)))
    with pytest.raises(RuntimeError, match="N-translate of the coset of"):
        gamma_d_parity(code)


# the three congruence details with every Ntilde representative moved off
# N*: every case fails, so each detail names the first case the suite draws,
# and they pin the order in which it draws its cases and per-check values
OFF_N_DUAL_DETAILS = {
    (2, 1): ("failed at (p, q) = (0, 0)", "failed at xi=(0,), eta=(2,)",
             "failed at xi=(3,), mu=(1,), nu=(3,)"),
    (2, 2): ("failed at (p, q) = (0, 0)", "failed at xi=(0,), eta=(0,)",
             "failed at xi=(1,), mu=(1,), nu=(2,)"),
    (2, 3): ("failed at (p, q) = (0, 0)", "failed at xi=(1,), eta=(2,)",
             "failed at xi=(0,), mu=(0,), nu=(3,)"),
    (3, 1): ("failed at (p, q) = (0, 0)", "failed at xi=(4,), eta=(0,)",
             "failed at xi=(0,), mu=(1,), nu=(3,)"),
    (3, 2): ("failed at (p, q) = (0, 0)", "failed at xi=(0,), eta=(0,)",
             "failed at xi=(1,), mu=(2,), nu=(5,)"),
    (3, 3): ("failed at (p, q) = (0, 0)", "failed at xi=(4,), eta=(4,)",
             "failed at xi=(2,), mu=(2,), nu=(3,)"),
}


@pytest.mark.parametrize("k, seed", sorted(OFF_N_DUAL_DETAILS))
def test_lattice_lemmas_keep_their_draw_order(monkeypatch, k, seed):
    monkeypatch.setattr(lattice, "coset_rep", _off_n_dual(lambda spec: spec.kind == "ntilde"))
    details = tuple(c.detail for c in suite_lattice_lemmas(k, seed=seed)[:3])
    assert details == OFF_N_DUAL_DETAILS[k, seed]


@st.composite
def _numerator_vectors(draw):
    # k and numerators over 2k, each entry either arbitrary or congruent to one
    # residue mod k, so vectors in N* and outside it are both drawn often
    k = draw(st.integers(2, 12))
    r = draw(st.integers(0, k - 1))
    entry = st.integers(-200, 200) | st.integers(-20, 20).map(lambda c: r + k * c)
    return k, draw(st.lists(entry, min_size=k, max_size=k))


@given(_numerator_vectors())
def test_n_dual_closed_form_matches_the_basis_pairings(case):
    k, num = case
    v = LatticeVector._of(k, tuple(num))
    assert lattice._in_n_dual([v]) == all(v.inner(b).denominator == 1 for b in n_basis(k))


def test_gamma_d_parity_matches_classification_on_random_codes():
    rng = random.Random(17)
    seen = set()
    for _ in range(60):
        k = rng.randint(2, 5)
        ell = rng.randint(1, 3)
        code = random_code(k, ell, rng)
        rng.randrange(10**6)  # the seed gamma_d_parity once took: the same codes
        parity = gamma_d_parity(code)
        seen.add(code.classification)
        expected = {
            Classification.CASE_A: GammaParity.EVEN,
            Classification.CASE_B: GammaParity.ODD,
            Classification.INVALID: GammaParity.NOT_INTEGRAL,
        }[code.classification]
        assert parity == expected, code
    assert Classification.CASE_A in seen


def test_pairing_matches_b_form_trivial_and_example():
    with patch.object(lattice, "_congruent", _sampled(5, 0)):
        assert verify_pairing_matches_b_form(
            ResidueVector(6, (0, 0)), (1, 2), ResidueVector(6, (3, 4)))
        assert verify_pairing_matches_b_form(ResidueVector(4, (2,)), (0,), ResidueVector(4, (1,)))


def test_pairing_matches_b_form_random_sweep():
    rng = random.Random(23)
    for k in (2, 3, 4):
        for ell in (1, 2):
            for _ in range(4):
                xi = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                mu = tuple(rng.randrange(k) for _ in range(ell))
                nu = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                with patch.object(lattice, "_congruent", _sampled(5, rng.randrange(10**6))):
                    assert verify_pairing_matches_b_form(xi, mu, nu)


def test_pairing_matches_b_form_shape_errors():
    with pytest.raises(ValueError):
        verify_pairing_matches_b_form(
            ResidueVector(6, (0,)), (1, 2), ResidueVector(6, (3, 4))
        )


def test_lattice_vector_validation():
    with pytest.raises(ValueError):
        LatticeVector(3, (1, 2))
    with pytest.raises(ValueError):
        LatticeVector(1, (1,))
    v = LatticeVector(2, (1, -1))
    w = LatticeVector(2, (Fraction(1, 2), Fraction(1, 2)))
    assert v.inner(w) == 0
    assert not w.in_n()
    assert (v - v).in_n()


def test_pairing_matches_b_form_refuses_mu_out_of_range():
    with pytest.raises(ValueError, match=r"mu entries must lie in \[0, 2\]"):
        verify_pairing_matches_b_form(ResidueVector(6, (1,)), (3,), ResidueVector(6, (0,)))


def test_lattice_vector_refuses_a_coordinate_off_the_grid():
    with pytest.raises(ValueError, match=r"coordinate 1/3 does not lie in \(1/4\)Z"):
        LatticeVector(2, (Fraction(1, 3), 0))


@st.composite
def _numerators(draw):
    # k, two numerator vectors over 2k (some entries integral or half-integral
    # coordinates), and a half-integral vector of coordinate sum 0
    k = draw(st.integers(2, 8))
    entry = st.integers(-60, 60) | st.integers(-6, 6).map(lambda c: k * c)
    vector = st.lists(entry, min_size=k, max_size=k)
    halves = draw(st.lists(st.integers(-5, 5), min_size=k - 1, max_size=k - 1))
    return k, draw(vector), draw(vector), halves + [-sum(halves)]


@given(_numerators())
def test_numerator_arithmetic_matches_fraction_arithmetic(case):
    k, a, b, n = case
    x, y = (LatticeVector(k, [Fraction(e, 2 * k) for e in v]) for v in (a, b))
    cx, cy = x.coords, y.coords
    assert cx == tuple(Fraction(e, 2 * k) for e in a)
    assert x.inner(y) == 2 * sum(p * q for p, q in zip(cx, cy))
    assert x.norm() == 2 * sum(p * p for p in cx)
    assert (x + y).coords == tuple(p + q for p, q in zip(cx, cy))
    assert (x - y).coords == tuple(p - q for p, q in zip(cx, cy))
    assert (-x).coords == tuple(-p for p in cx)
    z = LatticeVector(k, [Fraction(c, 2) for c in n])
    for v in (x, y, x - y, z, x + z):
        c = v.coords
        assert v.in_n() == (all(p.denominator == 1 for p in c) and sum(c) == 0)
    assert (z + z).in_n() and (x + z - x).in_n() == z.in_n()
