import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
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
        for bound in (1, 3):
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(10):
                expected = LatticeVector(k, (0,) * k)
                for beta in n_basis(k):
                    expected = expected + beta.scaled(twin.randint(-bound, bound))
                assert random_n_element(k, rng, bound) == expected
            assert rng.random() == twin.random()


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
    for p in range(2 * k):
        for q in range(2 * k):
            assert verify_coset_inner_congruence(k, p, q, samples=5, seed=11)


def test_vector_coset_congruence():
    rng = random.Random(5)
    for k in (2, 3, 4):
        for ell in (1, 2, 3):
            for _ in range(4):
                xi = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                eta = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                assert verify_coset_inner_congruence_vec(xi, eta, samples=5, seed=rng.randrange(10**6))


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
    # a translate outside N shifts a norm by an odd amount: the spot check
    # raises, also under python -O
    half = LatticeVector(3, (Fraction(1, 2), Fraction(-1, 2), 0))
    monkeypatch.setattr(lattice, "random_n_element", lambda k, rng: half)
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
        parity = gamma_d_parity(code, seed=rng.randrange(10**6))
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


def _half_translate(k, rng):
    return LatticeVector(k, (Fraction(1, 2), Fraction(-1, 2)) + (0,) * (k - 2))


def test_lattice_lemmas_fail_on_a_half_integral_translate(monkeypatch, capsys):
    # a translate outside N moves the norm of the zero coset by 1: the sampled
    # congruences must notice, and verify must exit 1
    monkeypatch.setattr(lattice, "random_n_element", _half_translate)
    assert not verify_coset_inner_congruence_vec(
        ResidueVector(4, (0,)), ResidueVector(4, (0,)), samples=1)
    checks = {c.name: c for c in suite_lattice_lemmas(2, seed=1)}
    scalar = checks["scalar-coset-congruence"]
    assert not scalar.passed and scalar.detail == "failed at (p, q) = (0, 0)"
    assert checks["coset-index"].passed
    assert main(["verify", "--suite", "lattice-lemmas", "--k", "2", "--seed", "1"]) == 1
    assert '"all_passed": false' in capsys.readouterr().out


def test_gamma_d_parity_matches_classification_on_random_codes():
    rng = random.Random(17)
    seen = set()
    for _ in range(60):
        k = rng.randint(2, 5)
        ell = rng.randint(1, 3)
        code = random_code(k, ell, rng)
        parity = gamma_d_parity(code, seed=rng.randrange(10**6))
        seen.add(code.classification)
        expected = {
            Classification.CASE_A: GammaParity.EVEN,
            Classification.CASE_B: GammaParity.ODD,
            Classification.INVALID: GammaParity.NOT_INTEGRAL,
        }[code.classification]
        assert parity == expected, code
    assert Classification.CASE_A in seen


def test_pairing_matches_b_form_trivial_and_example():
    assert verify_pairing_matches_b_form(
        ResidueVector(6, (0, 0)), (1, 2), ResidueVector(6, (3, 4)), samples=5, seed=0
    )
    assert verify_pairing_matches_b_form(
        ResidueVector(4, (2,)), (0,), ResidueVector(4, (1,)), samples=5, seed=0
    )


def test_pairing_matches_b_form_random_sweep():
    rng = random.Random(23)
    for k in (2, 3, 4):
        for ell in (1, 2):
            for _ in range(4):
                xi = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                mu = tuple(rng.randrange(k) for _ in range(ell))
                nu = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                assert verify_pairing_matches_b_form(
                    xi, mu, nu, samples=5, seed=rng.randrange(10**6)
                )


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
