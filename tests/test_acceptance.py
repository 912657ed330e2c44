"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every check is exact; the only randomness is seeded sampling.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

from scans import act, phi_grade, theta_u0
from parafusion import lattice
from parafusion.arith import ResidueVector
from parafusion.codes import (
    Classification,
    all_codes,
    random_code,
    split_even_odd,
)
from parafusion.lattice import (
    GammaParity,
    coset_rep,
    discriminant_group,
    gamma_d_parity,
    ntilde_coset,
    random_n_element,
    verify_coset_inner_congruence,
    verify_coset_inner_congruence_vec,
    verify_pairing_matches_b_form,
)
from parafusion.u0 import (
    U0Label,
    all_u0_labels,
    fuse_u0,
    top_level,
    top_level_closed_form,
    u0_vacuum,
)
from parafusion.ud import (
    character_of,
    count_twisted,
    induce,
    orbits,
    weight_mod1_uxi,
)


def _verdict(number: int, passed: bool, description: str):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_class_count():
    ok = all(len(all_u0_labels(k)) == k * k for k in range(2, 13))
    _verdict(1, ok, "canonical label count equals k^2 for k = 2..12")


def test_criterion_2_fusion_ring_axioms():
    ok = True
    for k in range(2, 7):
        labels = all_u0_labels(k)
        pair = {}
        for a, b in product(labels, repeat=2):
            pair[a, b] = fuse_u0(a, b)
        ok = ok and all(
            pair[a, b] == pair[b, a] for a, b in product(labels, repeat=2)
        )
        for a, b, c in product(labels, repeat=3):
            left = Counter()
            for t, n in pair[a, b].items():
                for u, p in pair[t, c].items():
                    left[u] += n * p
            right = Counter()
            for t, n in pair[b, c].items():
                for u, p in pair[a, t].items():
                    right[u] += n * p
            if left != right:
                ok = False
                break
        if not ok:
            break
    for k in range(2, 9):
        labels = all_u0_labels(k)
        vac = u0_vacuum(k)
        for a in labels:
            if fuse_u0(vac, a).items() != ((a, 1),):
                ok = False
            duals = [b for b in labels if vac in fuse_u0(a, b)]
            if duals != [theta_u0(a)] or fuse_u0(a, duals[0]).multiplicity(vac) != 1:
                ok = False
    _verdict(2, ok, "fusion ring axioms: commutativity and associativity exact "
                    "for k <= 6; unit and unique-dual laws for k <= 8")


def test_criterion_3_top_level_oracle():
    ok = all(
        top_level(U0Label(k, 0, l)) == top_level_closed_form(k, l)
        for k in range(2, 51)
        for l in range(2 * k)
    )
    _verdict(3, ok, "top-level oracle equals the closed form for k <= 50, all l")


def _on_translates(k, reps_x, reps_y, pair_target, norm_target, seed, samples=20):
    """Whether 2k^2 <x, y> = pair_target mod 2k^2 and, unless norm_target is
    None, 2k^2 <x, x> = norm_target mod 4k^2 on `samples` pairs of N-translates
    of the representatives, each r + random_n_element drawn from Random(seed),
    x before y; every pairing is an integer dot product of numerators over 2k."""
    rng = random.Random(seed)
    m = 2 * k * k

    def dot(xs, ys):
        return sum(a * b for x, y in zip(xs, ys) for a, b in zip(x.num, y.num))

    for _ in range(samples):
        xs = [r + random_n_element(k, rng) for r in reps_x]
        ys = [r + random_n_element(k, rng) for r in reps_y]
        if (dot(xs, ys) - pair_target) % m or (
                norm_target is not None and (dot(xs, xs) - norm_target) % (2 * m)):
            return False
    return True


def _ntilde(k, residues):
    return [coset_rep(ntilde_coset(k, c)) for c in residues]


def test_criterion_4_lattice_congruences():
    # each congruence is decided by the verifier and checked on 20 sampled
    # translates, its target times 2k^2 read off the statement:
    # <x, y> = (k-1)(xi.eta)/2k mod Z, <x, x> = (k-1)(xi.xi)/2k mod 2Z, and
    # <x, y> = (xi | (k-1)nu - k*mu)/2k mod Z
    rng = random.Random(20260)
    ok = True
    for k in range(2, 7):
        for p in range(2 * k):
            for q in range(2 * k):
                seed = rng.randrange(2**30)
                if not (verify_coset_inner_congruence(k, p, q) and _on_translates(
                        k, _ntilde(k, [p]), _ntilde(k, [q]), k * (k - 1) * p * q,
                        k * (k - 1) * p * p, seed)):
                    ok = False
    for k in range(2, 7):
        for ell in (1, 2, 3):
            for _ in range(5):
                xi = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                eta = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                seed = rng.randrange(2**30)
                pair = k * (k - 1) * sum(a * b for a, b in zip(xi, eta))
                norm = k * (k - 1) * sum(a * a for a in xi)
                if not (verify_coset_inner_congruence_vec(xi, eta) and _on_translates(
                        k, _ntilde(k, xi), _ntilde(k, eta), pair, norm, seed)):
                    ok = False
            for _ in range(5):
                xi = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                mu = tuple(rng.randrange(k) for _ in range(ell))
                nu = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
                seed = rng.randrange(2**30)
                housing = [lattice._housing_rep(k, m, n) for m, n in zip(mu, nu)]
                pair = k * sum(c * ((k - 1) * n - k * m) for c, m, n in zip(xi, mu, nu))
                if not (verify_pairing_matches_b_form(xi, mu, nu) and _on_translates(
                        k, _ntilde(k, xi), housing, pair, None, seed)):
                    ok = False
    _verdict(4, ok, "coset inner-product congruences are decided and hold on all "
                    "sampled pairs (k <= 6, ell <= 3, 20 samples each, fixed seed)")


def test_criterion_5_parity_matches_classification():
    rng = random.Random(2026)
    valid = 0
    trials = 0
    ok = True
    parities = set()
    while valid < 100 and trials < 5000:
        trials += 1
        k = rng.randint(2, 6)
        ell = rng.randint(1, 4)
        code = random_code(k, ell, rng)
        rng.randrange(10**6)  # the seed gamma_d_parity once took: the same codes
        parity = gamma_d_parity(code)
        if code.classification is Classification.INVALID:
            ok = ok and parity is GammaParity.NOT_INTEGRAL
            continue
        valid += 1
        parities.add(parity)
        expected = (
            GammaParity.EVEN
            if code.classification is Classification.CASE_A
            else GammaParity.ODD
        )
        ok = ok and parity is expected
    ok = ok and valid >= 100 and parities == {GammaParity.EVEN, GammaParity.ODD}
    _verdict(5, ok, f"lattice parity matches code classification on {valid} "
                    "random valid codes (k <= 6, ell <= 4)")


def test_criterion_6_discriminant_group():
    ok = all(
        discriminant_group(k) == (2,) * (k - 2) + (2 * k,) for k in range(2, 13)
    )
    _verdict(6, ok, "discriminant divisors are (2, ..., 2, 2k) for k = 2..12")


def test_criterion_7_counting_consistency():
    ok = True
    checked = 0
    for k in (2, 3, 4):
        for ell in (1, 2):
            for code in all_codes(k, ell):
                if (code.classification is not Classification.CASE_A
                        or code.size > 64):
                    continue
                checked += 1
                census = orbits(code)
                chars = {o.character for o in census}
                if len(chars) != code.size:
                    ok = False
                    continue
                total = sum(count_twisted(code, chi) for chi in chars)
                census_total = 0
                for o in census:
                    if o.group.stabilizer_order == 1:
                        contribution = 1
                    elif k % 4 == 1:
                        contribution = o.group.stabilizer_order
                    else:
                        contribution = o.group.isotropic_order
                    census_total += contribution
                    report = induce(code, o.representative)
                    if report.summand_count != contribution:
                        ok = False
                if total != census_total:
                    ok = False
                if k % 2 == 0 and total != k ** (2 * ell) // code.size:
                    ok = False
    _verdict(7, ok, f"twisted-module counts are consistent on {checked} Case A "
                    "codes (k in {2,3,4}, ell <= 2, |D| <= 64)")


def test_criterion_8_characters():
    ok = True
    for k in (2, 3):
        for ell in (1, 2):
            for code in all_codes(k, ell):
                if code.classification is Classification.INVALID:
                    continue
                census = orbits(code)
                for info in census:
                    # the members: every codeword applied to the representative
                    members_chars = {
                        character_of(act(xi, info.representative), code)
                        for xi in code.elements
                    }
                    if members_chars != {info.character}:
                        ok = False
                if len({o.character for o in census}) != code.size:
                    ok = False
    _verdict(8, ok, "characters are orbit-invariant and exhaust the dual group "
                    "(k <= 3, ell <= 2, all valid codes)")


def test_criterion_9_symmetries():
    ok = True
    for k in range(2, 7):
        labels = all_u0_labels(k)
        for a in labels:
            if theta_u0(theta_u0(a)) != a:
                ok = False
            if phi_grade(a) != phi_grade(a.partner()):
                ok = False
        for a, b in product(labels, repeat=2):
            ab = fuse_u0(a, b)
            if fuse_u0(theta_u0(a), theta_u0(b)) != ab.map_labels(theta_u0):
                ok = False
            grade = (phi_grade(a) + phi_grade(b)) % k
            if any(phi_grade(t) != grade for t, _ in ab.items()):
                ok = False
    _verdict(9, ok, "theta is an order-2 fusion symmetry and the phi grading "
                    "is additive mod k (k <= 6, exhaustive)")


def test_criterion_10_weight_sanity():
    ok = True
    for k in range(2, 11):
        vac = u0_vacuum(k)
        for lab in all_u0_labels(k):
            if lab == vac:
                if top_level(lab) != (Fraction(0), 1):
                    ok = False
            elif top_level(lab).weight <= 0:
                ok = False
    rng = random.Random(77)
    tested = 0
    while tested < 60:
        code = random_code(rng.randint(2, 6), rng.randint(1, 4), rng)
        if code.classification is Classification.CASE_A:
            tested += 1
            if any(weight_mod1_uxi(xi) != 0 for xi in code.elements):
                ok = False
        elif code.classification is Classification.CASE_B:
            tested += 1
            d0, d1 = split_even_odd(code)
            if any(weight_mod1_uxi(xi) != 0 for xi in d0):
                ok = False
            if any(weight_mod1_uxi(xi) != Fraction(1, 2) for xi in d1):
                ok = False
    _verdict(10, ok, "top-level weights are positive off the vacuum (k <= 10) "
                     "and current weights vanish mod 1 on Case A codes, "
                     "equal 1/2 on odd parts")
