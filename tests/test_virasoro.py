from fractions import Fraction
from itertools import product

import pytest

from parafusion.fusion import FusionSum
from parafusion.parafermion import all_pf_labels, fuse_pf, pf_weight
from parafusion.virasoro import (
    VirasoroLabel,
    all_virasoro_labels,
    central_charge,
    fuse_virasoro,
    highest_weight,
    kac_canonical,
    virasoro_vacuum,
)


@pytest.mark.parametrize("m, expected", [
    (1, Fraction(1, 2)),
    (2, Fraction(7, 10)),
    (3, Fraction(4, 5)),
    (4, Fraction(6, 7)),
])
def test_central_charge(m, expected):
    assert central_charge(m) == expected


def test_central_charge_rejects_bad_level():
    with pytest.raises(ValueError):
        central_charge(0)


@pytest.mark.parametrize("m, r, s, expected", [
    (1, 1, 1, Fraction(0)),
    (1, 2, 2, Fraction(1, 16)),
    (1, 2, 1, Fraction(1, 2)),
    (2, 2, 2, Fraction(3, 80)),  # tricritical Ising sigma
    (2, 3, 3, Fraction(1, 10)),  # tricritical Ising epsilon
])
def test_highest_weight_examples(m, r, s, expected):
    assert highest_weight(m, r, s) == expected


def test_highest_weight_rejects_out_of_table():
    with pytest.raises(ValueError):
        highest_weight(1, 3, 1)
    with pytest.raises(ValueError):
        highest_weight(1, 1, 4)
    with pytest.raises(ValueError):
        highest_weight(2, 0, 1)


@pytest.mark.parametrize("m", range(1, 11))
def test_kac_symmetry(m):
    for r in range(1, m + 2):
        for s in range(1, m + 3):
            assert highest_weight(m, r, s) == highest_weight(m, m + 2 - r, m + 3 - s)


@pytest.mark.parametrize("m", range(1, 11))
def test_canonical_label_count(m):
    labels = all_virasoro_labels(m)
    assert len(labels) == (m + 1) * (m + 2) // 2
    assert all(lab.is_canonical for lab in labels)
    assert len(set(labels)) == len(labels)


def test_canonicalization_is_a_class_retraction():
    for m in range(1, 6):
        for r in range(1, m + 2):
            for s in range(1, m + 3):
                c = kac_canonical(m, r, s)
                assert c.is_canonical
                assert c in (VirasoroLabel(m, r, s), VirasoroLabel(m, r, s).kac_partner())


def test_fusion_examples():
    one = virasoro_vacuum(1)
    sigma = VirasoroLabel(1, 2, 2)
    eps = VirasoroLabel(1, 2, 1)
    assert fuse_virasoro(one, sigma) == FusionSum([sigma])
    assert fuse_virasoro(eps, eps) == FusionSum([one])
    # Ising: sigma x sigma = 1 + eps
    assert fuse_virasoro(sigma, sigma) == FusionSum([one, eps])


@pytest.mark.parametrize("m", range(1, 9))
def test_unit_law(m):
    one = virasoro_vacuum(m)
    for lab in all_virasoro_labels(m):
        assert fuse_virasoro(one, lab) == FusionSum([lab])
        assert fuse_virasoro(lab, one) == FusionSum([lab])


def test_level_mismatch_is_an_error():
    with pytest.raises(ValueError):
        fuse_virasoro(virasoro_vacuum(1), virasoro_vacuum(2))


def _fuse_virasoro_double_sum(a, b):
    """The minimal-model rule as a double sum over 1 <= i <= min{r1, r2,
    m+2-r1, m+2-r2} and 1 <= j <= min{s1, s2, m+3-s1, m+3-s2}, each term
    the label (|r1-r2| + 2i - 1, |s1-s2| + 2j - 1)."""
    m, r1, s1, r2, s2 = a.m, a.r, a.s, b.r, b.s
    i_max = min(r1, r2, m + 2 - r1, m + 2 - r2)
    j_max = min(s1, s2, m + 3 - s1, m + 3 - s2)
    return FusionSum([
        kac_canonical(m, abs(r1 - r2) + 2 * i - 1, abs(s1 - s2) + 2 * j - 1)
        for i in range(1, i_max + 1)
        for j in range(1, j_max + 1)
    ])


@pytest.mark.parametrize("m", range(1, 10))
def test_fusion_matches_the_double_sum_on_raw_labels(m):
    labels = [VirasoroLabel(m, r, s) for r in range(1, m + 2) for s in range(1, m + 3)]
    for a, b in product(labels, repeat=2):
        assert fuse_virasoro(a, b) == _fuse_virasoro_double_sum(a, b), (a, b)


def _fuse_sums(s, t):
    """Fuse a FusionSum against a label, collecting multiplicities."""
    from collections import Counter

    out = Counter()
    for lab, mult in s.items():
        for u, n in fuse_virasoro(lab, t).items():
            out[u] += mult * n
    return out


@pytest.mark.parametrize("m", range(1, 5))
def test_commutativity_and_associativity_exhaustive(m):
    labels = all_virasoro_labels(m)
    products = {}
    for a, b in product(labels, repeat=2):
        ab = fuse_virasoro(a, b)
        products[a, b] = ab
        assert ab == fuse_virasoro(b, a)
        # the minimal-model rule never produces repeated canonical terms
        assert all(mult == 1 for _, mult in ab.items())
    from collections import Counter

    for a, b, c in product(labels, repeat=3):
        left = _fuse_sums(products[a, b], c)
        right = Counter()
        for t, n in products[b, c].items():
            for u, p in fuse_virasoro(a, t).items():
                right[u] += n * p
        assert left == right, (a, b, c)


@pytest.mark.parametrize("m", range(1, 5))
def test_fusion_is_class_invariant(m):
    labels = all_virasoro_labels(m)
    for a, b in product(labels, repeat=2):
        assert fuse_virasoro(a.kac_partner(), b) == fuse_virasoro(a, b)
        assert fuse_virasoro(a, b.kac_partner()) == fuse_virasoro(a, b)


def test_level_two_parafermions_are_the_ising_model():
    # the parafermion factor of U_0 at k = 3 has level 2: the Z_2 parafermion
    # algebra is the Ising model, the m = 1 minimal model, so the Kac table
    # is an independent oracle for its weights and fusion rules
    assert central_charge(1) == Fraction(1, 2)
    ising = {highest_weight(1, x.r, x.s): x for x in all_virasoro_labels(1)}
    pf = {pf_weight(a): a for a in all_pf_labels(2)}
    assert set(ising) == set(pf) == {Fraction(0), Fraction(1, 16), Fraction(1, 2)}
    to_ising = {a: ising[w] for w, a in pf.items()}
    pairs = list(product(pf.values(), repeat=2))
    assert len(pairs) == 9
    for a, b in pairs:
        assert fuse_pf(a, b).map_labels(to_ising.__getitem__) \
            == fuse_virasoro(to_ising[a], to_ising[b]), (a, b)
