"""Independent reference computations for checking parafusion's reports.

Nothing here imports parafusion.  Codewords and labels are plain integer
tuples, and every quantity is computed straight from its definition:

* the closure of a generator set in (Z_2k)^ell, by breadth-first search;
* Case A / Case B / Invalid, from the diagonal value (k-1)(x.x)/2k of every
  codeword and the pairing (k-1)(x.g)/2k of every codeword with every
  generator (the pairing is bilinear, so the generators cover the code);
* |D^perp|, by scanning all of (Z_2k)^ell;
* the orbit census of D acting on the k^(2 ell) classes of labels
  (mu, nu), one U(i, l) class per component under (i, l) ~ (k-1-i, l+k).

A character of D is named by its values on a list of codewords: two
vectors eta name the same character exactly when (x | eta) agrees mod 2k
for every x in that list, and a generating list suffices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

CASE_A, CASE_B, INVALID = "CaseA", "CaseB", "Invalid"


def dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def closure(k: int, length: int, gens, cap: int | None = None):
    """All sums of generators mod 2k, as a frozenset of tuples.

    Returns None once the closure is known to exceed `cap` elements.
    """
    n = 2 * k
    zero = (0,) * length
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % n for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if cap is not None and len(seen) > cap:
            return None
        frontier = nxt
    return frozenset(seen)


def diagonal(k: int, x) -> Fraction:
    """(k-1)(x.x)/2k as an exact rational."""
    return Fraction((k - 1) * dot(x, x), 2 * k)


def _is_even_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q.numerator % 2 == 0


def classify(k: int, elements, gens) -> str:
    """Case A, Case B or Invalid, from the definitions."""
    diags = [diagonal(k, x) for x in elements]
    if all(_is_even_integer(d) for d in diags):
        return CASE_A
    integral = all(d.denominator == 1 for d in diags) and all(
        Fraction((k - 1) * dot(x, g), 2 * k).denominator == 1
        for x in elements for g in gens
    )
    return CASE_B if integral else INVALID


def even_part(k: int, elements) -> frozenset:
    """The codewords whose diagonal value is an even integer."""
    return frozenset(x for x in elements if _is_even_integer(diagonal(k, x)))


def dual_size(k: int, length: int, gens) -> int:
    """|{eta in (Z_2k)^ell : (g | eta) = 0 mod 2k for every generator g}|."""
    n = 2 * k
    return sum(
        1 for eta in product(range(n), repeat=length)
        if all(dot(g, eta) % n == 0 for g in gens)
    )


def euclidean_weight(k: int, x) -> int:
    n = 2 * k
    return sum(min(e * e, (n - e) * (n - e)) for e in x)


def weight_mod1(k: int, x) -> Fraction:
    """(k-1)(x.x)/4k mod 1, the weight of the simple current U_x mod 1."""
    w = Fraction((k - 1) * dot(x, x), 4 * k)
    return w - (w.numerator // w.denominator)


def canonical_class(k: int, i: int, l: int) -> tuple[int, int]:
    """The smaller of the two names (i, l) and (k-1-i, l+k) of one class."""
    n = 2 * k
    return min((i, l % n), (k - 1 - i, (l + k) % n))


def all_classes(k: int) -> list[tuple[int, int]]:
    return sorted({canonical_class(k, i, l) for i in range(k) for l in range(2 * k)})


def label_eta(k: int, label) -> tuple[int, ...]:
    """eta = (k-1)nu - k mu mod 2k; the same on both names of a class."""
    return tuple(((k - 1) * l - k * i) % (2 * k) for i, l in label)


def eta_key(k: int, eta, key_vectors) -> tuple[int, ...]:
    """The character x -> (x | eta)/2k named by its values on key_vectors."""
    return tuple(dot(x, eta) % (2 * k) for x in key_vectors)


def census(k: int, length: int, elements, key_vectors) -> list[tuple[int, int, tuple]]:
    """Every orbit as (size, stabilizer order, character key), sorted."""
    classes = all_classes(k)
    words = sorted(elements)

    def shift(label, x):
        return tuple(canonical_class(k, i, l + c) for (i, l), c in zip(label, x))

    visited = set()
    out = []
    for label in product(classes, repeat=length):
        if label in visited:
            continue
        orbit = {shift(label, x) for x in words}
        visited |= orbit
        stab = sum(1 for x in words if shift(label, x) == label)
        out.append((len(orbit), stab, eta_key(k, label_eta(k, label), key_vectors)))
    return sorted(out)
