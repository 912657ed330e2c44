"""Brute-force scans kept as test-only references.  The ambient scans of
(Z_2k)^ell check the dual code and the character names that the program
reads off Hermite forms; each costs (2k)^ell steps per code.  The triple
scan checks the associativity verdict of the fusion-axioms suite."""

from itertools import chain, product

from parafusion.arith import ResidueVector

# (k, ell) pairs whose every code of all_codes is scanned, eta by eta:
# (2k)^ell <= 4096 holds for each.  The whole range k <= 8, ell <= 3 would
# scan 31 million vectors.
SCANNED = [(k, ell) for ell in (1, 2) for k in range(2, 9)] + [(2, 3), (3, 3)]


def ambient_keys(code):
    """Every eta in lexicographic order, with its values (g | eta) mod 2k on
    the generators g: equal keys name one coset of the dual code."""
    n = 2 * code.k
    for eta in product(range(n), repeat=code.length):
        yield eta, tuple(sum(a * b for a, b in zip(g, eta)) % n for g in code.generators)


def scanned_dual(code):
    """The dual code's elements, sorted: every eta whose key is zero."""
    return tuple(ResidueVector(2 * code.k, eta)
                 for eta, key in ambient_keys(code) if not any(key))


def first_hit_names(code):
    """The first eta of each key: the least eta of each character."""
    names = {}
    for eta, key in ambient_keys(code):
        names.setdefault(key, eta)
    return names


def first_non_associative(table):
    """The first triple (a, b, c) of class numbers, in lexicographic order,
    whose products (a x b) x c and a x (b x c) differ as multisets, or None:
    both sides summed afresh for each of the n^3 triples of a fusion table."""
    classes = range(len(table))
    return next(
        ((a, b, c) for a in classes for b in classes for c in classes
         if sorted(chain.from_iterable(table[t][c] for t in table[a][b]))
         != sorted(chain.from_iterable(table[a][t] for t in table[b][c]))),
        None,
    )
