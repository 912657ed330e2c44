"""The fusion ring of the rank-one extended parafermion algebra.

Irreducible modules are labeled U(i, l) with 0 <= i <= k-1 and l mod 2k,
subject to the identification (i, l) ~ (k-1-i, l+k); there are exactly k^2
classes.  Each module decomposes into summands X(i, j, l), 0 <= j < k-1,
given by a level-(k-1) parafermion factor tensored with a rank-one lattice
coset of offset -l/2k + (i-2j)/2(k-1) (in units of a generator of squared
norm 2(k-1)k).  Weights, the fusion product and simple currents are
computed exactly.

Every summand weight times Q = 4k(k-1)(k+1) is an integer: the level-(k-1)
parafermion weight has denominator 2(k-1)(k+1) (its numerator is
`pf_weight_num`) and the lattice part 4k(k-1).  So weights are held as
integer numerators over Q, minimized and compared as integers
(`_summand_num`), and each public weight function builds one `Fraction`
at its return.

`class_index` numbers the classes 0..k^2-1, with each class's eta and
weight mod 1, in one table per k for every layer that works on class
numbers (the orbit census, the `modules` report, the fusion-axioms suite),
each of which asks for it by k: the table of the last k asked is kept, so
a request builds it once; `fusion_table` is the fusion product on those
numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat, starmap
from operator import add
from typing import Iterable, Iterator, NamedTuple

from .arith import Value, check_budget
from .fusion import FusionSum, sl2_channels

__all__ = [
    "U0Label",
    "SummandLabel",
    "SummandWeight",
    "TopLevel",
    "canonicalize_u0",
    "u0_vacuum",
    "all_u0_labels",
    "ClassIndex",
    "class_index",
    "fuse_u0",
    "fusion_table",
    "simple_currents",
    "summand_weight",
    "top_level",
    "top_level_closed_form",
    "weight_mod1",
    "eta_u0",
    "pf_weight_num",
]

class U0Label(Value, fields=("k", "i", "l"), order=True):
    """A label (k; i, l) with 0 <= i <= k-1; l is stored reduced mod 2k."""

    def __init__(self, k: int, i: int, l: int) -> None:
        if k < 2:
            raise ValueError(f"level k must be >= 2, got {k}")
        if not (0 <= i <= k - 1):
            raise ValueError(f"index i must lie in [0, {k - 1}], got {i}")
        self.__dict__.update(k=k, i=i, l=l % (2 * k))

    def partner(self) -> "U0Label":
        return U0Label(self.k, self.k - 1 - self.i, self.l + self.k)

    @property
    def is_canonical(self) -> bool:
        other = self.k - 1 - self.i
        if self.i != other:
            return self.i < other
        return self.l < self.k

    def __str__(self) -> str:
        return ClassIndex.name(self.i, self.l)


def canonicalize_u0(k: int, i: int, l: int) -> U0Label:
    """Canonical class representative: smaller i, and l in [0, k) on the
    self-paired row 2i = k-1."""
    label = U0Label(k, i, l)
    return label if label.is_canonical else label.partner()


def u0_vacuum(k: int) -> U0Label:
    return U0Label(k, 0, 0)


def all_u0_labels(k: int) -> tuple[U0Label, ...]:
    """All k^2 canonical labels, sorted: the classes of `class_index` in turn."""
    if k < 2:
        raise ValueError(f"level k must be >= 2, got {k}")
    return tuple(U0Label(k, i, l) for i, l in ClassIndex.pairs(k, range(k * k)))


class ClassIndex(NamedTuple):
    """The k^2 classes numbered in canonical order, so class 0 is the
    vacuum, class p < 2k is U(0, p), and class c = 2k i + l is U(i, l) on
    canonical row i = c // 2k (`pairs`), named `name(i, l)`, with what each
    layer reads per class: `pair_class[i][l]` is the class of the raw pair
    (i, l), 0 <= l < 2k; `moves` holds the classes of (i, l) for
    0 <= l < 4k, row after canonical row, so each row twice over: c moved by
    d in [0, 2k), the class of (i, l + d), is `moves[c + 2k i + d]` (`moved`);
    `eta[c]` is its `eta_u0`; `weight[c]` Q times its weight mod 1, a
    residue mod `q` = Q.  Every table holds at most 2k^2 + 2k entries."""

    pair_class: list[list[int]]
    moves: list[int]
    eta: list[int]
    q: int
    weight: list[int]

    @staticmethod
    def pairs(k: int, classes: Iterable[int]) -> Iterator[tuple[int, int]]:
        """The canonical pair (i, l) of each class c at level k: c = 2k i + l."""
        return map(divmod, classes, repeat(2 * k))

    name = "U({},{})".format

    def names(self) -> list[str]:
        """The name of each class, by number."""
        k = len(self.pair_class)
        return list(starmap(self.name, self.pairs(k, range(k * k))))

    def moved(self, x: Iterable[int], words: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
        """The classes x moved by each word: class c = 2k i + l moved by d,
        the class of (i, l + d), is at c + 2k i + d in `moves`, which holds
        each row twice over."""
        n, get = 2 * len(self.pair_class), self.moves.__getitem__
        starts = [c + c // n * n for c in x]
        return [tuple(map(get, map(add, starts, d))) for d in words]


@lru_cache(maxsize=1)
def class_index(k: int) -> ClassIndex:
    """The one table of the classes at level k: see `ClassIndex`.  Only the
    last k's table is kept: a request works at one k."""
    if k < 2:
        raise ValueError(f"level k must be >= 2, got {k}")
    n, q = 2 * k, _weight_den(k)

    def number(i: int, l: int) -> int:
        if 2 * i > k - 1:  # (i, l) ~ (k-1-i, l+k)
            i, l = k - 1 - i, l + k
        # row i holds 2k classes, the self-paired row 2i = k-1 only k
        return n * i + l % (k if 2 * i == k - 1 else n)

    pair_class = [[number(i, l) for l in range(n)] for i in range(k)]
    moves = [c for row in pair_class[:(k + 1) // 2] for c in row * 2]
    return ClassIndex(
        pair_class, moves, [eta_u0(k, i, l) for i, l in ClassIndex.pairs(k, range(k * k))],
        q, [_summand_num(k, i, 0, l)[0] % q for i, l in ClassIndex.pairs(k, range(k * k))])


@lru_cache(maxsize=None)
def _fuse_u0_terms(k: int, i1: int, l1: int, i2: int, l2: int) -> tuple[U0Label, ...]:
    return tuple(canonicalize_u0(k, r, l1 + l2) for r in sl2_channels(k - 1, i1, i2))


def fuse_u0(a: U0Label, b: U0Label) -> FusionSum:
    """Fusion product: the sum of the classes of (r, l1+l2) over the
    level-(k-1) `sl2_channels` r of (i1, i2)."""
    if a.k != b.k:
        raise ValueError(f"cannot fuse labels at different levels {a.k} and {b.k}")
    # refused before any term is built or cached
    check_budget("fusion product", len(sl2_channels(a.k - 1, a.i, b.i)))
    return FusionSum(_fuse_u0_terms(a.k, a.i, a.l, b.i, b.l))


def fusion_table(k: int) -> list[list[tuple[int, ...]]]:
    """`table[a][b]`: the class numbers of the terms of the product of the
    classes a and b, sorted, so equal tuples are equal multisets."""
    pair_class, pairs = class_index(k).pair_class, list(ClassIndex.pairs(k, range(k * k)))
    return [[tuple(sorted(pair_class[t.i][t.l] for t in _fuse_u0_terms(k, i1, l1, i2, l2)))
             for i2, l2 in pairs] for i1, l1 in pairs]


def simple_currents(k: int) -> tuple[U0Label, ...]:
    """The 2k simple currents U(0, l), l = 0..2k-1; fusion-invertible and
    closed under the group law l + l' mod 2k."""
    if k < 2:
        raise ValueError(f"level k must be >= 2, got {k}")
    return tuple(U0Label(k, 0, l) for l in range(2 * k))


class SummandLabel(Value, fields=("k", "i", "j", "l"), order=True):
    """A summand label X(i, j, l): parafermion factor (i, j) at level k-1
    on a lattice coset of offset -l/2k + (i-2j)/2(k-1)."""

    def __init__(self, k: int, i: int, j: int, l: int) -> None:
        if k < 2:
            raise ValueError(f"level k must be >= 2, got {k}")
        if not (0 <= i <= k - 1):
            raise ValueError(f"index i must lie in [0, {k - 1}], got {i}")
        self.__dict__.update(k=k, i=i, j=j % max(k - 1, 1), l=l % (2 * k))

    @property
    def lattice_offset(self) -> Fraction:
        return -Fraction(self.l, 2 * self.k) + Fraction(self.i - 2 * self.j, 2 * (self.k - 1))

    def __str__(self) -> str:
        return f"X({self.i},{self.j},{self.l})"


class SummandWeight(NamedTuple):
    weight: Fraction
    minimizers: int  # number of minimizing lattice points (1 or 2)


class TopLevel(NamedTuple):
    weight: Fraction
    dimension: int


def _weight_den(k: int) -> int:
    """Q = 4k(k-1)(k+1): every summand weight times Q is an integer."""
    return 4 * k * (k - 1) * (k + 1)


def _coset_min(s: int, d: int) -> tuple[int, int]:
    """d^2 min_n (n + s/d)^2 over integers n, and how many n attain it."""
    # n d + s runs over r + dZ with r = s mod d in [0, d): the values nearest
    # zero are r and r - d, so the minimum is min(r, d-r)^2, attained twice
    # exactly when they tie at 2r = d
    r = s % d
    u = min(r, d - r)
    return u * u, 2 if 2 * r == d else 1


def _summand_num(k: int, i: int, j: int, l: int) -> tuple[int, int]:
    """Q h(X(i, j, l)) and the number of lattice minimizers, in integers: the
    lattice offset -l/2k + (i-2j)/2(k-1) is (k(i-2j) - (k-1)l)/2k(k-1)."""
    return _offset_num(k, i, j, k * (i - 2 * j) - (k - 1) * l)


def pf_weight_num(k: int, i: int, j: int) -> int:
    """2k(k+2) times the weight of the parafermion module M(k; i, j),
    0 <= i <= k, in integers.  At k = 1 it reads 0: the level-one
    parafermion algebra is trivial."""
    j %= k
    if j >= i:  # the partner (k-i, j-i) is canonical
        i, j = k - i, j - i
    t = i - 2 * j
    return k * t - t * t + 2 * k * (i - j + 1) * j


def _offset_num(k: int, i: int, j: int, s: int) -> tuple[int, int]:
    """Q times the weight of the parafermion factor (i, j) at level k-1 on the
    lattice offset s/D, D = 2k(k-1), and the number of lattice minimizers.

    The lattice part (k-1)k min_n (n + s/D)^2 is (k+1) u^2 / Q with u^2 the
    `_coset_min` of (s, D); the parafermion weight has denominator
    2(k-1)(k+1) = Q/2k.
    """
    lattice, count = _coset_min(s, 2 * k * (k - 1))
    return 2 * k * pf_weight_num(k - 1, i, j) + (k + 1) * lattice, count


def _top_level_num(k: int, i: int, l: int) -> tuple[int, int]:
    """Q times the top-level weight of U(i, l), and its dimension."""
    best, dim = _summand_num(k, i, 0, l)
    for j in range(1, k - 1):
        w, count = _summand_num(k, i, j, l)
        if w < best:
            best, dim = w, count
        elif w == best:
            dim += count
    return best, dim


def summand_weight(x: SummandLabel) -> SummandWeight:
    """Exact conformal weight of X(i, j, l) and its lattice top-level size.

    The lattice part contributes (k-1)k * min_n (n + lam)^2 with
    lam = -l/2k + (i-2j)/2(k-1); the parafermion part is weight
    pf_weight(k-1; i, j) with a one-dimensional top level.
    """
    w, count = _summand_num(x.k, x.i, x.j, x.l)
    return SummandWeight(Fraction(w, _weight_den(x.k)), count)


def top_level(a: U0Label) -> TopLevel:
    """Weight and dimension of the top level, by exact minimization over
    the k-1 summands X(i, j, l)."""
    w, dim = _top_level_num(a.k, a.i, a.l)
    return TopLevel(Fraction(w, _weight_den(a.k)), dim)


def top_level_closed_form(k: int, l: int) -> TopLevel:
    """Closed form for the top level of the simple current U(0, l):
    (0, 1) for l = 0; (l(2k-l)/4k - 1/4, 1) for odd l;
    (l(2k-l)/4k, 2) for even l != 0."""
    if k < 2:
        raise ValueError(f"level k must be >= 2, got {k}")
    l = l % (2 * k)
    if l == 0:
        return TopLevel(Fraction(0), 1)
    base = Fraction(l * (2 * k - l), 4 * k)
    if l % 2:
        return TopLevel(base - Fraction(1, 4), 1)
    return TopLevel(base, 2)


def weight_mod1(a: U0Label) -> Fraction:
    """Conformal weight mod 1, read off the summand X(i, 0, l)."""
    q = _weight_den(a.k)
    return Fraction(_summand_num(a.k, a.i, 0, a.l)[0] % q, q)


def eta_u0(k: int, i: int, l: int) -> int:
    """((k-1)l - ki) mod 2k: U(0,p) pairs with U(i,l) as p eta/2k mod 1, so
    a label's eta, read componentwise, names its character of a code."""
    return ((k - 1) * l - k * i) % (2 * k)
