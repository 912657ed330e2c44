"""Additive codes over Z_2k: Hermite forms, classification, weights, duals.

A code D of length ell is an additive subgroup of (Z_2k)^ell.  Such
subgroups match one to one the lattices 2k Z^ell <= L <= Z^ell, and a code
is held as the row Hermite normal form of its lattice (Cohen, GTM 138,
section 2.4; Howell 1986).  That one form gives |D|, lists each codeword
exactly once (only when asked), numbers every subgroup for `all_codes`,
and gives the dual's form and each coset's least vector, at any length.
D is Case A when (k-1)(xi.xi)/2k is an even integer for every codeword,
Case B when every pairing (k-1)(xi.eta)/2k is an integer and some diagonal
value is odd, and Invalid otherwise (such codes are rejected downstream);
all three are decided from the generators.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from math import prod
from pathlib import Path
from typing import Iterable, Sequence

from .arith import CodeTooLargeError, ResidueVector, check_budget

__all__ = [
    "Classification",
    "Code",
    "CodeTooLargeError",
    "enumerate_code",
    "split_even_odd",
    "euclidean_weight",
    "dual_code",
    "generating_subset",
    "all_codes",
    "random_code",
    "load_code",
]

class Classification(Enum):
    CASE_A = "CaseA"
    CASE_B = "CaseB"
    INVALID = "Invalid"


@dataclass(frozen=True)
class Code:
    k: int
    length: int
    generators: tuple[ResidueVector, ...]
    # both follow from the fields above, so equality and the hash skip them
    hermite: tuple[tuple[int, tuple[int, ...]], ...] = field(compare=False)
    classification: Classification = field(compare=False)

    @property
    def size(self) -> int:
        return prod(2 * self.k // h[j] for j, h in self.hermite)

    @cached_property
    def elements(self) -> tuple[ResidueVector, ...]:
        """Every codeword, sorted: sum_j c_j h_j over 0 <= c_j < 2k/d_j.  That
        box is a fundamental domain of D, so no codeword is built twice.
        Past the work budget it raises CodeTooLargeError before building one."""
        check_budget("code", self.size)
        n = 2 * self.k
        words = [(0,) * self.length]
        for j, h in self.hermite:
            words = [tuple((u + c * v) % n for u, v in zip(w, h))
                     for w in words for c in range(n // h[j])]
        return tuple(ResidueVector(n, w) for w in sorted(words))

    @cached_property
    def dual_hermite(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The dual code's Hermite form: with n = 2k and H the code's form
        with a row n e_j at each column without a pivot, the columns of
        n H^-1 span {x : H x in n Z^ell}.  H is upper triangular and n e_c
        lies in its row lattice, so H x = n e_c is solved from row c up,
        dividing exactly."""
        n, ell = 2 * self.k, self.length
        rows = dict(self.hermite)
        full = [rows.get(j, (0,) * j + (n,) + (0,) * (ell - j - 1)) for j in range(ell)]
        columns = []
        for c in range(ell):
            x = [0] * ell
            x[c] = n // full[c][c]
            for i in range(c - 1, -1, -1):
                x[i] = -sum(full[i][j] * x[j] for j in range(i + 1, c + 1)) // full[i][i]
            columns.append(x)
        return _hermite(n, ell, columns)

    def zero(self) -> ResidueVector:
        return ResidueVector.zero(2 * self.k, self.length)

    def __contains__(self, vec: ResidueVector) -> bool:
        """Membership by reduction against the form: no codeword is built."""
        return (isinstance(vec, ResidueVector) and vec.modulus == 2 * self.k
                and len(vec) == self.length
                and not any(_least_in_coset(vec.modulus, self.hermite, vec)))

    def __str__(self) -> str:
        return (
            f"Code(k={self.k}, length={self.length}, size={self.size}, "
            f"{self.classification.value})"
        )


# no program path reads it since `in` reduces against the form; the
# benchmark's tracer (perfbench/tracing.py) still binds it by name
@lru_cache(maxsize=None)
def _element_set(code: Code) -> frozenset[ResidueVector]:
    return frozenset(code.elements)


def _pairing_is_integral(k: int, xi: ResidueVector, eta: ResidueVector) -> bool:
    # (k-1)(xi.eta)/2k in Z  <=>  2k | (k-1)(xi.eta), with entries in [0, 2k)
    return ((k - 1) * sum(a * b for a, b in zip(xi, eta))) % (2 * k) == 0


def _diagonal_class(k: int, xi: ResidueVector) -> int:
    """(k-1)(xi.xi)/2k mod 2, for xi whose pairing with itself is integral."""
    return ((k - 1) * sum(a * a for a in xi) // (2 * k)) % 2


def _classify(k: int, generators: Sequence[ResidueVector]) -> Classification:
    # q(x+y) = q(x) + q(y) + 2p(x,y), p(x,y) = (k-1)(x.y)/2k, q(x) = p(x,x): once
    # the generator pairings are integral, q mod 2 is additive on D.  A nonintegral
    # pairing makes some q(x+y) fail to be an even integer: not Case A, so Invalid.
    pairs = combinations_with_replacement(generators, 2)
    if not all(_pairing_is_integral(k, g, h) for g, h in pairs):
        return Classification.INVALID
    if any(_diagonal_class(k, g) for g in generators):
        return Classification.CASE_B
    return Classification.CASE_A


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b), for a, b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _hermite(
    n: int, length: int, generators: Iterable[Sequence[int]]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The rows (j, h) of the row Hermite normal form of span(generators) +
    nZ^length whose pivot d = h[j] is below n.

    Rows are upper triangular, d divides n, and every entry above a pivot
    is reduced mod that pivot.  A row with d = n is n e_j, zero mod n, so it
    is not stored: with few generators the cost stays linear in the length.
    """
    rows = [x for x in ([e % n for e in g] for g in generators) if any(x)]
    form = []
    for j in range(length):
        if not rows:
            break
        # fold each row with a nonzero entry j into a pivot that starts as
        # n e_j; a fold is unimodular and leaves the other row zero at j
        pivot = [0] * length
        pivot[j] = n
        rest = []
        for x in rows:
            if x[j]:
                d, a, b = _xgcd(pivot[j], x[j])
                p, q = pivot[j] // d, x[j] // d
                pivot, x = ([(a * u + b * v) % n for u, v in zip(pivot, x)],
                            [(q * u - p * v) % n for u, v in zip(pivot, x)])
            if any(x):
                rest.append(x)
        rows = rest
        if pivot[j] < n:
            form.append((j, pivot))
    # left to right: reducing column j touches only columns >= j
    for t, (j, h) in enumerate(form):
        for _, row in form[:t]:
            c = row[j] // h[j]
            if c:
                row[:] = [(u - c * v) % n for u, v in zip(row, h)]
    return tuple((j, tuple(h)) for j, h in form)


def _least_in_coset(n: int, form, vec: Iterable[int]) -> tuple[int, ...]:
    """The lexicographically least vector of vec + D, for D with Hermite form
    `form` over Z_n.  With the earlier entries fixed, entry j moves only by
    multiples of its pivot d_j (of n where there is none), so column by
    column it becomes vec_j mod d_j."""
    v = [e % n for e in vec]
    for j, h in form:
        c = v[j] // h[j]
        if c:
            v = [(u - c * w) % n for u, w in zip(v, h)]
    return tuple(v)


def _check_shape(k: int, length: int) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")


def enumerate_code(
    k: int, length: int, generators: Iterable[Sequence[int] | ResidueVector]
) -> Code:
    """The code the generators span, held as its Hermite form, and its class."""
    _check_shape(k, length)
    gens = []
    for g in generators:
        vec = g if isinstance(g, ResidueVector) else ResidueVector(2 * k, tuple(g))
        if vec.modulus != 2 * k or len(vec) != length:
            raise ValueError(f"generator {vec} does not match mod {2 * k}, length {length}")
        gens.append(vec)
    return Code(k, length, tuple(gens), _hermite(2 * k, length, gens), _classify(k, gens))


def split_even_odd(code: Code) -> tuple[tuple[ResidueVector, ...], tuple[ResidueVector, ...]]:
    """The even-diagonal subgroup D0 and its odd coset D1 of a Case B code."""
    if code.classification is not Classification.CASE_B:
        raise ValueError(f"even/odd split requires a Case B code, got {code.classification.value}")
    d0, d1 = [], []
    for xi in code.elements:
        (d0 if _diagonal_class(code.k, xi) == 0 else d1).append(xi)
    return tuple(d0), tuple(d1)


def euclidean_weight(xi: ResidueVector) -> int:
    """sum_r min(xi_r^2, (n - xi_r)^2) for a vector over Z_n."""
    n = xi.modulus
    return sum(min(e * e, (n - e) * (n - e)) for e in xi)


def generating_subset(
    k: int, length: int, elements: Sequence[ResidueVector]
) -> tuple[ResidueVector, ...]:
    """A small deterministic generating set for a subgroup given by its elements."""
    gens: list[ResidueVector] = []
    have = frozenset({ResidueVector.zero(2 * k, length)})
    for x in sorted(elements):
        if x not in have:
            gens.append(x)
            have = frozenset(enumerate_code(k, length, gens).elements)
    return tuple(gens)


def dual_code(code: Code) -> Code:
    """The dual code {eta : (xi | eta) = 0 for all xi in D}, from its Hermite form."""
    k, form = code.k, code.dual_hermite
    gens = tuple(ResidueVector(2 * k, h) for _, h in form)
    return Code(k, code.length, gens, form, _classify(k, gens))


def all_codes(k: int, length: int) -> tuple[Code, ...]:
    """Every additive subgroup of (Z_2k)^length, each exactly once.

    A subgroup is named by its Hermite form.  Each upper triangular matrix
    with pivots d_j | 2k (a pivot 2k stores no row) and entries above a
    pivot in [0, d_j) is a candidate, and it is the form of the code it
    spans exactly when `_hermite` returns it unchanged.
    """
    _check_shape(k, length)
    n = 2 * k
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    codes = []
    for diagonal in product(divisors, repeat=length):
        pivots = [j for j, d in enumerate(diagonal) if d < n]
        tails = [product(*(range(d) for d in diagonal[j + 1:])) for j in pivots]
        for fill in product(*tails):
            form = tuple((j, (0,) * j + (diagonal[j],) + tail)
                         for j, tail in zip(pivots, fill))
            if _hermite(n, length, (h for _, h in form)) == form:
                gens = tuple(ResidueVector(n, h) for _, h in form)
                codes.append(Code(k, length, gens, form, _classify(k, gens)))
    return tuple(codes)


def random_code(
    k: int,
    length: int,
    rng: random.Random,
    max_generators: int = 2,
) -> Code:
    """A random code: the span of a few uniformly random generators."""
    count = rng.randint(1, max_generators)
    gens = [
        ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(length)))
        for _ in range(count)
    ]
    return enumerate_code(k, length, gens)


def load_code(source) -> Code:
    """Load a code from a JSON object, JSON text, or a path to a JSON file.

    Schema: {"k": int, "length": int, "generators": [[int, ...], ...]}.
    Generator entries are reduced mod 2k.
    """
    # JSON text never goes through Path: a long code is not a valid file name
    if isinstance(source, str) and source.lstrip().startswith("{"):
        obj = json.loads(source)
    elif isinstance(source, Path) or isinstance(source, str) and Path(source).exists():
        obj = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            message = f"{source!r} is neither an existing file nor JSON text: {exc.msg}"
            raise json.JSONDecodeError(message, exc.doc, exc.pos) from None
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ValueError("code JSON must be an object")
    missing = {"k", "length", "generators"} - obj.keys()
    if missing:
        raise ValueError(f"code JSON is missing fields: {sorted(missing)}")
    k, length, generators = obj["k"], obj["length"], obj["generators"]
    # type() and not isinstance(): JSON true/false load as bool, an int subclass
    if type(k) is not int or type(length) is not int:
        raise ValueError("k and length must be integers")
    if not isinstance(generators, list) or not all(
        isinstance(g, list) and all(type(e) is int for e in g) for g in generators
    ):
        raise ValueError("generators must be a list of integer lists")
    return enumerate_code(k, length, generators)
