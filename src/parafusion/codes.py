"""Additive codes over Z_2k: enumeration, classification, weights, duals.

A code D of length ell is an additive subgroup of (Z_2k)^ell.  D is
Case A when (k-1)(xi.xi)/2k is an even integer for every codeword, Case B
when every pairing (k-1)(xi.eta)/2k is an integer and some diagonal value
is odd, and Invalid otherwise (such codes are rejected downstream).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations_with_replacement, product
from pathlib import Path
from typing import Iterable, Sequence

from .arith import ResidueVector, standard_inner

__all__ = [
    "Classification",
    "Code",
    "CodeTooLargeError",
    "DEFAULT_MAX_CODE_SIZE",
    "enumerate_code",
    "split_even_odd",
    "euclidean_weight",
    "dual_code",
    "generating_subset",
    "all_codes",
    "random_code",
    "load_code",
]

DEFAULT_MAX_CODE_SIZE = 2**20


class Classification(Enum):
    CASE_A = "CaseA"
    CASE_B = "CaseB"
    INVALID = "Invalid"


class CodeTooLargeError(ValueError):
    """Raised when an enumeration would exceed its size guard."""


@dataclass(frozen=True)
class Code:
    k: int
    length: int
    generators: tuple[ResidueVector, ...]
    # both follow from the fields above, so equality and the hash skip them
    elements: tuple[ResidueVector, ...] = field(compare=False)
    classification: Classification = field(compare=False)

    @property
    def size(self) -> int:
        return len(self.elements)

    def zero(self) -> ResidueVector:
        return ResidueVector.zero(2 * self.k, self.length)

    def __contains__(self, vec: ResidueVector) -> bool:
        return vec in _element_set(self)

    def __str__(self) -> str:
        return (
            f"Code(k={self.k}, length={self.length}, size={self.size}, "
            f"{self.classification.value})"
        )


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


def _closure(
    k: int, length: int, generators: Sequence[ResidueVector], max_size: int
) -> tuple[ResidueVector, ...]:
    zero = ResidueVector.zero(2 * k, length)
    elements = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for g in generators:
            for x in frontier:
                y = x + g
                if y not in elements:
                    elements.add(y)
                    new.append(y)
                    if len(elements) > max_size:
                        raise CodeTooLargeError(
                            f"code closure exceeds max_size={max_size}"
                        )
        frontier = new
    return tuple(sorted(elements))


def enumerate_code(
    k: int,
    length: int,
    generators: Iterable[Sequence[int] | ResidueVector],
    max_size: int = DEFAULT_MAX_CODE_SIZE,
) -> Code:
    """Enumerate the additive closure of the generators and classify it."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    gens = []
    for g in generators:
        vec = g if isinstance(g, ResidueVector) else ResidueVector(2 * k, tuple(g))
        if vec.modulus != 2 * k or len(vec) != length:
            raise ValueError(f"generator {vec} does not match mod {2 * k}, length {length}")
        gens.append(vec)
    elements = _closure(k, length, gens, max_size)
    return Code(k, length, tuple(gens), elements, _classify(k, gens))


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
            have = frozenset(_closure(k, length, gens, len(elements)))
    return tuple(gens)


def dual_code(code: Code, max_size: int = DEFAULT_MAX_CODE_SIZE) -> Code:
    """The dual code {eta : (xi | eta) = 0 for all xi in D}."""
    k, length = code.k, code.length
    ambient = (2 * k) ** length
    if ambient // code.size > max_size:
        raise CodeTooLargeError(
            f"dual code would have {ambient // code.size} elements (max_size={max_size})"
        )
    if ambient > max_size * 64:
        raise CodeTooLargeError(f"ambient space of size {ambient} is too large to scan")
    gens = code.generators
    elements = tuple(
        sorted(
            vec
            for entries in product(range(2 * k), repeat=length)
            for vec in (ResidueVector(2 * k, entries),)
            if all(standard_inner(g, vec) == 0 for g in gens)
        )
    )
    dual_gens = generating_subset(k, length, elements)
    return Code(k, length, dual_gens, elements, _classify(k, dual_gens))


def all_codes(
    k: int, length: int, max_size: int = DEFAULT_MAX_CODE_SIZE
) -> tuple[Code, ...]:
    """Every additive subgroup of (Z_2k)^length, for length <= 2.

    Subgroups of rank <= 2 groups are generated by at most two elements,
    so closing over all generator pairs and deduplicating is exhaustive.
    """
    if length > 2:
        raise ValueError("exhaustive subgroup enumeration is supported for length <= 2")
    ambient = [ResidueVector(2 * k, entries) for entries in product(range(2 * k), repeat=length)]
    seen: dict[tuple[ResidueVector, ...], Code] = {}
    empty = enumerate_code(k, length, [], max_size)
    seen[empty.elements] = empty
    gen_sets: Iterable = ambient if length == 1 else combinations_with_replacement(ambient, 2)
    for gens in gen_sets:
        code = enumerate_code(k, length, [gens] if length == 1 else list(gens), max_size)
        seen.setdefault(code.elements, code)
    return tuple(seen.values())


def random_code(
    k: int,
    length: int,
    rng: random.Random,
    max_generators: int = 2,
    max_size: int = DEFAULT_MAX_CODE_SIZE,
) -> Code:
    """A random code: closure of a few uniformly random generators."""
    count = rng.randint(1, max_generators)
    gens = [
        ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(length)))
        for _ in range(count)
    ]
    return enumerate_code(k, length, gens, max_size)


def load_code(source, max_size: int = DEFAULT_MAX_CODE_SIZE) -> Code:
    """Load a code from a JSON object, JSON text, or a path to a JSON file.

    Schema: {"k": int, "length": int, "generators": [[int, ...], ...]}.
    Generator entries are reduced mod 2k.
    """
    # JSON text never goes through Path: a long code is not a valid file name
    if isinstance(source, str) and source.lstrip().startswith("{"):
        obj = json.loads(source)
    elif isinstance(source, (str, Path)) and Path(source).exists():
        obj = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        obj = json.loads(source)
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
    return enumerate_code(k, length, generators, max_size)
