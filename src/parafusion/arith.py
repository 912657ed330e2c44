"""Exact integer and rational primitives shared by every other module.

All values are Python ints or :class:`fractions.Fraction`; nothing in this
package touches floating point.  :class:`Value` is the base of every
immutable value type of the package, from `ResidueVector` here to the
labels, codes, characters and orbits of the modules above.
"""

from __future__ import annotations

import sys
from contextlib import suppress
from fractions import Fraction
from operator import attrgetter, eq, ge, gt, le, lt
from typing import Sequence

__all__ = [
    "Value",
    "mod1",
    "ResidueVector",
    "standard_inner",
    "IntegerMatrix",
    "SingularMatrixError",
    "smith_normal_form",
    "BUDGET",
    "CodeTooLargeError",
    "check_budget",
]


def _comparison(key, op):
    """`op` on the keys of two instances of one class; NotImplemented otherwise."""
    def method(self, other):
        if other.__class__ is self.__class__:
            return op(key(self), key(other))
        return NotImplemented
    return method


class Value:
    """Base of the package's immutable value types.

    A subclass names its fields in its class statement, as in
    ``class U0Label(Value, fields=("k", "i", "l"), order=True)``; its own
    ``__init__`` checks and normalises them and stores them with
    ``self.__dict__.update``.  ``==`` and ``hash`` read the tuple of the
    ``compare`` fields (all the fields unless it names fewer), and so do
    ``<``, ``<=``, ``>`` and ``>=`` when ``order`` is true; a comparison
    holds only between instances of one class, and the hash is that
    tuple's.  ``repr`` shows the fields as ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises AttributeError.

    The methods are closures over one ``operator.attrgetter`` per class,
    made once when the class is defined.
    """

    def __init_subclass__(cls, *, fields: tuple[str, ...],
                          compare: tuple[str, ...] | None = None, order: bool = False) -> None:
        compare = fields if compare is None else compare
        get = attrgetter(*compare)
        # attrgetter of one name returns the bare value, not a 1-tuple
        key = get if len(compare) > 1 else lambda value: (get(value),)

        def __hash__(self):
            return hash(key(self))

        def __repr__(self):
            shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
            return f"{type(self).__qualname__}({shown})"

        cls.__hash__, cls.__repr__, cls.__eq__ = __hash__, __repr__, _comparison(key, eq)
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = (
                _comparison(key, op) for op in (lt, le, gt, ge))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# The work budget: the most codewords, labels, suite steps or fusion terms
# one computation may build.  Python 3.11.7, shared 2-vCPU Xeon VM, process
# peak RSS: the census of D = <(5,5,0,0)> (k=5, 203 125 orbits) takes
# 0.25-0.31 s, 51 MB in `orbits`; `modules` 1.0-1.3 s, 51 MB (--induce
# 1.9-2.8 s, 51 MB).  At the budget, D = <(4,4,0,0,0)> (k=4, 2^20 labels,
# 524 288 orbits): 0.8-1.0 s, 108 MB in `orbits`; `modules` 2.7-2.9 s,
# 110 MB (--induce 5.6-5.8 s, 110 MB).  The README's Budgets has report sizes.
# A `fusion` report of 10^5 terms takes 1.3 s and 67 MB, linearly.  The
# largest class table is the k^2 classes of length 1: `modules` on <(0)> at
# k = 512 takes 1.6 s, 130 MB, on <(64)> at k = 1024 2.6-2.7 s, 268 MB, and
# on the Case B <(511)> at k = 511 3.6-3.8 s, 111 MB.  A Case B report is
# written row by row: the k = 3, length-6 <(3,0,0,0,0,0),(0,3,3,0,0,0)>
# takes 3.1-3.2 s, 52 MB for its 212 MiB report.
BUDGET = 2**20


class CodeTooLargeError(ValueError):
    """Raised when a computation would exceed the work budget."""


def _power_over(base: int, exponent: int, bound: int) -> str | None:
    """None if base^exponent <= bound, else that power as text, for base >= 2
    or exponent 1.

    Decided from the exponent first, so no huge power is built: base^exponent
    >= 2^exponent, and 2^(4 d) > 10^d.  A power too long for int-to-str
    conversion (d digits by default) is written as base^exponent."""
    if exponent < bound.bit_length() and base ** exponent <= bound:
        return None
    if exponent <= 4 * sys.int_info.default_max_str_digits:
        with suppress(ValueError):
            return str(base ** exponent)
    return f"{base}^{exponent}"


def check_budget(what: str, base: int, exponent: int = 1) -> None:
    """Refuse work of size base^exponent past BUDGET, before any of it is done."""
    size = _power_over(base, exponent, BUDGET)
    if size is not None:
        raise CodeTooLargeError(f"{what} of size {size} exceeds the budget {BUDGET}")


def mod1(q: Fraction | int) -> Fraction:
    """Canonical representative of q + Z in [0, 1)."""
    q = Fraction(q)
    return q - Fraction(q.numerator // q.denominator)


class ResidueVector(Value, fields=("modulus", "entries"), order=True):
    """A vector over Z_n, entries stored reduced into [0, n)."""

    def __init__(self, modulus: int, entries: Sequence[int]) -> None:
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if len(entries) < 1:
            raise ValueError("residue vector must have length >= 1")
        self.__dict__.update(modulus=modulus,
                             entries=tuple(int(e) % modulus for e in entries))

    @classmethod
    def zero(cls, modulus: int, length: int) -> "ResidueVector":
        return cls(modulus, (0,) * length)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, r: int) -> int:
        return self.entries[r]

    def _check_compatible(self, other: "ResidueVector") -> None:
        if self.modulus != other.modulus or len(self) != len(other):
            raise ValueError(
                f"incompatible residue vectors: mod {self.modulus} len {len(self)} "
                f"vs mod {other.modulus} len {len(other)}"
            )

    def __add__(self, other: "ResidueVector") -> "ResidueVector":
        self._check_compatible(other)
        return ResidueVector(
            self.modulus, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "ResidueVector") -> "ResidueVector":
        self._check_compatible(other)
        return ResidueVector(
            self.modulus, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "ResidueVector":
        return ResidueVector(self.modulus, tuple(-a for a in self.entries))

    def scaled(self, c: int) -> "ResidueVector":
        return ResidueVector(self.modulus, tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


def standard_inner(xi: ResidueVector, eta: ResidueVector) -> int:
    """(xi | eta) = sum_r xi_r eta_r reduced mod n."""
    xi._check_compatible(eta)
    return sum(a * b for a, b in zip(xi.entries, eta.entries)) % xi.modulus


class IntegerMatrix(Value, fields=("entries",)):
    """A rectangular matrix with exact integer entries."""

    def __init__(self, entries: Sequence[Sequence[int]]) -> None:
        if len(entries) == 0 or len(entries[0]) == 0:
            raise ValueError("matrix must be nonempty")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("matrix rows must all have the same length")
        self.__dict__.update(entries=tuple(tuple(int(e) for e in row) for row in entries))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


class SingularMatrixError(ValueError):
    """Raised when an operation requires a nonsingular matrix."""


def _min_abs_pivot(a: list[list[int]], t: int, n: int) -> tuple[int, int] | None:
    best = None
    best_val = None
    for i in range(t, n):
        for j in range(t, n):
            v = a[i][j]
            if v != 0 and (best_val is None or abs(v) < best_val):
                best = (i, j)
                best_val = abs(v)
    return best


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Elementary divisors d_1 | d_2 | ... | d_n of a square integer matrix.

    Uses integer row/column reduction, always pivoting on the entry of
    smallest nonzero absolute value.  Only the divisor chain is computed;
    the unimodular transforms are discarded.  Raises
    :class:`SingularMatrixError` if the matrix is singular.
    """
    if isinstance(matrix, IntegerMatrix):
        rows = [list(r) for r in matrix.entries]
    else:
        rows = [[int(e) for e in r] for r in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("smith_normal_form requires a square matrix")
    a = rows
    divisors: list[int] = []
    for t in range(n):
        while True:
            pivot = _min_abs_pivot(a, t, n)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            pi, pj = pivot
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            p = a[t][t]
            # clear the pivot column and row; leftover remainders are
            # strictly smaller than |p|, so the pivot search loops around
            dirty = False
            for i in range(t + 1, n):
                q, r = divmod(a[i][t], p)
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if r:
                    dirty = True
            for j in range(t + 1, n):
                q, r = divmod(a[t][j], p)
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if r:
                    dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the submatrix for the chain
            fix = next(
                (
                    i
                    for i in range(t + 1, n)
                    for j in range(t + 1, n)
                    if a[i][j] % p
                ),
                None,
            )
            if fix is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[fix])]
        divisors.append(a[t][t])
    return tuple(divisors)
