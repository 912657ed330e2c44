"""Parafermion module combinatorics at level k: labels, weights, fusion.

Irreducible modules are labeled M(k; i, j) with 0 <= i <= k and j mod k,
subject to the identification (i, j) ~ (k-i, j-i).  The representatives
with 0 <= j < i <= k are canonical; the vacuum is the class of (0, 0),
canonically written (k, 0).
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .arith import Value
from .fusion import FusionSum, sl2_channels
from .u0 import pf_weight_num

__all__ = [
    "ParafermionLabel",
    "TildeLabel",
    "canonicalize_pf",
    "pf_vacuum",
    "all_pf_labels",
    "pf_weight",
    "fuse_pf",
    "pf_simple_current_shift",
    "pf_theta",
    "to_tilde",
    "from_tilde",
]


class ParafermionLabel(Value, fields=("k", "i", "j"), order=True):
    """A label (k; i, j) with 0 <= i <= k; j is stored reduced mod k."""

    def __init__(self, k: int, i: int, j: int) -> None:
        if k < 2:
            raise ValueError(f"level k must be >= 2, got {k}")
        if not (0 <= i <= k):
            raise ValueError(f"index i must lie in [0, {k}], got {i}")
        self.__dict__.update(k=k, i=i, j=j % k)

    @property
    def is_canonical(self) -> bool:
        return self.j < self.i

    def partner(self) -> "ParafermionLabel":
        return ParafermionLabel(self.k, self.k - self.i, self.j - self.i)

    def __str__(self) -> str:
        return f"M({self.k};{self.i},{self.j})"


def canonicalize_pf(k: int, i: int, j: int) -> ParafermionLabel:
    """The unique representative with 0 <= j < i <= k of the class of (i, j)."""
    label = ParafermionLabel(k, i, j)
    return label if label.is_canonical else label.partner()


def pf_vacuum(k: int) -> ParafermionLabel:
    return ParafermionLabel(k, k, 0)


def all_pf_labels(k: int) -> tuple[ParafermionLabel, ...]:
    """All k(k+1)/2 canonical labels at level k, sorted."""
    if k < 2:
        raise ValueError(f"level k must be >= 2, got {k}")
    return tuple(
        ParafermionLabel(k, i, j) for i in range(1, k + 1) for j in range(i)
    )


def pf_weight(label: ParafermionLabel) -> Fraction:
    """Conformal weight of the one-dimensional top level of M(k; i, j).

    The closed form
        ( k(i-2j) - (i-2j)^2 + 2k(i-j+1)j ) / ( 2k(k+2) )
    requires 0 <= j <= i, so the label is first moved to its canonical
    representative (which satisfies j < i).
    """
    return Fraction(pf_weight_num(label.k, label.i, label.j), 2 * label.k * (label.k + 2))


def fuse_pf(a: ParafermionLabel, b: ParafermionLabel) -> FusionSum:
    """Parafermion fusion product, as a multiset of canonical labels.

    The sum runs over the level-k `sl2_channels` r of (i1, i2); the term
    for r carries j = (2j1-i1 + 2j2-i2 + r)/2, an integer since r = i1+i2
    mod 2.
    """
    if a.k != b.k:
        raise ValueError(f"cannot fuse labels at different levels {a.k} and {b.k}")
    k = a.k
    i1, j1, i2, j2 = a.i, a.j, b.i, b.j
    return FusionSum([canonicalize_pf(k, r, (2 * j1 - i1 + 2 * j2 - i2 + r) // 2)
                      for r in sl2_channels(k, i1, i2)])


def pf_simple_current_shift(p: int, label: ParafermionLabel) -> ParafermionLabel:
    """Action of the simple current of charge p: (i, j) -> (i, j+p)."""
    return canonicalize_pf(label.k, label.i, label.j + p)


def pf_theta(label: ParafermionLabel) -> ParafermionLabel:
    """The involution (i, j) -> (i, i-j).  Trivial at k = 2 (warns)."""
    if label.k == 2:
        warnings.warn("theta is trivial at level 2; returning the label unchanged",
                      stacklevel=2)
        return canonicalize_pf(label.k, label.i, label.j)
    return canonicalize_pf(label.k, label.i, label.i - label.j)


class TildeLabel(Value, fields=("k", "i", "q"), order=True):
    """Charge-style relabeling (k; i, q), q mod 2k with q = i mod 2.

    q = i - 2j identifies the label with the parafermion label (i, j);
    the identification reads (i, q) ~ (k-i, k+q) in these coordinates.
    """

    def __init__(self, k: int, i: int, q: int) -> None:
        if k < 2:
            raise ValueError(f"level k must be >= 2, got {k}")
        if not (0 <= i <= k):
            raise ValueError(f"index i must lie in [0, {k}], got {i}")
        q %= 2 * k
        if (q - i) % 2:
            raise ValueError(f"parity violation: q={q} and i={i} must agree mod 2")
        self.__dict__.update(k=k, i=i, q=q)


def to_tilde(label: ParafermionLabel) -> TildeLabel:
    """Relabel (i, j) as (i, q) with q = i - 2j mod 2k."""
    c = canonicalize_pf(label.k, label.i, label.j)
    return TildeLabel(c.k, c.i, c.i - 2 * c.j)


def from_tilde(label: TildeLabel) -> ParafermionLabel:
    """Inverse relabeling: j = (i - q)/2 mod k."""
    j = ((label.i - label.q) // 2) % label.k
    return canonicalize_pf(label.k, label.i, j)
