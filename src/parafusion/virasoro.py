"""Discrete-series Virasoro data: central charges, Kac-table weights, fusion.

Labels live in the Kac table of level m: 1 <= r <= m+1, 1 <= s <= m+2, with
the symmetry (r, s) ~ (m+2-r, m+3-s) identifying labels in pairs.  The
representative with s <= r is taken as canonical.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Value
from .fusion import FusionSum, sl2_channels

__all__ = [
    "VirasoroLabel",
    "central_charge",
    "highest_weight",
    "kac_canonical",
    "virasoro_vacuum",
    "all_virasoro_labels",
    "fuse_virasoro",
]


class VirasoroLabel(Value, fields=("m", "r", "s"), order=True):
    """A Kac-table label (m; r, s), not necessarily canonical."""

    def __init__(self, m: int, r: int, s: int) -> None:
        if m < 1:
            raise ValueError(f"level m must be >= 1, got {m}")
        if not (1 <= r <= m + 1 and 1 <= s <= m + 2):
            raise ValueError(f"indices ({r},{s}) outside the level-{m} table")
        self.__dict__.update(m=m, r=r, s=s)

    @property
    def is_canonical(self) -> bool:
        return self.s <= self.r

    def kac_partner(self) -> "VirasoroLabel":
        return VirasoroLabel(self.m, self.m + 2 - self.r, self.m + 3 - self.s)

    def __str__(self) -> str:
        return f"Vir({self.m};{self.r},{self.s})"


def central_charge(m: int) -> Fraction:
    """Central charge c_m = 1 - 6/((m+2)(m+3)) of the level-m minimal model."""
    if m < 1:
        raise ValueError(f"level m must be >= 1, got {m}")
    return 1 - Fraction(6, (m + 2) * (m + 3))


def highest_weight(m: int, r: int, s: int) -> Fraction:
    """Kac-table highest weight h_{r,s} = ((r(m+3) - s(m+2))^2 - 1) / (4(m+2)(m+3))."""
    label = VirasoroLabel(m, r, s)  # range check
    num = (label.r * (m + 3) - label.s * (m + 2)) ** 2 - 1
    return Fraction(num, 4 * (m + 2) * (m + 3))


def kac_canonical(m: int, r: int, s: int) -> VirasoroLabel:
    """The canonical representative (s <= r) of the class of (m; r, s)."""
    label = VirasoroLabel(m, r, s)
    return label if label.is_canonical else label.kac_partner()


def virasoro_vacuum(m: int) -> VirasoroLabel:
    return VirasoroLabel(m, 1, 1)


def all_virasoro_labels(m: int) -> tuple[VirasoroLabel, ...]:
    """All (m+1)(m+2)/2 canonical labels at level m, sorted."""
    if m < 1:
        raise ValueError(f"level m must be >= 1, got {m}")
    return tuple(
        VirasoroLabel(m, r, s) for r in range(1, m + 2) for s in range(1, r + 1)
    )


def fuse_virasoro(a: VirasoroLabel, b: VirasoroLabel) -> FusionSum:
    """Minimal-model fusion product, as a multiset of canonical labels: the
    product of two sl2 rules, `sl2_channels` at level m on r-1 and at level
    m+1 on s-1.  Output terms are canonicalized and merged.
    """
    if a.m != b.m:
        raise ValueError(f"cannot fuse labels at different levels {a.m} and {b.m}")
    m = a.m
    return FusionSum([
        kac_canonical(m, r + 1, s + 1)
        for r in sl2_channels(m, a.r - 1, b.r - 1)
        for s in sl2_channels(m + 1, a.s - 1, b.s - 1)
    ])
