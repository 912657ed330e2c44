"""Fusion products: the sl2 channel rule they all share, and the finite
multisets of module labels every product returns."""

from __future__ import annotations

from collections import Counter

from .arith import Value

__all__ = ["FusionSum", "sl2_channels"]


def sl2_channels(level: int, i1: int, i2: int) -> range:
    """The r with |i1-i2| <= r <= min{i1+i2, 2 level-i1-i2} and i1+i2+r even:
    the level-`level` sl2 fusion rule on Dynkin labels 0 <= i1, i2 <= level.
    Parafermion (level k), U(i, l) (level k-1 on i) and minimal-model fusion
    (level m on r-1, level m+1 on s-1) are all built on it."""
    return range(abs(i1 - i2), min(i1 + i2, 2 * level - i1 - i2) + 1, 2)


class FusionSum(Value, fields=("terms",)):
    """An immutable multiset of canonical labels with positive multiplicities,
    held as its (label, multiplicity) pairs sorted by label."""

    def __init__(self, terms):
        counts = Counter(dict(terms.items()) if isinstance(terms, FusionSum) else terms)
        if any(m <= 0 for m in counts.values()):
            raise ValueError("fusion multiplicities must be positive")
        self.__dict__.update(terms=tuple(sorted(counts.items())))

    def items(self):
        return self.terms

    def multiplicity(self, label) -> int:
        for lab, m in self.terms:
            if lab == label:
                return m
        return 0

    def map_labels(self, fn) -> "FusionSum":
        """Push the multiset through a label map, merging multiplicities."""
        counts: Counter = Counter()
        for label, m in self.terms:
            counts[fn(label)] += m
        return FusionSum(counts)

    def __contains__(self, label) -> bool:
        return self.multiplicity(label) > 0

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)
