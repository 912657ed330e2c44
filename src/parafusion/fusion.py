"""Fusion products: the sl2 channel rule they all share, and the finite
multisets of module labels every product returns."""

from __future__ import annotations

from collections import Counter

__all__ = ["FusionSum", "sl2_channels"]


def sl2_channels(level: int, i1: int, i2: int) -> range:
    """The r with |i1-i2| <= r <= min{i1+i2, 2 level-i1-i2} and i1+i2+r even:
    the level-`level` sl2 fusion rule on Dynkin labels 0 <= i1, i2 <= level.
    Parafermion (level k), U(i, l) (level k-1 on i) and minimal-model fusion
    (level m on r-1, level m+1 on s-1) are all built on it."""
    return range(abs(i1 - i2), min(i1 + i2, 2 * level - i1 - i2) + 1, 2)


class FusionSum:
    """An immutable multiset of canonical labels with positive multiplicities."""

    __slots__ = ("_terms",)

    def __init__(self, terms):
        if isinstance(terms, FusionSum):
            counts = Counter(dict(terms.items()))
        elif isinstance(terms, dict):
            counts = Counter(terms)
        else:
            counts = Counter(terms)
        if any(m <= 0 for m in counts.values()):
            raise ValueError("fusion multiplicities must be positive")
        object.__setattr__(self, "_terms", tuple(sorted(counts.items())))

    def __setattr__(self, name, value):
        raise AttributeError("FusionSum is immutable")

    def items(self):
        return self._terms

    def multiplicity(self, label) -> int:
        for lab, m in self._terms:
            if lab == label:
                return m
        return 0

    def map_labels(self, fn) -> "FusionSum":
        """Push the multiset through a label map, merging multiplicities."""
        counts: Counter = Counter()
        for label, m in self._terms:
            counts[fn(label)] += m
        return FusionSum(counts)

    def __contains__(self, label) -> bool:
        return self.multiplicity(label) > 0

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, FusionSum):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{label!r}" if m == 1 else f"{label!r}*{m}" for label, m in self._terms
        )
        return f"FusionSum({{{inner}}})"
