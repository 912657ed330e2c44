"""The conformal weights of the U(i, l) summands in `Fraction` arithmetic,
kept as a test-only reference for the integer kernel of `parafusion.u0`,
which holds every weight as a numerator over Q = 4k(k-1)(k+1).  This is the
program's weight code before that kernel, with the parafermion closed form
written out, so no part of it runs through the kernel."""

from fractions import Fraction

from parafusion.arith import mod1
from parafusion.parafermion import canonicalize_pf
from parafusion.u0 import SummandLabel, SummandWeight, TopLevel, U0Label


def coset_min(lam: Fraction) -> tuple[Fraction, int]:
    """min_n (n + lam)^2 over integers n, and how many n attain it."""
    r = mod1(lam)
    return min(r, 1 - r) ** 2, 2 if 2 * r == 1 else 1


def pf_factor_weight(k: int, i: int, j: int) -> Fraction:
    """The weight of the level k-1 parafermion factor (i, j); at k = 2 that
    factor is the trivial algebra."""
    if k == 2:
        return Fraction(0)
    c = canonicalize_pf(k - 1, i, j)
    level, t = c.k, c.i - 2 * c.j
    return Fraction(level * t - t * t + 2 * level * (c.i - c.j + 1) * c.j,
                    2 * level * (level + 2))


def summand_weight(x: SummandLabel) -> SummandWeight:
    lattice_min, count = coset_min(x.lattice_offset)
    weight = pf_factor_weight(x.k, x.i, x.j) + (x.k - 1) * x.k * lattice_min
    return SummandWeight(weight, count)


def top_level(a: U0Label) -> TopLevel:
    k = a.k
    best: Fraction | None = None
    dim = 0
    for j in range(max(k - 1, 1)):
        w, count = summand_weight(SummandLabel(k, a.i, j, a.l))
        if best is None or w < best:
            best, dim = w, count
        elif w == best:
            dim += count
    return TopLevel(best, dim)


def weight_mod1(a: U0Label) -> Fraction:
    return mod1(summand_weight(SummandLabel(a.k, a.i, 0, a.l)).weight)
