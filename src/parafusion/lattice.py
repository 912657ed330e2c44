"""Exact coordinate realization of the glue lattice and its cosets.

Everything lives in the orthogonal basis alpha_1..alpha_k with Gram matrix
2*Identity.  The sublattice N consists of the integral vectors orthogonal
to gamma_k = alpha_1 + ... + alpha_k.  This module is the coordinate
oracle: congruence statements proved abstractly elsewhere are re-derived
here from explicit rational vectors.

The sampled checks move coset representatives by random elements of N.
`random_n_element` draws one: integer coefficients c_1..c_{k-1} in
[-bound, bound] on the basis beta_r = alpha_r - alpha_{r+1}, written
straight into coordinates.  `_translates` is the one loop that draws the
translate pairs of the pairing checks, from one Random(seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple, Sequence

from .arith import IntegerMatrix, ResidueVector, mod1, smith_normal_form
from .codes import Code

__all__ = [
    "LatticeVector",
    "SpecialVectors",
    "CosetSpec",
    "GammaParity",
    "special_vectors",
    "alpha_vector",
    "n_basis",
    "random_n_element",
    "ntilde_coset",
    "nja_coset",
    "coset_rep",
    "coset_contains",
    "verify_coset_inner_congruence",
    "verify_coset_inner_congruence_vec",
    "verify_coset_index",
    "discriminant_group",
    "gamma_d_parity",
    "verify_pairing_matches_b_form",
]


@dataclass(frozen=True, order=True)
class LatticeVector:
    """Exact rational coordinates in the basis alpha_1..alpha_k (Gram = 2*Id)."""

    k: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"rank k must be >= 2, got {self.k}")
        if len(self.coords) != self.k:
            raise ValueError(f"expected {self.k} coordinates, got {len(self.coords)}")
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def inner(self, other: "LatticeVector") -> Fraction:
        if self.k != other.k:
            raise ValueError("inner product of vectors of different rank")
        return 2 * sum(a * b for a, b in zip(self.coords, other.coords))

    def norm(self) -> Fraction:
        return self.inner(self)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        if self.k != other.k:
            raise ValueError("sum of vectors of different rank")
        return LatticeVector(self.k, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        if self.k != other.k:
            raise ValueError("difference of vectors of different rank")
        return LatticeVector(self.k, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(self.k, tuple(-a for a in self.coords))

    def scaled(self, c) -> "LatticeVector":
        c = Fraction(c)
        return LatticeVector(self.k, tuple(c * a for a in self.coords))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def in_n(self) -> bool:
        """Membership in N: integral coordinates summing to zero."""
        return self.is_integral() and sum(self.coords) == 0


def alpha_vector(k: int, r: int) -> LatticeVector:
    """The basis vector alpha_r, 1 <= r <= k."""
    if not (1 <= r <= k):
        raise ValueError(f"basis index must lie in [1, {k}], got {r}")
    return LatticeVector(k, tuple(Fraction(1 if s == r else 0) for s in range(1, k + 1)))


class SpecialVectors(NamedTuple):
    gamma_km1: LatticeVector
    gamma_k: LatticeVector
    d: LatticeVector
    delta: LatticeVector | None


def special_vectors(k: int, a: Sequence[int] | None = None) -> SpecialVectors:
    """gamma_{k-1}, gamma_k, d = gamma_{k-1} - (k-1)alpha_k, and optionally
    delta_a = (1/2) sum a_p alpha_p for a in {0,1}^k."""
    gamma_km1 = LatticeVector(k, tuple(Fraction(1) for _ in range(k - 1)) + (Fraction(0),))
    gamma_k = LatticeVector(k, (Fraction(1),) * k)
    d = LatticeVector(k, tuple(Fraction(1) for _ in range(k - 1)) + (Fraction(1 - k),))
    if (gamma_k.norm(), d.norm(), gamma_k.inner(d)) != (2 * k, 2 * (k - 1) * k, 0):
        raise RuntimeError("gamma_k and d fail their norm and orthogonality identities")
    delta = None
    if a is not None:
        if len(a) != k or any(x not in (0, 1) for x in a):
            raise ValueError(f"a must be a 0/1 vector of length {k}")
        delta = LatticeVector(k, tuple(Fraction(x, 2) for x in a))
    return SpecialVectors(gamma_km1, gamma_k, d, delta)


def n_basis(k: int) -> tuple[LatticeVector, ...]:
    """The basis beta_r = alpha_r - alpha_{r+1}, r = 1..k-1, of N."""
    return tuple(
        alpha_vector(k, r) - alpha_vector(k, r + 1) for r in range(1, k)
    )


def random_n_element(k: int, rng: random.Random, bound: int = 3) -> LatticeVector:
    """A random element of N: sum c_r beta_r with c_r drawn from [-bound, bound]
    in the order r = 1..k-1, so its coordinates are c_1, c_2 - c_1, ..., -c_{k-1}."""
    c = [rng.randint(-bound, bound) for _ in range(k - 1)]
    return LatticeVector(k, tuple(b - a for a, b in zip([0] + c, c + [0])))


@dataclass(frozen=True)
class CosetSpec:
    """A coset of N in its dual: either Ntilde(l) = N - l*d/2k, or
    N(j, a) = N + delta_a - j*alpha_k + ((2j - wt(a))/2k) gamma_k."""

    k: int
    kind: str  # "ntilde" | "nja"
    l: int = 0
    j: int = 0
    a: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("ntilde", "nja"):
            raise ValueError(f"unknown coset kind {self.kind!r}")
        if self.kind == "nja" and (len(self.a) != self.k or set(self.a) - {0, 1}):
            raise ValueError(f"a must be a 0/1 vector of length {self.k}")


def ntilde_coset(k: int, l: int) -> CosetSpec:
    return CosetSpec(k, "ntilde", l=l % (2 * k))


def nja_coset(k: int, j: int, a: Sequence[int]) -> CosetSpec:
    return CosetSpec(k, "nja", j=j % k, a=tuple(a))


def coset_rep(spec: CosetSpec) -> LatticeVector:
    """An explicit representative vector of the coset, in closed form:
    -l*d/2k for Ntilde(l), and for N(j, a) the coordinate a_p/2 + (2j - wt(a))/2k
    at each p, lowered by j on alpha_k."""
    k = spec.k
    if spec.kind == "ntilde":
        c = Fraction(-spec.l, 2 * k)
        return LatticeVector(k, (c,) * (k - 1) + (c * (1 - k),))
    shift = Fraction(2 * spec.j - sum(spec.a), 2 * k)
    coords = [Fraction(x, 2) + shift for x in spec.a]
    coords[-1] -= spec.j
    return LatticeVector(k, tuple(coords))


def coset_contains(spec: CosetSpec, x: LatticeVector) -> bool:
    return (x - coset_rep(spec)).in_n()


def _pair_inner(xs: Sequence[LatticeVector], ys: Sequence[LatticeVector]) -> Fraction:
    if len(xs) != len(ys):
        raise ValueError("component count mismatch")
    return sum((x.inner(y) for x, y in zip(xs, ys)), Fraction(0))


def _translates(
    k: int,
    reps_x: Sequence[LatticeVector],
    reps_y: Sequence[LatticeVector],
    samples: int,
    seed: int,
) -> Iterator[tuple[list[LatticeVector], list[LatticeVector]]]:
    """`samples` pairs (xs, ys) of N-translates of the representatives, the
    x translates drawn before the y translates from one Random(seed)."""
    rng = random.Random(seed)
    for _ in range(samples):
        xs = [r + random_n_element(k, rng) for r in reps_x]
        ys = [r + random_n_element(k, rng) for r in reps_y]
        yield xs, ys


def verify_coset_inner_congruence(
    k: int, p: int, q: int, samples: int = 20, seed: int = 0
) -> bool:
    """Sample-check that <x, y> = (k-1)pq/2k mod Z for x in Ntilde(p),
    y in Ntilde(q), and <x, x> = (k-1)p^2/2k mod 2Z: the length-1 case of
    `verify_coset_inner_congruence_vec`, with the same samples."""
    return verify_coset_inner_congruence_vec(
        ResidueVector(2 * k, (p,)), ResidueVector(2 * k, (q,)), samples, seed
    )


def verify_coset_inner_congruence_vec(
    xi: ResidueVector, eta: ResidueVector, samples: int = 20, seed: int = 0
) -> bool:
    """Componentwise version on Ntilde(xi) x Ntilde(eta) in the ell-fold
    dual: <x, y> = (k-1)(xi.eta)/2k mod Z and <x, x> = (k-1)(xi.xi)/2k mod 2Z."""
    if xi.modulus != eta.modulus or len(xi) != len(eta) or xi.modulus % 2:
        raise ValueError("xi and eta must share an even modulus and a length")
    k = xi.modulus // 2
    reps_x = [coset_rep(ntilde_coset(k, c)) for c in xi]
    reps_y = [coset_rep(ntilde_coset(k, c)) for c in eta]
    dot_xe = sum(a * b for a, b in zip(xi, eta))
    dot_xx = sum(a * a for a in xi)
    pair_target = Fraction((k - 1) * dot_xe, 2 * k)
    norm_target = Fraction((k - 1) * dot_xx, 2 * k)
    for xs, ys in _translates(k, reps_x, reps_y, samples, seed):
        if mod1(_pair_inner(xs, ys) - pair_target) != 0:
            return False
        diff = _pair_inner(xs, xs) - norm_target
        if diff.denominator != 1 or diff.numerator % 2 != 0:
            return False
    return True


def _in_span_pair(x: LatticeVector, u: LatticeVector, v: LatticeVector) -> bool:
    """Whether x = a*u + b*v with integer a, b, assuming <u, v> = 0."""
    a = x.inner(u) / u.norm()
    b = x.inner(v) / v.norm()
    if a.denominator != 1 or b.denominator != 1:
        return False
    return u.scaled(a) + v.scaled(b) == x


def verify_coset_index(k: int) -> bool:
    """Index bookkeeping for Z*gamma_{k-1} + Z*alpha_k over Z*d + Z*gamma_k:
    the Gram determinant ratio is k^2, and the k representatives
    (p/k)(gamma_k - d), p = 0..k-1, are pairwise incongruent members."""
    sv = special_vectors(k)
    alpha_k = alpha_vector(k, k)
    det_big = sv.d.norm() * sv.gamma_k.norm() - sv.d.inner(sv.gamma_k) ** 2
    det_small = (
        sv.gamma_km1.norm() * alpha_k.norm() - sv.gamma_km1.inner(alpha_k) ** 2
    )
    if det_big != det_small * k * k:
        return False
    reps = [(sv.gamma_k - sv.d).scaled(Fraction(p, k)) for p in range(k)]
    for rep in reps:
        if not _in_span_pair(rep, sv.gamma_km1, alpha_k):
            return False
    for p in range(k):
        for q in range(p + 1, k):
            if _in_span_pair(reps[p] - reps[q], sv.d, sv.gamma_k):
                return False
    return True


def discriminant_group(k: int) -> tuple[int, ...]:
    """Elementary divisors of the Gram matrix of N in the beta basis;
    these present the dual quotient of N."""
    basis = n_basis(k)
    gram = []
    for u in basis:
        row = []
        for v in basis:
            val = u.inner(v)
            if val.denominator != 1:
                raise RuntimeError(f"N is not integral: a Gram entry is {val}")
            row.append(val.numerator)
        gram.append(tuple(row))
    return smith_normal_form(IntegerMatrix(tuple(gram)))


class GammaParity(Enum):
    EVEN = "Even"
    ODD = "Odd"
    NOT_INTEGRAL = "NotIntegral"


def gamma_d_parity(code: Code, seed: int = 0) -> GammaParity:
    """Parity of the glued lattice over the code, from the coordinates of its
    generators' coset representatives alone.

    The fractional pairing is bilinear over the code group, so generator
    pairs, each generator with itself among them, decide integrality.  Once
    every pairing is integral, |x+y|^2 = |x|^2 + |y|^2 + 2<x,y> makes every
    norm an integer and norm parity additive over D: some codeword has an
    odd norm exactly when some generator does.  Pairings mod Z and norms
    mod 2Z are constant on N-translates (spot checked below on up to four
    random translates of the generators' representatives).
    """
    k = code.k
    reps = [[coset_rep(ntilde_coset(k, c)) for c in g] for g in code.generators]
    if any(mod1(_pair_inner(x, y)) != 0 for x, y in combinations_with_replacement(reps, 2)):
        return GammaParity.NOT_INTEGRAL

    rng = random.Random(seed)
    for _ in range(min(4, len(reps))):
        i = rng.randrange(len(reps))
        moved = [r + random_n_element(k, rng) for r in reps[i]]
        diff = _pair_inner(moved, moved) - _pair_inner(reps[i], reps[i])
        if diff.denominator != 1 or diff.numerator % 2:
            raise RuntimeError(f"an N-translate of the coset of {code.generators[i]} "
                               f"moved its norm by {diff}, not by 2Z")

    odd = any(_pair_inner(x, x) % 2 for x in reps)
    return GammaParity.ODD if odd else GammaParity.EVEN


def verify_pairing_matches_b_form(
    xi: ResidueVector,
    mu: Sequence[int],
    nu: ResidueVector,
    samples: int = 20,
    seed: int = 0,
) -> bool:
    """Check that <x, y> for x in Ntilde(xi) and y in the coset housing the
    irreducible labeled (mu, nu) lands in the abstract pairing
    (xi | (k-1)nu - k*mu)/2k mod Z."""
    from .ud import IrrU0Label, b_form_vec

    if xi.modulus != nu.modulus or len(xi) != len(nu) or len(mu) != len(nu):
        raise ValueError("xi, mu, nu must have matching shapes")
    if xi.modulus % 2:
        raise ValueError("modulus must be even")
    k = xi.modulus // 2
    reps_y = []
    for mu_r, nu_r in zip(mu, nu):
        d1 = mu_r % 2
        d2 = (nu_r - d1) % 2
        eta = ((d1 + d2 - nu_r) // 2) % k
        a = (0,) * (k - 2) + (d1, d2)
        reps_y.append(coset_rep(nja_coset(k, eta, a)))
    reps_x = [coset_rep(ntilde_coset(k, c)) for c in xi]

    target = b_form_vec(xi, IrrU0Label(k, tuple(mu), tuple(nu)))
    for xs, ys in _translates(k, reps_x, reps_y, samples, seed):
        if mod1(_pair_inner(xs, ys)) != target:
            return False
    return True
