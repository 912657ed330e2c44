"""Exact coordinate realization of the glue lattice and its cosets.

Everything lives in the orthogonal basis alpha_1..alpha_k with Gram matrix
2*Identity.  The sublattice N consists of the integral vectors orthogonal
to gamma_k = alpha_1 + ... + alpha_k.  This module is the coordinate
oracle: congruence statements proved abstractly elsewhere are re-derived
here from explicit vectors of (1/2k)Z^k, held as integer numerators over 2k.
2k^2 <x, y> is the dot product of the numerators, so a pairing mod Z is a
congruence mod 2k^2, and a norm mod 2Z one mod 4k^2.

Every coset congruence is decided in one helper, `_congruent`, on the
coset representatives alone: pairings mod Z and norms mod 2Z are constant
on the N-translates of representatives in N*, so a check draws nothing.
`random_n_element` draws one element of N; the tests move representatives
by it to check the decision on sampled translates.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from operator import mul
from typing import NamedTuple, Sequence

from .arith import IntegerMatrix, ResidueVector, Value, smith_normal_form
from .codes import Code
from .u0 import eta_u0

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


def _check_rank(k: int) -> None:
    """Refuse a rank below 2: at k = 1, N is 0, so a coset check would have
    no translate to decide."""
    if k < 2:
        raise ValueError(f"rank k must be >= 2, got {k}")


class LatticeVector(Value, fields=("k", "num"), order=True):
    """A vector of (1/2k)Z^k in the basis alpha_1..alpha_k (Gram = 2*Id), held
    as the integer numerators `num` of its coordinates over 2k."""

    def __init__(self, k: int, coords: Sequence) -> None:
        _check_rank(k)
        if len(coords) != k:
            raise ValueError(f"expected {k} coordinates, got {len(coords)}")
        num = [Fraction(c) * 2 * k for c in coords]
        bad = next((c for c, a in zip(coords, num) if a.denominator != 1), None)
        if bad is not None:
            raise ValueError(f"coordinate {bad} does not lie in (1/{2 * k})Z")
        self.__dict__.update(k=k, num=tuple(map(int, num)))

    @classmethod
    def _of(cls, k: int, num: tuple[int, ...]) -> "LatticeVector":
        v = object.__new__(cls)  # numerators over 2k, taken as they are
        v.__dict__.update(k=k, num=num)
        return v

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, 2 * self.k) for a in self.num)

    def _zip(self, other: "LatticeVector") -> zip:
        if self.k != other.k:
            raise ValueError(f"vectors of rank {self.k} and {other.k} do not combine")
        return zip(self.num, other.num)

    def _dot(self, other: "LatticeVector") -> int:
        """2k^2 <self, other>: the dot product of the numerators."""
        self._zip(other)  # the rank check
        return sum(map(mul, self.num, other.num))

    def inner(self, other: "LatticeVector") -> Fraction:
        return Fraction(self._dot(other), 2 * self.k * self.k)

    def norm(self) -> Fraction:
        return self.inner(self)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector._of(self.k, tuple(a + b for a, b in self._zip(other)))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector._of(self.k, tuple(a - b for a, b in self._zip(other)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector._of(self.k, tuple(-a for a in self.num))

    def scaled(self, c) -> "LatticeVector":
        return LatticeVector(self.k, [Fraction(c) * a for a in self.coords])

    def in_n(self) -> bool:
        """Membership in N: integral coordinates summing to zero."""
        return sum(self.num) == 0 and all(a % (2 * self.k) == 0 for a in self.num)


def alpha_vector(k: int, r: int) -> LatticeVector:
    """The basis vector alpha_r, 1 <= r <= k."""
    if not (1 <= r <= k):
        raise ValueError(f"basis index must lie in [1, {k}], got {r}")
    return LatticeVector._of(k, tuple(2 * k if s == r else 0 for s in range(1, k + 1)))


class SpecialVectors(NamedTuple):
    gamma_km1: LatticeVector
    gamma_k: LatticeVector
    d: LatticeVector
    delta: LatticeVector | None


def special_vectors(k: int, a: Sequence[int] | None = None) -> SpecialVectors:
    """gamma_{k-1}, gamma_k, d = gamma_{k-1} - (k-1)alpha_k, and optionally
    delta_a = (1/2) sum a_p alpha_p for a in {0,1}^k."""
    gamma_km1 = LatticeVector(k, (1,) * (k - 1) + (0,))
    gamma_k = LatticeVector(k, (1,) * k)
    d = LatticeVector(k, (1,) * (k - 1) + (1 - k,))
    if (gamma_k.norm(), d.norm(), gamma_k.inner(d)) != (2 * k, 2 * (k - 1) * k, 0):
        raise RuntimeError("gamma_k and d fail their norm and orthogonality identities")
    delta = None
    if a is not None:
        if len(a) != k or any(x not in (0, 1) for x in a):
            raise ValueError(f"a must be a 0/1 vector of length {k}")
        delta = LatticeVector._of(k, tuple(k * x for x in a))
    return SpecialVectors(gamma_km1, gamma_k, d, delta)


def n_basis(k: int) -> tuple[LatticeVector, ...]:
    """The basis beta_r = alpha_r - alpha_{r+1}, r = 1..k-1, of N."""
    return tuple(
        alpha_vector(k, r) - alpha_vector(k, r + 1) for r in range(1, k)
    )


def random_n_element(k: int, rng: random.Random, bound: int = 3) -> LatticeVector:
    """A random element of N: sum c_r beta_r with c_r = rng.randint(-bound, bound)
    drawn in the order r = 1..k-1, so its coordinates are c_1, c_2 - c_1, ...,
    -c_{k-1}."""
    _check_rank(k)
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    num, prev = [], 0
    for _ in range(k - 1):
        c = 2 * k * rng.randint(-bound, bound)
        num.append(c - prev)
        prev = c
    num.append(-prev)
    return LatticeVector._of(k, tuple(num))


class CosetSpec(Value, fields=("k", "kind", "l", "j", "a")):
    """A coset of N in its dual: either Ntilde(l) = N - l*d/2k, or
    N(j, a) = N + delta_a - j*alpha_k + ((2j - wt(a))/2k) gamma_k."""

    def __init__(self, k: int, kind: str, l: int = 0, j: int = 0,
                 a: tuple[int, ...] = ()) -> None:
        if kind not in ("ntilde", "nja"):
            raise ValueError(f"unknown coset kind {kind!r}")
        if kind == "nja" and (len(a) != k or set(a) - {0, 1}):
            raise ValueError(f"a must be a 0/1 vector of length {k}")
        self.__dict__.update(k=k, kind=kind, l=l, j=j, a=a)


def ntilde_coset(k: int, l: int) -> CosetSpec:
    return CosetSpec(k, "ntilde", l=l % (2 * k))


def nja_coset(k: int, j: int, a: Sequence[int]) -> CosetSpec:
    return CosetSpec(k, "nja", j=j % k, a=tuple(a))


def coset_rep(spec: CosetSpec) -> LatticeVector:
    """An explicit representative of the coset, in closed form.  Its numerators
    over 2k are -l at p < k and l(k-1) at p = k for Ntilde(l) = -l*d/2k, and
    k a_p + 2j - wt(a), lowered by 2kj at p = k, for N(j, a)."""
    k, l = spec.k, spec.l
    if spec.kind == "ntilde":
        return LatticeVector._of(k, (-l,) * (k - 1) + (l * (k - 1),))
    shift = 2 * spec.j - sum(spec.a)
    num = [k * x + shift for x in spec.a]
    num[-1] -= 2 * k * spec.j
    return LatticeVector._of(k, tuple(num))


def coset_contains(spec: CosetSpec, x: LatticeVector) -> bool:
    return (x - coset_rep(spec)).in_n()


def _pair_inner(xs: Sequence[LatticeVector], ys: Sequence[LatticeVector]) -> int:
    """2k^2 times the summed pairing of xs with ys, an integer."""
    if len(xs) != len(ys):
        raise ValueError("component count mismatch")
    return sum(x._dot(y) for x, y in zip(xs, ys))


def _in_n_dual(reps: Sequence[LatticeVector]) -> bool:
    """Whether each representative lies in N*, that is pairs integrally with
    the basis beta_s of N.  2k^2 <r, beta_s> = 2k (num_s - num_{s+1}), so r
    lies in N* exactly when all its numerators agree mod k."""
    return all(len({a % r.k for a in r.num}) == 1 for r in reps)


def _congruent(k: int, reps_x: Sequence[LatticeVector], reps_y: Sequence[LatticeVector],
               pair_target: int, norm_target: int | None) -> bool:
    """Whether 2k^2 <x, y> = pair_target mod 2k^2 and, unless norm_target is
    None, 2k^2 <x, x> = norm_target mod 4k^2, summed over components, on all
    N-translates x, y of reps_x, reps_y.  <x+n, y+m> = <x,y> + <x,m> + <n,y>
    + <n,m> and N is even, so this holds exactly when it holds on the
    representatives and they lie in N* (the discriminant form of N)."""
    if len(reps_x) != len(reps_y):
        raise ValueError("component count mismatch")
    if any(r.k != k for r in chain(reps_x, reps_y)):
        raise ValueError(f"every representative must have rank {k}")
    m = 2 * k * k
    return (_in_n_dual([*reps_x, *reps_y])
            and (_pair_inner(reps_x, reps_y) - pair_target) % m == 0
            and (norm_target is None
                 or (_pair_inner(reps_x, reps_x) - norm_target) % (2 * m) == 0))


def verify_coset_inner_congruence(k: int, p: int, q: int) -> bool:
    """Decide that <x, y> = (k-1)pq/2k mod Z for x in Ntilde(p), y in
    Ntilde(q), and <x, x> = (k-1)p^2/2k mod 2Z: the length-1 case of
    `verify_coset_inner_congruence_vec`."""
    _check_rank(k)
    return verify_coset_inner_congruence_vec(
        ResidueVector(2 * k, (p,)), ResidueVector(2 * k, (q,))
    )


def verify_coset_inner_congruence_vec(xi: ResidueVector, eta: ResidueVector) -> bool:
    """Decide, componentwise on Ntilde(xi) x Ntilde(eta) in the ell-fold dual,
    that <x, y> = (k-1)(xi.eta)/2k mod Z and <x, x> = (k-1)(xi.xi)/2k mod 2Z
    for every x, y, from the representatives (`_congruent`)."""
    if xi.modulus != eta.modulus or len(xi) != len(eta) or xi.modulus % 2:
        raise ValueError("xi and eta must share an even modulus and a length")
    k = xi.modulus // 2
    _check_rank(k)
    reps_x = [coset_rep(ntilde_coset(k, c)) for c in xi]
    reps_y = [coset_rep(ntilde_coset(k, c)) for c in eta]
    # both targets times 2k^2: k(k-1)(xi.eta) mod 2k^2 and k(k-1)(xi.xi) mod 4k^2
    pair_target = k * (k - 1) * sum(a * b for a, b in zip(xi, eta))
    norm_target = k * (k - 1) * sum(a * a for a in xi)
    return _congruent(k, reps_x, reps_y, pair_target, norm_target)


def _in_span_pair(x: LatticeVector, u: LatticeVector, v: LatticeVector) -> bool:
    """Whether x = a*u + b*v with integer a, b, assuming <u, v> = 0."""
    (a, r), (b, s) = divmod(x._dot(u), u._dot(u)), divmod(x._dot(v), v._dot(v))
    return not (r or s) and u.scaled(a) + v.scaled(b) == x


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
    reps = [(sv.gamma_k - sv.d).scaled(Fraction(p, k)) for p in range(k)]
    return (det_big == det_small * k * k
            and all(_in_span_pair(rep, sv.gamma_km1, alpha_k) for rep in reps)
            and not any(_in_span_pair(x - y, sv.d, sv.gamma_k)
                        for x, y in combinations(reps, 2)))


def discriminant_group(k: int) -> tuple[int, ...]:
    """Elementary divisors of the Gram matrix of N in the beta basis;
    these present the dual quotient of N."""
    basis = n_basis(k)
    m = 2 * k * k
    gram = [[u._dot(v) for v in basis] for u in basis]
    bad = next((x for row in gram for x in row if x % m), None)
    if bad is not None:
        raise RuntimeError(f"N is not integral: a Gram entry is {bad}/{m}")
    return smith_normal_form(IntegerMatrix(tuple(tuple(x // m for x in row) for row in gram)))


class GammaParity(Enum):
    EVEN = "Even"
    ODD = "Odd"
    NOT_INTEGRAL = "NotIntegral"


def gamma_d_parity(code: Code) -> GammaParity:
    """Parity of the glued lattice over the code, from the coordinates of its
    generators' coset representatives alone.

    The fractional pairing is bilinear over the code group, so generator
    pairs, each generator with itself among them, decide integrality.  Once
    every pairing is integral, |x+y|^2 = |x|^2 + |y|^2 + 2<x,y> makes every
    norm an integer and norm parity additive over D: some codeword has an
    odd norm exactly when some generator does.  Pairings mod Z and norms
    mod 2Z are constant on N-translates because the generators'
    representatives lie in N*, which is checked (`_in_n_dual`).
    """
    k = code.k
    m = 2 * k * k
    reps = [[coset_rep(ntilde_coset(k, c)) for c in g] for g in code.generators]
    if any(_pair_inner(x, y) % m for x, y in combinations_with_replacement(reps, 2)):
        return GammaParity.NOT_INTEGRAL

    for g, rep in zip(code.generators, reps):
        if not _in_n_dual(rep):
            raise RuntimeError(f"an N-translate of the coset of {g} moves a pairing "
                               "off Z or a norm off 2Z")

    odd = any(_pair_inner(x, x) % (2 * m) for x in reps)
    return GammaParity.ODD if odd else GammaParity.EVEN


def _housing_rep(k: int, mu: int, nu: int) -> LatticeVector:
    """The representative of the coset N(j, a) housing the irreducible U(mu, nu):
    d1 = mu mod 2, d2 = (nu - d1) mod 2, j = ((d1 + d2 - nu)/2) mod k and
    a = (0, ..., 0, d1, d2).  Only mu mod 2 enters."""
    d1 = mu % 2
    d2 = (nu - d1) % 2
    a = (0,) * (k - 2) + (d1, d2)
    return coset_rep(nja_coset(k, ((d1 + d2 - nu) // 2) % k, a))


def verify_pairing_matches_b_form(
    xi: ResidueVector,
    mu: Sequence[int],
    nu: ResidueVector,
) -> bool:
    """Decide that <x, y> for x in Ntilde(xi) and y in the coset housing the
    irreducible labeled (mu, nu) lands in (xi | (k-1)nu - k*mu)/2k mod Z, that
    is 2k^2 <x, y> = k sum xi_r eta_u0(k, mu_r, nu_r) mod 2k^2, for every x, y,
    from the representatives (`_congruent`)."""
    if xi.modulus != nu.modulus or len(xi) != len(nu) or len(mu) != len(nu):
        raise ValueError("xi, mu, nu must have matching shapes")
    if xi.modulus % 2:
        raise ValueError("modulus must be even")
    k = xi.modulus // 2
    _check_rank(k)
    if any(not 0 <= m < k for m in mu):
        raise ValueError(f"mu entries must lie in [0, {k - 1}]")
    reps_y = [_housing_rep(k, mu_r, nu_r) for mu_r, nu_r in zip(mu, nu)]
    reps_x = [coset_rep(ntilde_coset(k, c)) for c in xi]

    target = k * sum(c * eta_u0(k, m, n) for c, m, n in zip(xi, mu, nu))
    return _congruent(k, reps_x, reps_y, target, None)
