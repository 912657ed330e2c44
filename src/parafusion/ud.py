"""Representation inventory of the code extension algebra U_D.

Irreducible modules of the ell-fold tensor power of the base algebra are
labeled by pairs (mu, nu) with 0 <= mu_r <= k-1 and nu in (Z_2k)^ell,
each component canonicalized as a U(i, l) class.  A code D acts by
translating nu; the orbit, stabilizer, and character data of that action
determine the inventory of irreducible (twisted) U_D-modules.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import isqrt
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .arith import ResidueVector, Value, check_budget, mod1, standard_inner
from .codes import Classification, Code, even_part, hermite_form, least_in_coset
from .u0 import ClassIndex, U0Label, canonicalize_u0, class_index, eta_u0

__all__ = [
    "IrrU0Label",
    "CharacterLabel",
    "CosetGroup",
    "CensusRow",
    "CaseBRow",
    "canonicalize_irr",
    "all_irr_labels",
    "character_of",
    "character_from_eta",
    "trivial_character",
    "stabilizer",
    "orbits",
    "induction",
    "orbit_members",
    "induce",
    "count_twisted",
    "count_twisted_by_character",
    "twisted_count",
    "check_label_budget",
    "weight_mod1_uxi",
    "case_b_inventory",
]

class IrrU0Label(Value, fields=("k", "mu", "nu"), order=True):
    """A tensor label (mu, nu): component r names the class of U(mu_r, nu_r)."""

    def __init__(self, k: int, mu: Sequence[int], nu: Sequence[int]) -> None:
        if k < 2:
            raise ValueError(f"level k must be >= 2, got {k}")
        _check_lengths(mu, nu)
        if any(not (0 <= m <= k - 1) for m in mu):
            raise ValueError(f"mu entries must lie in [0, {k - 1}]")
        self.__dict__.update(k=k, mu=tuple(int(m) for m in mu),
                             nu=tuple(int(n) % (2 * k) for n in nu))

    @property
    def length(self) -> int:
        return len(self.mu)

    def components(self) -> tuple[U0Label, ...]:
        return tuple(U0Label(self.k, m, n) for m, n in zip(self.mu, self.nu))

    @property
    def is_canonical(self) -> bool:
        return all(c.is_canonical for c in self.components())

    def __str__(self) -> str:
        return " x ".join(str(c) for c in self.components())


def _check_lengths(mu, nu) -> None:
    if len(mu) != len(nu) or len(mu) < 1:
        raise ValueError("mu and nu must have equal positive length")


def canonicalize_irr(k: int, mu, nu) -> IrrU0Label:
    """Canonicalize componentwise."""
    _check_lengths(mu, nu)
    comps = [canonicalize_u0(k, m, n) for m, n in zip(mu, nu)]
    return IrrU0Label(k, tuple(c.i for c in comps), tuple(c.l for c in comps))


def check_label_budget(k: int, length: int) -> None:
    check_budget("label space", k, 2 * length)


def all_irr_labels(k: int, length: int) -> tuple[IrrU0Label, ...]:
    """All k^(2*length) canonical labels, in lexicographic component order."""
    check_label_budget(k, length)
    singles = list(ClassIndex.pairs(k, range(k * k)))
    return tuple(IrrU0Label(k, *zip(*combo)) for combo in product(singles, repeat=length))


def _check_code_shape(code: Code, k: int, length: int) -> None:
    if code.k != k or code.length != length:
        raise ValueError(
            f"code (k={code.k}, length={code.length}) does not match label "
            f"(k={k}, length={length})"
        )


class CharacterLabel(Value, fields=("code", "eta")):
    """A character of D, named by eta mod the dual code.  `character_of`,
    `character_from_eta` and the census store eta as the lexicographically
    least representative of its dual-code coset, entries in [0, 2k); a
    label built by hand keeps the eta it is given, and equals none of theirs
    unless that eta is the least one."""

    def __init__(self, code: Code, eta: tuple[int, ...]) -> None:
        self.__dict__.update(code=code, eta=eta)

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.eta)

    def value_exponent(self, xi: ResidueVector) -> Fraction:
        """The character value is exp(2 pi i t) for t = (xi | eta)/2k mod 1."""
        inner = standard_inner(xi, ResidueVector(2 * self.code.k, self.eta))
        return mod1(Fraction(inner, 2 * self.code.k))

    def __str__(self) -> str:
        return "chi[" + ",".join(str(e) for e in self.eta) + "]"


@lru_cache(maxsize=None)
def _canonical_eta(code: Code, eta: tuple[int, ...]) -> tuple[int, ...]:
    """The least eta of the dual-code coset that names eta's character."""
    return least_in_coset(2 * code.k, code.dual_hermite, eta)


def character_of(x: IrrU0Label, code: Code) -> CharacterLabel:
    """The character xi -> exp(2 pi i (xi | (k-1)nu - k mu)/2k) of D."""
    _check_code_shape(code, x.k, x.length)
    eta = tuple(eta_u0(x.k, m, n) for m, n in zip(x.mu, x.nu))
    return CharacterLabel(code, _canonical_eta(code, eta))


def character_from_eta(code: Code, eta) -> CharacterLabel:
    """The character named by an arbitrary eta vector, canonicalized."""
    eta = tuple(int(e) % (2 * code.k) for e in eta)
    if len(eta) != code.length:
        raise ValueError(f"eta must have length {code.length}")
    return CharacterLabel(code, _canonical_eta(code, eta))


def trivial_character(code: Code) -> CharacterLabel:
    return CharacterLabel(code, (0,) * code.length)


def _fixed_subgroup(code: Code, mu) -> tuple[ResidueVector, ...]:
    """D_T, the codewords in K_T = <k e_r : r in T>, T the positions of mu on
    the self-paired row 2i = k-1: they fix each label with rows mu, as a
    codeword moves only l, and (i, l) to its own class only by 0 or k there."""
    k = code.k
    return tuple(xi for xi in code.elements
                 if all(c == 0 or c == k and 2 * m == k - 1 for c, m in zip(xi, mu)))


def stabilizer(code: Code, x: IrrU0Label) -> tuple[ResidueVector, ...]:
    """The subgroup of codewords fixing the label: D_T of `_fixed_subgroup`."""
    _check_code_shape(code, x.k, x.length)
    return _fixed_subgroup(code, x.mu)


def _isotropic_part(code: Code, stab: tuple[ResidueVector, ...]) -> tuple[ResidueVector, ...]:
    """D_X intersected with its own dual inside (Z_2k)^ell."""
    return tuple(
        xi for xi in stab if all(standard_inner(xi, eta) == 0 for eta in stab)
    )


def _label(k: int, x: tuple[int, ...]) -> IrrU0Label:
    """The label of a tuple of `class_index` numbers at level k."""
    return IrrU0Label(k, *zip(*ClassIndex.pairs(k, x)))


def twisted_count(k: int, stabilizer_order: int, isotropic_order: int) -> int:
    """Inequivalent irreducible twisted modules of its character that an
    orbit with stabilizer D_X contributes: one over a free orbit, else |D_X|
    for k = 1 (mod 4) and the order of D_X's isotropic part for k = 3
    (mod 4).  Even k admits no nontrivial stabilizer."""
    if stabilizer_order == 1:
        return 1
    if k % 4 == 1:
        return stabilizer_order
    return isotropic_order


class CosetGroup:
    """What the orbits with one set T of self-paired positions share (T, K_T
    as in `_fixed_subgroup`): the stabilizer D_T, its isotropic part, the
    orbit size |D|/|D_T| and the `twisted_count` of each orbit, computed
    once.  A census builds one per T, so groups compare by identity."""

    __slots__ = ("stabilizer", "isotropic", "stabilizer_order", "isotropic_order",
                 "size", "twisted_count")

    def __init__(self, code: Code, stabilizer: tuple[ResidueVector, ...]):
        self.stabilizer = stabilizer
        self.isotropic = _isotropic_part(code, stabilizer)
        self.stabilizer_order = len(stabilizer)
        self.isotropic_order = len(self.isotropic)
        self.size = code.size // self.stabilizer_order
        self.twisted_count = twisted_count(code.k, self.stabilizer_order, self.isotropic_order)


class CensusRow(NamedTuple):
    """An orbit of a census: its least member, a tuple of `class_index`
    numbers, the `CosetGroup` of its self-paired positions, and its character."""

    least: tuple[int, ...]
    group: CosetGroup
    character: CharacterLabel

    @property
    def twisted_count(self) -> int:
        return self.group.twisted_count

    @property
    def representative(self) -> IrrU0Label:
        return _label(self.character.code.k, self.least)


class CaseBRow(NamedTuple):
    """A census row with what its orbit induces: `summand_count` irreducible
    modules, each with `multiplicity`, and the decomposition of each over
    the base algebra, (class tuple, multiplicity) pairs sorted by class
    tuple.  `induce` gives one for an orbit of a Case A code, whose members
    the decomposition lists; `case_b_inventory` one per trivial-character
    orbit of the even part D0 of a Case B code, whose decomposition over the
    whole code holds the orbit's members and their translates by the odd
    representative."""

    orbit: CensusRow
    multiplicity: int
    summand_count: int
    decomposition: tuple[tuple[tuple[int, ...], int], ...]


class _Characters(dict):
    """The characters of a code's census by eta tuple: a new eta is reduced
    once against the dual code's form, and each character gets one label."""

    def __init__(self, code: Code):
        super().__init__()
        self.code = code

    def __missing__(self, eta: tuple[int, ...]) -> CharacterLabel:
        least = least_in_coset(2 * self.code.k, self.code.dual_hermite, eta)
        chi = self[eta] = self.setdefault(least, CharacterLabel(self.code, least))
        return chi


class _LabelKernel:
    """A code's orbits on labels written as class-index tuples.

    Classes are numbered by `class_index`, so class tuples sort as the
    census lists labels: position by position, by row and then by l.  The
    orbits of the labels with rows mu are the cosets of D + K_T (T, K_T as
    in `_fixed_subgroup`), each led by its nu reduced against the Hermite
    form of D + K_T: entry j in [0, d_j) at a pivot, free in [0, 2k) elsewhere.
    That form and the `CosetGroup` are computed once per T.  A row's
    character is looked up by its eta tuple in `characters`, which names
    each distinct eta once.
    """

    def __init__(self, code: Code):
        self.code, self.index = code, class_index(code.k)
        self.characters = _Characters(code)
        self._cosets: dict[tuple[bool, ...], tuple] = {}

    def cosets(self, mu) -> tuple[tuple, CosetGroup]:
        """(the Hermite form of D + K_T, the `CosetGroup` of T)."""
        code, k, ell = self.code, self.code.k, self.code.length
        paired = tuple(2 * m == k - 1 for m in mu)
        if paired not in self._cosets:
            gens = [h for _, h in code.hermite]
            gens += [tuple(k * (j == r) for j in range(ell)) for r in range(ell) if paired[r]]
            self._cosets[paired] = (hermite_form(2 * k, ell, gens),
                                    CosetGroup(code, _fixed_subgroup(code, mu)))
        return self._cosets[paired]

    def rows(self, mu, target: CharacterLabel | None) -> list[CensusRow]:
        """The census rows of the labels with rows mu, least members rising,
        only those of the character `target` unless it is None."""
        form, group = self.cosets(mu)
        eta = self.index.eta
        columns = [self.index.pair_class[m] for m in mu]
        for j, h in form:
            columns[j] = columns[j][:h[j]]
        etas = product(*[[eta[c] for c in column] for column in columns])
        named = map(self.characters.__getitem__, etas)
        if target is None:
            return list(map(CensusRow, product(*columns), repeat(group), named))
        return [CensusRow(x, group, chi)
                for x, chi in zip(product(*columns), named) if chi is target]


def _orbit_of(code: Code, x: IrrU0Label) -> CensusRow:
    _check_code_shape(code, x.k, x.length)
    # refused before the class table is built, as `orbits` refuses
    check_label_budget(code.k, code.length)
    kernel, x = _LabelKernel(code), canonicalize_irr(x.k, x.mu, x.nu)
    form, group = kernel.cosets(x.mu)
    nu = least_in_coset(2 * code.k, form, x.nu)
    least = tuple(kernel.index.pair_class[m][v] for m, v in zip(x.mu, nu))
    eta = tuple(map(kernel.index.eta.__getitem__, least))
    return CensusRow(least, group, kernel.characters[eta])


def orbits(code: Code, restrict_to_character: CharacterLabel | None = None) -> list[CensusRow]:
    """The orbit census of the code action on all canonical labels, as
    `CensusRow`s, in `all_irr_labels` order of the least members, which are
    tuples of the class numbers of `class_index(code.k)`, built once the
    label budget admits the code: each of its tables holds at most
    2k^2 + 2k <= 3 k^(2 length) entries, so the label budget bounds it too.

    Characters are class functions only when every code pairing is
    integral, so Invalid codes are rejected.  A character restriction is
    applied per orbit, to its least member.
    """
    if code.classification is Classification.INVALID:
        raise ValueError("orbit census requires a Case A or Case B code")
    check_label_budget(code.k, code.length)
    chi = restrict_to_character
    if chi is not None and (chi.code != code or len(chi.eta) != code.length):
        return []
    kernel = _LabelKernel(code)
    target = None if chi is None else kernel.characters[tuple(chi.eta)]
    if target != chi:
        return []
    census = []
    # the rows mu of canonical labels, whose orbits the sort interleaves
    for mu in product(range((code.k + 1) // 2), repeat=code.length):
        census += kernel.rows(mu, target)
    census.sort(key=itemgetter(0))
    return census


def _require_case_a(code: Code, what: str) -> None:
    if code.classification is not Classification.CASE_A:
        raise ValueError(f"{what} requires a Case A code, got {code.classification.value}")


def induction(code: Code, group: CosetGroup) -> tuple[int, int]:
    """(summand count, multiplicity) of the module induced over each orbit
    of `group` in the census of a Case A code: `group.twisted_count`
    summands (the k mod 4 rule), each with multiplicity sqrt(|D_X|/count),
    checked: |D_X| must be a square times the summand count."""
    _require_case_a(code, "induction")
    summands, order = group.twisted_count, group.stabilizer_order
    mult = isqrt(order // summands) if summands else 0
    if mult * mult * summands != order:
        raise ValueError(f"stabilizer order {order} is not a square times "
                         f"the summand count {summands}")
    return summands, mult


def orbit_members(code: Code, row: CensusRow) -> tuple[tuple[int, ...], ...]:
    """The members of the orbit of `row` in the census of `code`, least
    first, as tuples of the class numbers of `class_index(code.k)`: the
    least one moved by every codeword.  Checked: the module induced over it
    (its `induction`, named in the refusal) has length |D| over the base
    algebra only if there are `row.group.size` of them."""
    _check_code_shape(code, row.character.code.k, len(row.least))
    moved = set(class_index(code.k).moved(row.least, (xi.entries for xi in code.elements)))
    if len(moved) != row.group.size:
        summands, mult = induction(code, row.group)
        raise ValueError(
            f"orbit of {row.representative} is inconsistent with |D| = {code.size}: "
            f"{summands} summands x multiplicity {mult}^2 x orbit size {len(moved)}"
        )
    moved.discard(row.least)
    return (row.least, *sorted(moved))


def induce(code: Code, x: IrrU0Label) -> CaseBRow:
    """Induce from an irreducible label over a Case A code: the `CensusRow`
    of its orbit, with the multiplicity, the summand count and each member
    at that multiplicity, as a `CaseBRow`."""
    row = _orbit_of(code, x)
    summands, mult = induction(code, row.group)
    members = orbit_members(code, row)
    return CaseBRow(row, mult, summands, tuple((m, mult) for m in members))


def count_twisted_by_character(census) -> Counter:
    """The sum of `twisted_count` over the orbits of each character of a
    census of one code, as `CensusRow`s."""
    # grouped by eta first, so that a CharacterLabel, and with it the Code,
    # is hashed once per character and not once per orbit
    totals: dict[tuple[int, ...], list] = {}
    for o in census:
        total = totals.get(o.character.eta)
        if total is None:
            total = totals[o.character.eta] = [o.character, 0]
        total[1] += o.twisted_count
    return Counter({chi: n for chi, n in totals.values()})


def count_twisted(code: Code, chi: CharacterLabel) -> int:
    """Number of inequivalent irreducible chi-twisted modules of U_D."""
    _require_case_a(code, "twisted-module counting")
    return sum(count_twisted_by_character(orbits(code, restrict_to_character=chi)).values())


def weight_mod1_uxi(xi: ResidueVector) -> Fraction:
    """Conformal weight mod 1 of the simple current U_xi: (k-1)(xi.xi)/4k."""
    if xi.modulus % 2:
        raise ValueError("codewords live over an even modulus 2k")
    k = xi.modulus // 2
    return mod1(Fraction((k - 1) * sum(c * c for c in xi), 4 * k))


UNDETERMINED_FLAG = "irreducible or splits into two irreducibles (undetermined)"


def case_b_inventory(code: Code) -> tuple[Code, ResidueVector, Iterator[CaseBRow]]:
    """Inventory of irreducible modules of a Case B superalgebra code.

    The even-diagonal subgroup D0 is Case A; every irreducible module of
    the even part U_{D0} comes from a trivial-character orbit there, and
    induces over U_D an object that is either irreducible or a direct sum
    of two irreducibles (not decided here).  Returns D0, the least vector
    xi1 of the odd part, and the `CaseBRow` of each trivial-character orbit
    of D0, in census order, each computed as it is read.
    """
    even, xi1 = even_part(code)
    census = orbits(even, trivial_character(even))
    index = class_index(code.k)
    # the words of xi1 + D0, entries in [0, 2k) as `moved` takes them
    n = 2 * code.k
    odd = [tuple((a + b) % n for a, b in zip(xi1.entries, xi.entries)) for xi in even.elements]

    def rows() -> Iterator[CaseBRow]:
        for orbit in census:
            summands, mult = induction(even, orbit.group)
            # each member, and each translate by xi1 + D0, at the multiplicity
            counts = dict.fromkeys(orbit_members(even, orbit), mult)
            for x in set(index.moved(orbit.least, odd)):
                counts[x] = counts.get(x, 0) + mult
            yield CaseBRow(orbit, mult, summands, tuple(sorted(counts.items())))

    return even, xi1, rows()
