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
from functools import cached_property, lru_cache
from itertools import product, repeat
from math import isqrt
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .arith import ResidueVector, Value, check_budget, mod1, standard_inner
from .codes import Classification, Code, enumerate_code, even_part, least_in_coset
from .u0 import ClassIndex, U0Label, canonicalize_u0, class_index, eta_u0

__all__ = [
    "IrrU0Label",
    "CharacterLabel",
    "OrbitInfo",
    "CosetGroup",
    "CensusRow",
    "InducedModuleReport",
    "CaseBRow",
    "canonicalize_irr",
    "all_irr_labels",
    "act",
    "b_form_vec",
    "character_of",
    "character_from_eta",
    "trivial_character",
    "stabilizer",
    "census_rows",
    "orbits",
    "induce",
    "induce_from_orbit",
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


def act(xi: ResidueVector, x: IrrU0Label) -> IrrU0Label:
    """Translation action of a codeword: nu -> nu + xi, canonicalized."""
    if xi.modulus != 2 * x.k or len(xi) != x.length:
        raise ValueError("codeword shape does not match the label")
    return canonicalize_irr(x.k, x.mu, tuple(n + c for n, c in zip(x.nu, xi)))


def b_form_vec(xi: ResidueVector, x: IrrU0Label) -> Fraction:
    """(xi | (k-1)nu - k*mu)/2k mod 1."""
    if xi.modulus != 2 * x.k or len(xi) != x.length:
        raise ValueError("codeword shape does not match the label")
    k = x.k
    total = sum(c * eta_u0(k, m, n) for c, m, n in zip(xi, x.mu, x.nu))
    return mod1(Fraction(total, 2 * k))


class CharacterLabel(Value, fields=("code", "eta")):
    """A character of D, named by eta mod the dual code; eta is stored as
    the lexicographically least representative of its dual-code coset."""

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


class OrbitInfo(Value, fields=("least", "stabilizer", "isotropic", "character")):
    """An orbit, named by its least member, a tuple of `class_index` numbers.
    `index` is the `ClassIndex` that names and moves the classes; equality
    and the repr skip it."""

    def __init__(self, least: tuple[int, ...], stabilizer: tuple[ResidueVector, ...],
                 isotropic: tuple[ResidueVector, ...], character: CharacterLabel,
                 index: ClassIndex) -> None:
        self.__dict__.update(least=least, stabilizer=stabilizer, isotropic=isotropic,
                             character=character, index=index)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The members, least first: the least one moved by every codeword."""
        words = (xi.entries for xi in self.character.code.elements)
        moved = set(self.index.moved(self.least, words))
        return (self.least, *sorted(moved - {self.least}))

    @property
    def representative(self) -> IrrU0Label:
        return _label(self.character.code.k, self.least)

    @property
    def members(self) -> tuple[IrrU0Label, ...]:
        k = self.character.code.k
        return tuple(_label(k, x) for x in self.classes)

    @property
    def size(self) -> int:
        return self.character.code.size // self.stabilizer_order

    @property
    def stabilizer_order(self) -> int:
        return len(self.stabilizer)

    @property
    def isotropic_order(self) -> int:
        return len(self.isotropic)

    @property
    def twisted_count(self) -> int:
        """What the orbit contributes to its character's count: `twisted_count`."""
        return twisted_count(self.character.code.k, self.stabilizer_order, self.isotropic_order)


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


class _LabelKernel:
    """A code's orbits on labels written as class-index tuples.

    Classes are numbered by `class_index`, so class tuples sort as the
    census lists labels: position by position, by row and then by l.  The
    orbits of the labels with rows mu are the cosets of D + K_T (T, K_T as
    in `_fixed_subgroup`), each led by its nu reduced against the Hermite
    form of D + K_T: entry j in [0, d_j) at a pivot, free in [0, 2k) elsewhere.
    That form and the `CosetGroup` are computed once per T.  An eta is keyed
    by the integer whose base-2k digits it is, summed position by position,
    and named once per distinct key, reduced against the dual code's form.
    """

    def __init__(self, code: Code, index: ClassIndex):
        self.code, self.index = code, index
        self._by_key: dict[int, CharacterLabel] = {}
        self._characters: dict[tuple[int, ...], CharacterLabel] = {}
        self._cosets: dict[tuple[bool, ...], tuple] = {}

    def named(self, key: int) -> CharacterLabel:
        """The character that the eta keyed by `key` names."""
        chi = self._by_key.get(key)
        if chi is None:
            n, eta, rest = 2 * self.code.k, [], key
            for _ in range(self.code.length):
                rest, e = divmod(rest, n)
                eta.append(e)
            least = least_in_coset(n, self.code.dual_hermite, eta[::-1])
            chi = self._characters.setdefault(least, CharacterLabel(self.code, least))
            self._by_key[key] = chi
        return chi

    def key(self, eta) -> int:
        """The integer whose base-2k digits are eta, the first most significant."""
        n, key = 2 * self.code.k, 0
        for e in eta:
            key = key * n + e % n
        return key

    def character(self, x: tuple[int, ...]) -> CharacterLabel:
        return self.named(self.key(map(self.index.eta.__getitem__, x)))

    def cosets(self, mu) -> tuple[tuple, CosetGroup]:
        """(the Hermite form of D + K_T, the `CosetGroup` of T)."""
        code, k, ell = self.code, self.code.k, self.code.length
        paired = tuple(2 * m == k - 1 for m in mu)
        if paired not in self._cosets:
            gens = [h for _, h in code.hermite]
            gens += [tuple(k * (j == r) for j in range(ell)) for r in range(ell) if paired[r]]
            self._cosets[paired] = (enumerate_code(k, ell, gens).hermite,
                                    CosetGroup(code, _fixed_subgroup(code, mu)))
        return self._cosets[paired]

    def rows(self, mu, target: CharacterLabel | None) -> list[CensusRow]:
        """The census rows of the labels with rows mu, least members rising,
        only those of the character `target` unless it is None."""
        form, group = self.cosets(mu)
        n, eta = 2 * self.code.k, self.index.eta
        columns = [self.index.pair_class[m] for m in mu]
        for j, h in form:
            columns[j] = columns[j][:h[j]]
        # the keys of product(*columns), in its order
        keys = [0]
        for column in columns:
            etas = [eta[c] for c in column]
            keys = [key * n + e for key in keys for e in etas]
        for key in set(keys).difference(self._by_key):
            self.named(key)
        named = map(self._by_key.__getitem__, keys)
        if target is None:
            return list(map(CensusRow, product(*columns), repeat(group), named))
        return [CensusRow(x, group, chi)
                for x, chi in zip(product(*columns), named) if chi is target]


def _orbit_of(code: Code, x: IrrU0Label) -> OrbitInfo:
    _check_code_shape(code, x.k, x.length)
    kernel, x = _LabelKernel(code, class_index(code.k)), canonicalize_irr(x.k, x.mu, x.nu)
    form, group = kernel.cosets(x.mu)
    nu = least_in_coset(2 * code.k, form, x.nu)
    least = tuple(kernel.index.pair_class[m][v] for m, v in zip(x.mu, nu))
    return OrbitInfo(least, group.stabilizer, group.isotropic, kernel.character(least),
                     kernel.index)


def _index_of(code: Code, index: ClassIndex | None) -> ClassIndex:
    """`index`, or else `class_index(code.k)`, built once the label budget
    admits the code: each table of the class index holds at most
    2k^2 + 2k <= 3 k^(2 length) entries, so the label budget bounds it too."""
    if index is None:
        check_label_budget(code.k, code.length)
        index = class_index(code.k)
    return index


def census_rows(
    code: Code,
    restrict_to_character: CharacterLabel | None = None,
    index: ClassIndex | None = None,
) -> list[CensusRow]:
    """The orbit census as `CensusRow`s, in `all_irr_labels` order of the
    least members, which are tuples of the class numbers of `index`
    (`class_index(code.k)`, built when not given).

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
    kernel = _LabelKernel(code, _index_of(code, index))
    target = None if chi is None else kernel.named(kernel.key(chi.eta))
    if target != chi:
        return []
    census = []
    # the rows mu of canonical labels, whose orbits the sort interleaves
    for mu in product(range((code.k + 1) // 2), repeat=code.length):
        census += kernel.rows(mu, target)
    census.sort(key=itemgetter(0))
    return census


def orbits(
    code: Code,
    restrict_to_character: CharacterLabel | None = None,
    index: ClassIndex | None = None,
) -> tuple[OrbitInfo, ...]:
    """The orbit census of the code action on all canonical labels, as
    `OrbitInfo`s: `census_rows`, whose arguments it takes."""
    index = _index_of(code, index)
    rows = census_rows(code, restrict_to_character, index)[::-1]
    # each row is dropped as its OrbitInfo is built: the census is held once
    return tuple(OrbitInfo(least, group.stabilizer, group.isotropic, chi, index)
                 for least, group, chi in (rows.pop() for _ in range(len(rows))))


class InducedModuleReport(Value, fields=("orbit", "summand_count", "multiplicity")):
    """Structure of the induced module over one orbit, per the stabilizer
    branching: `summand_count` irreducibles, each appearing with
    multiplicity `multiplicity`, each decomposing over the orbit members
    with that same multiplicity.  Its character and stabilizer are the
    orbit's."""

    def __init__(self, orbit: OrbitInfo, summand_count: int, multiplicity: int) -> None:
        self.__dict__.update(orbit=orbit, summand_count=summand_count,
                             multiplicity=multiplicity)


def _require_case_a(code: Code, what: str) -> None:
    if code.classification is not Classification.CASE_A:
        raise ValueError(f"{what} requires a Case A code, got {code.classification.value}")


def induce(code: Code, x: IrrU0Label) -> InducedModuleReport:
    """Induce from an irreducible label over a Case A code."""
    return induce_from_orbit(code, _orbit_of(code, x))


def induce_from_orbit(code: Code, info: OrbitInfo) -> InducedModuleReport:
    """Induce over an orbit of the census of a Case A code, with the summand
    count `info.twisted_count` (the k mod 4 rule) and multiplicity sqrt(|D_X|/count)."""
    _require_case_a(code, "induction")
    _check_code_shape(code, info.character.code.k, len(info.least))
    summands = info.twisted_count
    mult = _multiplicity(code, info.least, summands, info.stabilizer_order, len(info.classes))
    return InducedModuleReport(orbit=info, summand_count=summands, multiplicity=mult)


def _multiplicity(code: Code, least: tuple[int, ...], summands: int, stabilizer_order: int,
                  size: int) -> int:
    """sqrt(|D_X|/summands), the multiplicity of each summand induced over
    the orbit of `least`, checked: |D_X| must be a square times the summand
    count, and the total length over the base algebra must be |D| on the
    `size` members built."""
    mult = isqrt(stabilizer_order // summands) if summands else 0
    if mult * mult * summands != stabilizer_order:
        raise ValueError(
            f"stabilizer order {stabilizer_order} is not a square times "
            f"the summand count {summands}"
        )
    if summands * mult * mult * size != code.size:
        raise ValueError(
            f"orbit of {_label(code.k, least)} is inconsistent with |D| = {code.size}: "
            f"{summands} summands x multiplicity {mult}^2 x orbit size {size}"
        )
    return mult


def count_twisted_by_character(census) -> Counter:
    """The sum of `twisted_count` over the orbits of each character of a
    census, which is of one code: its `OrbitInfo`s or its `CensusRow`s."""
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


class CaseBRow(NamedTuple):
    """A trivial-character orbit of the even part D0 of a Case B code, as
    its `CensusRow`, with what it induces: `summand_count` irreducible
    modules of U_{D0}, each with `multiplicity`, and over the whole code the
    decomposition of each, (class tuple, multiplicity) pairs sorted by class
    tuple: the orbit's members and their translates by the odd representative."""

    orbit: CensusRow
    multiplicity: int
    summand_count: int
    decomposition: tuple[tuple[tuple[int, ...], int], ...]


def case_b_inventory(code: Code, index: ClassIndex | None = None
                     ) -> tuple[Code, ResidueVector, Iterator[CaseBRow]]:
    """Inventory of irreducible modules of a Case B superalgebra code.

    The even-diagonal subgroup D0 is Case A; every irreducible module of
    the even part U_{D0} comes from a trivial-character orbit there, and
    induces over U_D an object that is either irreducible or a direct sum
    of two irreducibles (not decided here).  Returns D0, the least vector
    xi1 of the odd part, and the `CaseBRow` of each trivial-character orbit
    of D0, in census order, each computed as it is read.  `index` is
    `class_index(code.k)`, built when not given.
    """
    even, xi1 = even_part(code)
    index = _index_of(code, index)
    census = census_rows(even, trivial_character(even), index)
    # the words of D0 and of xi1 + D0, entries in [0, 2k) as `moved` takes them
    n, words = 2 * code.k, [xi.entries for xi in even.elements]
    odd = [tuple((a + b) % n for a, b in zip(xi1.entries, w)) for w in words]

    def rows() -> Iterator[CaseBRow]:
        for orbit in census:
            least, stab, summands = orbit.least, orbit.group.stabilizer_order, orbit.twisted_count
            # D0 meets each member |D0_X| times, and xi1 + D0 each translate
            counts = Counter(index.moved(least, words))
            mult = _multiplicity(even, least, summands, stab, len(counts))
            counts.update(index.moved(least, odd))
            yield CaseBRow(orbit, mult, summands,
                           tuple((x, c // stab * mult) for x, c in sorted(counts.items())))

    return even, xi1, rows()
