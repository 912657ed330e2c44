"""Brute-force scans kept as test-only references.  The ambient scans of
(Z_2k)^ell check the dual code and the character names that the program
reads off Hermite forms; each costs (2k)^ell steps per code.  The label
walk checks the orbit census that the program lists from the cosets of
D + K_T, at k^(2 ell) labels and |D| translates per orbit.  The triple
scan checks the associativity verdict of the fusion-axioms suite, the
argparse parser checks the command line that cli.COMMANDS reads, and a
Case A `modules` report built as a dict per orbit, each orbit's members
and induced module walked from label objects under `act`, checks the
report that the command writes from census rows, and a Case B report
built the same way checks the report written from the rows of the even
part's census.  The dataclass twins check the
comparisons, hash and repr that `arith.Value` builds for each value type.
The paper's definitions that no command runs, written label by label (the
code action `act`, the pairings `b_form_u0` and `b_form_vec`, the fusion
ring's symmetries and the weight-difference lemma), live here too, as the
oracles the tests check the program's class-number routes against."""

import argparse
from collections import Counter
from dataclasses import field, fields, make_dataclass
from itertools import chain, product
from fractions import Fraction
from math import isqrt

from parafusion import cli
from parafusion.arith import IntegerMatrix, ResidueVector, mod1, standard_inner
from parafusion.codes import Code, even_part, load_code
from parafusion.fusion import FusionSum
from parafusion.lattice import CosetSpec, LatticeVector
from parafusion.parafermion import ParafermionLabel, TildeLabel
from parafusion.u0 import (
    SummandLabel,
    U0Label,
    _offset_num,
    _weight_den,
    all_u0_labels,
    canonicalize_u0,
    eta_u0,
    weight_mod1,
)
from parafusion.ud import (
    UNDETERMINED_FLAG,
    CharacterLabel,
    IrrU0Label,
    all_irr_labels,
    canonicalize_irr,
    character_from_eta,
    orbits,
    trivial_character,
    twisted_count,
)
from parafusion.verify import SUITES, CheckResult
from parafusion.virasoro import VirasoroLabel

# (k, ell) pairs whose every code of all_codes is scanned, eta by eta:
# (2k)^ell <= 4096 holds for each.  The whole range k <= 8, ell <= 3 would
# scan 31 million vectors.
SCANNED = [(k, ell) for ell in (1, 2) for k in range(2, 9)] + [(2, 3), (3, 3)]



def _skipped():
    """A field that equality, ordering and the hash skip."""
    return field(compare=False)


# Each value type as the frozen dataclass it was declared as: its fields in
# order, which of them are compared and shown, its defaults, and `order`.
# A twin makes no checks; `dataclass_twin` fills it from a value's fields.
DATACLASS_TWINS = {
    cls: make_dataclass(cls.__name__, spec, frozen=True, order=order)
    for cls, spec, order in [
        (ResidueVector, ["modulus", "entries"], True),
        (IntegerMatrix, ["entries"], False),
        (Code, ["k", "length", ("generators", tuple, _skipped()), "hermite",
                ("classification", object, _skipped())], False),
        (LatticeVector, ["k", "num"], True),
        (CosetSpec, ["k", "kind", ("l", int, field(default=0)), ("j", int, field(default=0)),
                     ("a", tuple, field(default=()))], False),
        (ParafermionLabel, ["k", "i", "j"], True),
        (TildeLabel, ["k", "i", "q"], True),
        (U0Label, ["k", "i", "l"], True),
        (SummandLabel, ["k", "i", "j", "l"], True),
        (VirasoroLabel, ["m", "r", "s"], True),
        (IrrU0Label, ["k", "mu", "nu"], True),
        (CharacterLabel, ["code", "eta"], False),
        (CheckResult, ["name", "passed", ("detail", str, field(default=""))], False),
        (FusionSum, ["terms"], False),
    ]
}


def dataclass_twin(value):
    """The dataclass twin of a value, holding the value's fields."""
    twin = DATACLASS_TWINS[type(value)]
    return twin(**{f.name: getattr(value, f.name) for f in fields(twin)})


def b_form_u0(p: int, a: U0Label) -> Fraction:
    """b(U(0,p), U(i,l)) = p((k-1)l - ki)/2k mod 1."""
    return mod1(Fraction(p * eta_u0(a.k, a.i, a.l), 2 * a.k))


def theta_u0(a: U0Label) -> U0Label:
    """The order-two symmetry (i, l) -> (i, -l), canonicalized."""
    return canonicalize_u0(a.k, a.i, -a.l)


def phi_grade(a: U0Label) -> int:
    """Grade of the order-k fusion-algebra symmetry: l mod k (well defined
    on classes, since l and l+k agree mod k)."""
    return a.l % a.k


def stabilizing_currents(a: U0Label) -> tuple[int, ...]:
    """All p with U(0,p) x U(i,l) = U(i,l): {0} generically, {0, k} exactly
    when k is odd and i = (k-1)/2."""
    c = canonicalize_u0(a.k, a.i, a.l)
    return tuple(
        p for p in range(2 * a.k) if canonicalize_u0(a.k, c.i, c.l + p) == c
    )


def verify_weight_difference(k: int, i: int, j: int, s: int) -> bool:
    """Check that the exact weight difference of the summand pair
    (i, p) on offsets s/2(k-1)k - p/(k-1), p = 0 and p = j, is congruent
    to j(i-s)/(k-1) mod 1."""
    if not (0 <= i <= k - 1):
        raise ValueError(f"index i must lie in [0, {k - 1}], got {i}")
    if not (0 <= j < max(k - 1, 1)):
        raise ValueError(f"index j must lie in [0, {k - 1}), got {j}")
    if not (0 <= s < 2 * (k - 1) * k):
        raise ValueError(f"offset s must lie in [0, {2 * (k - 1) * k}), got {s}")

    # the offset s/D - p/(k-1) is (s - 2kp)/D, and Q j(i-s)/(k-1) = 4k(k+1) j(i-s)
    weight_j, _ = _offset_num(k, i, j, s - 2 * k * j)
    weight_0, _ = _offset_num(k, i, 0, s)
    return (weight_j - weight_0 - 4 * k * (k + 1) * j * (i - s)) % _weight_den(k) == 0


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


def ambient_keys(code):
    """Every eta in lexicographic order, with its values (g | eta) mod 2k on
    the generators g: equal keys name one coset of the dual code."""
    n = 2 * code.k
    for eta in product(range(n), repeat=code.length):
        yield eta, tuple(sum(a * b for a, b in zip(g, eta)) % n for g in code.generators)


def scanned_dual(code):
    """The dual code's elements, sorted: every eta whose key is zero."""
    return tuple(ResidueVector(2 * code.k, eta)
                 for eta, key in ambient_keys(code) if not any(key))


def first_hit_names(code):
    """The first eta of each key: the least eta of each character."""
    names = {}
    for eta, key in ambient_keys(code):
        names.setdefault(key, eta)
    return names


def scanned_stabilizer(code, x):
    """The codewords that fix the label, each applied to it by `act`."""
    return tuple(xi for xi in code.elements if act(xi, x) == x)


def direct_census(code):
    """The orbit census walked label by label, as (representative, members,
    stabilizer, isotropic part, character): every codeword is applied by
    `act` to the first label of each orbit met, for its members and, as in
    `scanned_stabilizer`, its stabilizer (the action is abelian, so every
    member has that one); each character is named by definition, as the
    least eta of its dual-code coset (computed once per coset)."""
    k, dual = code.k, scanned_dual(code)
    names = {}
    census, seen = [], set()
    for x in all_irr_labels(code.k, code.length):
        if x in seen:
            continue
        moved = [(xi, act(xi, x)) for xi in code.elements]
        members = tuple(sorted({y for _, y in moved}))
        seen.update(members)
        rep = members[0]
        stab = tuple(xi for xi, y in moved if y == x)
        isotropic = tuple(xi for xi in stab
                          if all(standard_inner(xi, eta) == 0 for eta in stab))
        eta = ResidueVector(2 * k, tuple((k - 1) * n - k * m for m, n in zip(rep.mu, rep.nu)))
        if eta not in names:
            coset = [eta + delta for delta in dual]
            names.update(dict.fromkeys(coset, min(v.entries for v in coset)))
        census.append((rep, members, stab, isotropic, CharacterLabel(code, names[eta])))
    return census


def _modules_report(source: str, chi: str | None, induce: bool, results: dict) -> dict:
    return {
        "schema": cli.SCHEMA,
        "command": "modules",
        "parameters": {"code": source, "chi": chi, "induce": induce},
        "results": results,
        "seed": None,
        "deterministic": True,
    }


def orbit_reference(code, rep):
    """(members, stabilizer order, isotropic order, summand count,
    multiplicity) of the orbit of the label `rep`, walked label by label:
    every codeword is applied to `rep` by `act`, for the members, sorted as
    labels, and for the stabilizer, as in `scanned_stabilizer`; the summand
    count is `twisted_count` of the two orders, and the multiplicity the
    square root of the stabilizer order over it."""
    moved = [(xi, act(xi, rep)) for xi in code.elements]
    stab = [xi for xi, y in moved if y == rep]
    isotropic = [xi for xi in stab if all(standard_inner(xi, eta) == 0 for eta in stab)]
    summands = twisted_count(code.k, len(stab), len(isotropic))
    return (sorted({y for _, y in moved}), len(stab), len(isotropic), summands,
            isqrt(len(stab) // summands))


def modules_report(source: str, chi: str | None = None, induce: bool = False) -> dict:
    """The report of `parafusion modules --code source [--chi chi] [--induce]`
    on a Case A code, built orbit by orbit as a dict per entry: the orbits
    and their characters are those of `ud.orbits`, and each orbit's members,
    orders and induced module are `orbit_reference`'s, from label objects;
    each class is named by its label, each weight mod 1 summed from the
    classes' `weight_mod1`, each character named by `str`."""
    code = load_code(source)
    labels = all_u0_labels(code.k)
    character = None if chi is None else character_from_eta(
        code, [int(x) for x in chi.split(",")])
    census = orbits(code, restrict_to_character=character)
    entries, counts = [], Counter()
    for o in census:
        members, stab, isotropic, summands, mult = orbit_reference(code, o.representative)
        counts[str(o.character)] += summands
        entry = {
            "representative": [str(labels[c]) for c in o.least],
            "size": len(members),
            "stabilizer_order": stab,
            "isotropic_order": isotropic,
            "character": str(o.character),
            "weight_mod1": str(mod1(sum(weight_mod1(labels[c]) for c in o.least))),
        }
        if induce:
            entry["induced"] = {
                "summand_count": summands,
                "multiplicity": mult,
                "u0_decomposition": [
                    {"label": [str(c) for c in x.components()], "multiplicity": mult}
                    for x in members
                ],
            }
        entries.append(entry)
    return _modules_report(source, chi, induce, {
        "classification": "CaseA",
        "orbit_count": len(census),
        "orbits": entries,
        "twisted_module_counts": dict(counts),
    })


def case_b_reference(code):
    """Case B entries built from label objects, as (representative, summand
    index, multiplicity, decomposition, flag): each member of a
    trivial-character orbit of the even part, from `orbit_reference`, and
    its translate by the odd representative under `act`, sorted as labels."""
    even, xi1 = even_part(code)
    entries = []
    for row in orbits(even, restrict_to_character=trivial_character(even)):
        members, _, _, summands, mult = orbit_reference(even, row.representative)
        decomp = Counter()
        for w in members:
            decomp[w] += mult
            decomp[act(xi1, w)] += mult
        decomposition = tuple(sorted(decomp.items()))
        entries.extend((members[0], s, mult, decomposition, UNDETERMINED_FLAG)
                       for s in range(summands))
    return entries


def case_b_report(source: str) -> dict:
    """The report of `parafusion modules --code source` on a Case B code,
    built from `case_b_reference` as a dict per entry, each label named by
    `str` of its classes."""
    code = load_code(source)
    even, xi1 = even_part(code)

    def names(x):
        return [str(c) for c in x.components()]

    entries = [{
        "orbit_representative": names(rep),
        "summand_index": s,
        "multiplicity": mult,
        "u0_decomposition": [{"label": names(x), "multiplicity": m} for x, m in decomposition],
        "flag": flag,
    } for rep, s, mult, decomposition, flag in case_b_reference(code)]
    return _modules_report(source, None, False, {
        "classification": "CaseB",
        "even_part_size": even.size,
        "odd_representative": list(xi1.entries),
        "entries": entries,
    })


def first_non_associative(table):
    """The first triple (a, b, c) of class numbers, in lexicographic order,
    whose products (a x b) x c and a x (b x c) differ as multisets, or None:
    both sides summed afresh for each of the n^3 triples of a fusion table."""
    classes = range(len(table))
    return next(
        ((a, b, c) for a in classes for b in classes for c in classes
         if sorted(chain.from_iterable(table[t][c] for t in table[a][b]))
         != sorted(chain.from_iterable(table[a][t] for t in table[b][c]))),
        None,
    )


def argparse_parser() -> argparse.ArgumentParser:
    """The command line as argparse read it before cli.COMMANDS: the same
    commands, options, defaults and handlers."""
    parser = argparse.ArgumentParser(
        prog="parafusion",
        description="Exact fusion-ring, code, and lattice computations "
                    "with deterministic JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fusion", help="fusion product of two U(i,l) classes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--left", required=True, metavar="i,l")
    p.add_argument("--right", required=True, metavar="i,l")
    p.set_defaults(func=cli.cmd_fusion)

    p = sub.add_parser("classify", help="classify a code from JSON")
    p.add_argument("--code", required=True, help="code JSON text or a path to a JSON file")
    p.set_defaults(func=cli.cmd_classify)

    p = sub.add_parser("modules", help="orbit census and module inventory for a code")
    p.add_argument("--code", required=True, help="code JSON text or a path to a JSON file")
    p.add_argument("--chi", default=None, help="restrict to the character 'a,b,...'")
    p.add_argument("--induce", action="store_true", help="include induced-module reports")
    p.set_defaults(func=cli.cmd_modules)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cli.cmd_verify)
    return parser
