"""Named verification suites: each runs a batch of exact checks and
returns per-check verdicts with a counterexample on failure."""

from __future__ import annotations

import random
from itertools import chain

from .arith import ResidueVector, Value, check_budget
from .codes import Classification, all_codes
from .lattice import (
    discriminant_group,
    verify_coset_index,
    verify_coset_inner_congruence,
    verify_coset_inner_congruence_vec,
    verify_pairing_matches_b_form,
)
from .u0 import ClassIndex, U0Label, class_index, fusion_table, top_level, \
    top_level_closed_form
from .ud import count_twisted_by_character, induction, orbit_members, orbits

__all__ = ["CheckResult", "SUITES", "run_suite"]


class CheckResult(Value, fields=("name", "passed", "detail")):
    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        self.__dict__.update(name=name, passed=passed, detail=detail)


# Each suite refuses a k whose work grows like k^e past the budget before it
# starts: against 2^20, k^3 admits k <= 101, k^4 k <= 32 and k^6 k <= 10.


def _associativity_fault(table: list[list[tuple[int, ...]]]) -> tuple[int, int, int] | None:
    """The first triple (a, b, c), in lexicographic order, whose products
    (a x b) x c and a x (b x c) differ as multisets, or None.

    (a x b) x c depends only on the product p = a x b and on c, so it is
    summed once per distinct p, as a row over c.  a x (b x c) depends only on
    a and q = b x c, so for each a it is summed once per distinct q.  All k^6
    comparisons are still made, a row over c at a time.  Equal sums are held
    as one sorted tuple, which keeps the rows of every p small."""
    classes = range(len(table))
    products = set(chain.from_iterable(table))
    sums: dict[tuple[int, ...], tuple[int, ...]] = {}

    def summed(terms) -> tuple[int, ...]:
        s = tuple(sorted(terms))
        return sums.setdefault(s, s)

    left = {p: [summed(chain.from_iterable(table[t][c] for t in p)) for c in classes]
            for p in products}
    for a, row_a in enumerate(table):
        right = {q: summed(chain.from_iterable(row_a[t] for t in q)) for q in products}
        for b, p in enumerate(row_a):
            row = list(map(right.__getitem__, table[b]))
            if row != left[p]:
                return a, b, next(c for c in classes if row[c] != left[p][c])
    return None


def suite_fusion_axioms(k: int) -> list[CheckResult]:
    # associativity visits every triple of the k^2 classes
    check_budget("suite k^6", k, 6)
    index = class_index(k)
    table, names = fusion_table(k), index.names()
    classes = range(k * k)
    results = []

    bad = next((a for a in classes if table[0][a] != (a,)), None)
    results.append(CheckResult(
        "unit-law", bad is None, "" if bad is None else f"vacuum failed on {names[bad]}"))

    bad = next(
        ((a, b) for a in classes for b in classes if table[a][b] != table[b][a]), None
    )
    results.append(CheckResult(
        "commutativity", bad is None,
        "" if bad is None else f"{names[bad[0]]} x {names[bad[1]]} is not symmetric"))

    bad = _associativity_fault(table)
    results.append(CheckResult(
        "associativity", bad is None,
        "" if bad is None else f"triple {', '.join(names[a] for a in bad)}"))

    duals = [[b for b in classes if 0 in table[a][b]] for a in classes]
    theta = [index.pair_class[i][-l % (2 * k)] for i, l in ClassIndex.pairs(k, classes)]
    bad = next(
        (a for a in classes
         if duals[a] != [theta[a]] or table[a][theta[a]].count(0) != 1), None
    )
    results.append(CheckResult(
        "unique-dual", bad is None,
        "" if bad is None else
        f"{names[bad]} has dual candidates [{', '.join(names[b] for b in duals[bad])}]"))

    # class p < 2k is the simple current U(0, p)
    group_ok = all(
        table[p][q] == ((p + q) % (2 * k),) for p in range(2 * k) for q in range(2 * k)
    )
    results.append(CheckResult(
        "simple-current-group", group_ok,
        "" if group_ok else "simple currents do not realize the cyclic group law"))
    return results


def suite_appendix_a(k_max: int) -> list[CheckResult]:
    check_budget("suite k^3", k_max, 3)
    results = []
    for k in range(2, k_max + 1):
        bad = None
        for l in range(2 * k):
            oracle = top_level(U0Label(k, 0, l))
            closed = top_level_closed_form(k, l)
            if oracle != closed:
                bad = (l, oracle, closed)
                break
        results.append(CheckResult(
            f"top-level-closed-form-k{k}", bad is None,
            "" if bad is None else
            f"l={bad[0]}: oracle {bad[1]} vs closed form {bad[2]}"))
    return results


def suite_lattice_lemmas(k: int, seed: int = 0) -> list[CheckResult]:
    # 4k^2 scalar pairs, each decided in O(k), so the work grows like k^3;
    # k^3 admits k <= 101, 1.5-1.9 s in process and 1.5-1.6 s from the command
    # line (k = 64 0.5 s, k = 32 0.1 s; Python 3.11, 2-vCPU Xeon VM)
    check_budget("suite k^3", k, 3)
    results = []
    rng = random.Random(seed)

    def residues(ell: int) -> ResidueVector:
        return ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))

    def decided(check, *args) -> bool:
        # one unused draw per check, where each check used to draw the seed
        # of its sampled translates: a --seed keeps its residues and reports
        rng.randrange(2**30)
        return check(*args)

    bad = next(
        ((p, q) for p in range(2 * k) for q in range(2 * k)
         if not decided(verify_coset_inner_congruence, k, p, q)),
        None,
    )
    results.append(CheckResult(
        "scalar-coset-congruence", bad is None,
        "" if bad is None else f"failed at (p, q) = {bad}"))

    # drawn lazily, so each case's residues come before its check's draw
    pairs = ((residues(ell), residues(ell)) for ell in (1, 2, 3) for _ in range(5))
    bad = next(
        ((xi, eta) for xi, eta in pairs
         if not decided(verify_coset_inner_congruence_vec, xi, eta)),
        None,
    )
    results.append(CheckResult(
        "vector-coset-congruence", bad is None,
        "" if bad is None else f"failed at xi={bad[0].entries}, eta={bad[1].entries}"))

    triples = ((residues(ell), tuple(rng.randrange(k) for _ in range(ell)), residues(ell))
               for ell in (1, 2, 3) for _ in range(5))
    bad = next(
        ((xi, mu, nu) for xi, mu, nu in triples
         if not decided(verify_pairing_matches_b_form, xi, mu, nu)),
        None,
    )
    results.append(CheckResult(
        "coset-pairing-matches-b-form", bad is None,
        "" if bad is None else
        f"failed at xi={bad[0].entries}, mu={bad[1]}, nu={bad[2].entries}"))

    ok = verify_coset_index(k)
    results.append(CheckResult(
        "coset-index", ok, "" if ok else f"index bookkeeping failed at k={k}"))
    return results


def suite_discriminant(k_max: int) -> list[CheckResult]:
    check_budget("suite k^4", k_max, 4)
    results = []
    for k in range(2, k_max + 1):
        divisors = discriminant_group(k)
        expected = (2,) * (k - 2) + (2 * k,)
        results.append(CheckResult(
            f"discriminant-k{k}", divisors == expected,
            "" if divisors == expected else f"got {divisors}, expected {expected}"))
    return results


def _counting_fault(code) -> str | None:
    """What one census of a Case A code, grouped by character, gets wrong, or None."""
    census = orbits(code)
    counts = count_twisted_by_character(census)
    if len(counts) != code.size:
        return f"character count {len(counts)} != |D| = {code.size}"
    total = sum(counts.values())
    if code.k % 2 == 0 and total != code.k ** (2 * code.length) // code.size:
        return f"count sum {total} != free-orbit total"
    for row in census:
        try:
            induction(code, row.group)
            orbit_members(code, row)
        except ValueError as exc:
            return f"induction fails on the orbit of {row.representative}: {exc}"
    return None


def suite_counting(k: int) -> list[CheckResult]:
    check_budget("suite k^6", k, 6)
    results = []
    for ell in (1, 2):
        codes = [code for code in all_codes(k, ell)
                 if code.classification is Classification.CASE_A and code.size <= 64]
        bad = next((f"{code}: {fault}" for code in codes
                    if (fault := _counting_fault(code)) is not None), None)
        results.append(CheckResult(f"counting-length-{ell}", bad is None,
                                   bad or f"checked {len(codes)} Case A codes"))
    return results


SUITES = {
    "fusion-axioms": suite_fusion_axioms,
    "appendix-a": suite_appendix_a,
    "lattice-lemmas": suite_lattice_lemmas,
    "discriminant": suite_discriminant,
    "counting": suite_counting,
}


def run_suite(name: str, k: int, seed: int = 0) -> list[CheckResult]:
    """Run one suite; only lattice-lemmas samples, so only it takes a seed."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if name == "lattice-lemmas":
        return SUITES[name](k, seed)
    if seed:
        raise ValueError(f"suite {name} samples nothing and takes no seed, got {seed}")
    return SUITES[name](k)
