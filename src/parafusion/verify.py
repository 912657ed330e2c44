"""Named verification suites: each runs a batch of exact checks and
returns per-check verdicts with a counterexample on failure."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .arith import ResidueVector, check_budget
from .codes import Classification, all_codes
from .lattice import (
    discriminant_group,
    verify_coset_index,
    verify_coset_inner_congruence,
    verify_coset_inner_congruence_vec,
    verify_pairing_matches_b_form,
)
from .u0 import U0Label, class_index, fusion_table, theta_u0, top_level, \
    top_level_closed_form
from .ud import induce_from_orbit, orbits

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# Each suite refuses a k whose work grows like k^e past the budget before it
# starts: against 2^20, k^3 admits k <= 101, k^4 k <= 32 and k^6 k <= 10.


def suite_fusion_axioms(k: int, seed: int = 0) -> list[CheckResult]:
    # associativity visits every triple of the k^2 classes
    check_budget("suite k^6", k, 6)
    labels, pair_class, _ = class_index(k)
    table = fusion_table(k)
    classes = range(len(labels))
    results = []

    bad = next((a for a in classes if table[0][a] != (a,)), None)
    results.append(CheckResult(
        "unit-law", bad is None, "" if bad is None else f"vacuum failed on {labels[bad]}"))

    bad = next(
        ((a, b) for a in classes for b in classes if table[a][b] != table[b][a]), None
    )
    results.append(CheckResult(
        "commutativity", bad is None,
        "" if bad is None else f"{labels[bad[0]]} x {labels[bad[1]]} is not symmetric"))

    bad = next(
        ((a, b, c) for a in classes for b in classes for c in classes
         if sorted(chain.from_iterable(table[t][c] for t in table[a][b]))
         != sorted(chain.from_iterable(table[a][t] for t in table[b][c]))),
        None,
    )
    results.append(CheckResult(
        "associativity", bad is None,
        "" if bad is None else f"triple {', '.join(str(labels[a]) for a in bad)}"))

    duals = [[b for b in classes if 0 in table[a][b]] for a in classes]
    theta = [pair_class[t.i][t.l] for t in map(theta_u0, labels)]
    bad = next(
        (a for a in classes
         if duals[a] != [theta[a]] or table[a][theta[a]].count(0) != 1), None
    )
    results.append(CheckResult(
        "unique-dual", bad is None,
        "" if bad is None else
        f"{labels[bad]} has dual candidates {[labels[b] for b in duals[bad]]}"))

    # class p < 2k is the simple current U(0, p)
    group_ok = all(
        table[p][q] == ((p + q) % (2 * k),) for p in range(2 * k) for q in range(2 * k)
    )
    results.append(CheckResult(
        "simple-current-group", group_ok,
        "" if group_ok else "simple currents do not realize the cyclic group law"))
    return results


def suite_appendix_a(k_max: int, seed: int = 0) -> list[CheckResult]:
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
    # 4k^2 scalar pairs of 20 samples, each translate drawing k-1 integers, so
    # the work grows like k^3; k^4 admits k <= 32, a run of a few seconds
    check_budget("suite k^4", k, 4)
    samples = 20
    results = []
    rng = random.Random(seed)

    bad = next(
        ((p, q) for p in range(2 * k) for q in range(2 * k)
         if not verify_coset_inner_congruence(k, p, q, samples, rng.randrange(2**30))),
        None,
    )
    results.append(CheckResult(
        "scalar-coset-congruence", bad is None,
        "" if bad is None else f"failed at (p, q) = {bad}"))

    bad = None
    for ell in (1, 2, 3):
        for _ in range(5):
            xi = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
            eta = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
            if not verify_coset_inner_congruence_vec(xi, eta, samples, rng.randrange(2**30)):
                bad = (xi, eta)
                break
        if bad:
            break
    results.append(CheckResult(
        "vector-coset-congruence", bad is None,
        "" if bad is None else f"failed at xi={bad[0].entries}, eta={bad[1].entries}"))

    bad = None
    for ell in (1, 2, 3):
        for _ in range(5):
            xi = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
            mu = tuple(rng.randrange(k) for _ in range(ell))
            nu = ResidueVector(2 * k, tuple(rng.randrange(2 * k) for _ in range(ell)))
            if not verify_pairing_matches_b_form(xi, mu, nu, samples, rng.randrange(2**30)):
                bad = (xi, mu, nu)
                break
        if bad:
            break
    results.append(CheckResult(
        "coset-pairing-matches-b-form", bad is None,
        "" if bad is None else
        f"failed at xi={bad[0].entries}, mu={bad[1]}, nu={bad[2].entries}"))

    ok = verify_coset_index(k)
    results.append(CheckResult(
        "coset-index", ok, "" if ok else f"index bookkeeping failed at k={k}"))
    return results


def suite_discriminant(k_max: int, seed: int = 0) -> list[CheckResult]:
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
    counts = Counter()
    for o in census:
        counts[o.character] += o.twisted_count
    if len(counts) != code.size:
        return f"character count {len(counts)} != |D| = {code.size}"
    total = sum(counts.values())
    if code.k % 2 == 0 and total != code.k ** (2 * code.length) // code.size:
        return f"count sum {total} != free-orbit total"
    for o in census:
        try:
            induce_from_orbit(code, o)
        except ValueError as exc:
            return f"induction fails on the orbit of {o.representative}: {exc}"
    return None


def suite_counting(k: int, seed: int = 0) -> list[CheckResult]:
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
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return SUITES[name](k, seed=seed)
