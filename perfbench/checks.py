"""Checks of each CLI report against the reference code and against
properties the mathematics forces.  Each check returns a list of problems;
an empty list means the report is right."""

from __future__ import annotations

from collections import Counter

import reference as ref


def _eta_of(character: str) -> tuple[int, ...]:
    # "chi[a,b,...]"
    return tuple(int(e) for e in character[4:-1].split(","))


def check_census(expect: dict, report: dict) -> list[str]:
    res = report["results"]
    k, length, size = expect["k"], expect["length"], expect["size"]
    if res["classification"] != expect["classification"]:
        return [f"classification {res['classification']} != {expect['classification']}"]
    if expect["classification"] == ref.CASE_B:
        return _check_case_b(expect, res)
    problems = []
    orbits = res["orbits"]
    if res["orbit_count"] != len(orbits):
        problems.append(f"orbit_count {res['orbit_count']} != {len(orbits)} listed")
    if any(o["size"] * o["stabilizer_order"] != size for o in orbits):
        problems.append("an orbit has size * stabilizer order != |D|")
    got = Counter(
        (o["size"], o["stabilizer_order"],
         ref.eta_key(k, _eta_of(o["character"]), expect["gens"]))
        for o in orbits
    )
    if got != Counter(expect["orbits"]):
        problems.append("orbit (size, stabilizer, character) multiset differs from reference")
    if "chi_key" not in expect:
        if sum(o["size"] for o in orbits) != k ** (2 * length):
            problems.append("orbit sizes do not sum to k^(2 ell)")
        if len({o["character"] for o in orbits}) != size:
            problems.append("number of distinct characters != |D|")
        total = sum(res["twisted_module_counts"].values())
        if k % 2 == 0 and total != k ** (2 * length) // size:
            problems.append(f"twisted counts total {total} != k^(2 ell)/|D|")
    for o in orbits:
        ind = o.get("induced")
        if ind is None:
            continue
        if ind["summand_count"] * ind["multiplicity"] ** 2 * o["size"] != size:
            problems.append(f"induced module of {o['representative']} has the wrong length")
        if len(ind["u0_decomposition"]) != o["size"]:
            problems.append(f"induced decomposition of {o['representative']} misses members")
    return problems


def _check_case_b(expect: dict, res: dict) -> list[str]:
    problems = []
    k, size = expect["k"], expect["size"]
    if res["even_part_size"] * 2 != size:
        problems.append(f"even_part_size {res['even_part_size']} != |D|/2")
    odd = tuple(res["odd_representative"])
    if odd not in expect["elements"] or ref.diagonal(k, odd).numerator % 2 != 1:
        problems.append(f"odd representative {odd} is not an odd codeword")
    reps = {tuple(e["orbit_representative"]) for e in res["entries"]}
    if len(reps) != expect["even_orbits"]:
        problems.append(f"{len(reps)} trivial-character orbits of the even part, "
                        f"reference has {expect['even_orbits']}")
    return problems


def check_classify(expect: dict, report: dict) -> list[str]:
    res = report["results"]
    problems = [
        f"{key} {res.get(key)} != {expect[key]}"
        for key in ("size", "classification", "dual_size")
        if res.get(key) != expect[key]
    ]
    if res["size"] * res["dual_size"] != (2 * expect["k"]) ** expect["length"]:
        problems.append("size * dual_size != (2k)^ell")
    if res["generators"] != expect["generators"]:
        problems.append("generator words or weights differ from their formulas")
    if expect["classification"] == ref.CASE_B:
        half = expect["size"] // 2
        if (res.get("even_part_size"), res.get("odd_part_size")) != (half, half) \
                or expect["even_part_size"] != half:
            problems.append("Case B parts are not both of size |D|/2")
    return problems


def check_suite(expect: dict, report: dict) -> list[str]:
    res = report["results"]
    problems = []
    if not res["all_passed"] or not all(c["passed"] for c in res["checks"]):
        problems.append("suite did not pass")
    if len(res["checks"]) != expect["checks"]:
        problems.append(f"{len(res['checks'])} checks run, {expect['checks']} expected")
    if expect["suite"] == "counting":
        for c in res["checks"]:
            words = c["detail"].split()
            if words[:1] != ["checked"] or not words[1].isdigit() or int(words[1]) == 0:
                problems.append(f"{c['name']} checked no codes: {c['detail']!r}")
    return problems


CHECKS = {"census": check_census, "classify": check_classify, "suite": check_suite}


def check(kind: str, expect: dict, status: int, report: dict) -> list[str]:
    problems = [] if status == 0 else [f"exit status {status}"]
    return problems + CHECKS[kind](expect, report)
