"""Command-line front end: deterministic JSON reports on standard output."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import islice
from math import prod

from .arith import mod1
from .codes import Classification, euclidean_weight, load_code
from .u0 import U0Label, all_u0_labels, fuse_u0, weight_mod1
from .ud import (
    CharacterLabel,
    _check_label_budget,
    case_b_inventory,
    character_from_eta,
    induce_from_orbit,
    orbits,
    weight_mod1_uxi,
)
from .verify import SUITES, run_suite

SCHEMA = "parafusion-report/1"


def _rat(q) -> str:
    return str(Fraction(q))


def _label_list(x) -> list[str]:
    return [str(c) for c in x.components()]


def _report(command: str, parameters: dict, results: dict, seed=None) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "parameters": parameters,
        "results": results,
        "seed": seed,
        "deterministic": True,
    }


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'i,l', got {text!r}")
    return int(parts[0]), int(parts[1])


def cmd_fusion(args) -> tuple[dict, int]:
    i1, l1 = _parse_pair(args.left)
    i2, l2 = _parse_pair(args.right)
    a = U0Label(args.k, i1, l1)
    b = U0Label(args.k, i2, l2)
    product = fuse_u0(a, b)
    results = {
        "left": str(a),
        "right": str(b),
        "terms": [
            {"label": str(label), "multiplicity": mult} for label, mult in product.items()
        ],
    }
    params = {"k": args.k, "left": args.left, "right": args.right}
    return _report("fusion", params, results), 0


def _printable_int(what: str, powers) -> int:
    """prod b^e over the pairs (b, e), b >= 1, refused when json cannot write it."""
    # json writes an int with str(), which stops at this many digits (0: no limit)
    limit = sys.get_int_max_str_digits()
    # b^e >= 2^(e (bits(b) - 1)), and 2^(4 limit) > 10^limit: decided before a
    # power is built, and what passes has fewer than 8 limit bits
    if limit and sum(e * (b.bit_length() - 1) for b, e in powers) > 4 * limit:
        raise ValueError(f"{what} has more than {limit} digits")
    value = prod(b ** e for b, e in powers)
    if limit and value >= 10 ** limit:
        raise ValueError(f"{what} has more than {limit} digits")
    return value


def cmd_classify(args) -> tuple[dict, int]:
    code = load_code(args.code)
    n, free = 2 * code.k, code.length - len(code.hermite)
    # the standard pairing on (Z_2k)^ell is nondegenerate, and |D| = prod n/d_j
    # over the Hermite rows, so |D^perp| = n^free prod d_j
    size = _printable_int("size", [(n // h[j], 1) for j, h in code.hermite])
    dual_size = _printable_int("dual_size", [(n, free)] + [(h[j], 1) for j, h in code.hermite])
    results: dict = {
        "k": code.k,
        "length": code.length,
        "size": size,
        "classification": code.classification.value,
        "generators": [
            {
                "word": list(g.entries),
                "euclidean_weight": euclidean_weight(g),
                "weight_mod1": _rat(weight_mod1_uxi(g)),
            }
            for g in code.generators
        ],
        "dual_size": dual_size,
    }
    if code.classification is Classification.CASE_B:
        # the diagonal class is a character of D onto Z_2
        results["even_part_size"] = results["odd_part_size"] = size // 2
    return _report("classify", {"code": args.code}, results), 0


def _parse_chi(text: str, code) -> CharacterLabel:
    text = text.strip()
    for prefix in ("eta=", "chi="):
        if text.startswith(prefix):
            text = text[len(prefix):]
    return character_from_eta(code, tuple(int(x) for x in text.split(",")))


def cmd_modules(args) -> tuple[dict, int]:
    code = load_code(args.code)
    params = {"code": args.code, "chi": args.chi, "induce": args.induce}
    if code.classification is Classification.INVALID:
        raise ValueError("module inventory requires a Case A or Case B code")
    case_b = code.classification is Classification.CASE_B
    if case_b and args.chi is not None:
        raise ValueError("--chi restricts a Case A census; a Case B code has none")
    if case_b and args.induce:
        raise ValueError("--induce induces from a Case A census; a Case B code has none")
    # decided before a Case B even part is built or a --chi character is named
    _check_label_budget(code.k, code.length)

    if case_b:
        inventory = case_b_inventory(code)
        results = {
            "classification": "CaseB",
            "even_part_size": inventory.even_part.size,
            "odd_representative": list(inventory.odd_representative.entries),
            "entries": [
                {
                    "orbit_representative": _label_list(e.orbit_representative),
                    "summand_index": e.summand_index,
                    "multiplicity": e.multiplicity,
                    "u0_decomposition": [
                        {"label": _label_list(w), "multiplicity": m}
                        for w, m in e.u0_decomposition
                    ],
                    "flag": e.flag,
                }
                for e in inventory.entries
            ],
        }
        return _report("modules", params, results), 0

    chi = _parse_chi(args.chi, code) if args.chi is not None else None
    census = orbits(code, restrict_to_character=chi)
    counts: dict[str, int] = {}
    for o in census:
        key = str(o.character)
        counts[key] = counts.get(key, 0) + o.twisted_count
    class_weight = {c: weight_mod1(c) for c in all_u0_labels(code.k)}
    orbit_table = []
    for o in census:
        entry = {
            "representative": _label_list(o.representative),
            "size": o.size,
            "stabilizer_order": o.stabilizer_order,
            "isotropic_order": o.isotropic_order,
            "character": str(o.character),
            "weight_mod1": _rat(
                mod1(sum((class_weight[c] for c in o.representative.components()),
                         Fraction(0)))
            ),
        }
        if args.induce:
            report = induce_from_orbit(code, o)
            entry["induced"] = {
                "summand_count": report.summand_count,
                "multiplicity": report.multiplicity,
                "u0_decomposition": [
                    {"label": _label_list(w), "multiplicity": m}
                    for w, m in report.u0_decomposition
                ],
            }
        orbit_table.append(entry)
    results = {
        "classification": "CaseA",
        "orbit_count": len(census),
        "orbits": orbit_table,
        "twisted_module_counts": counts,
    }
    return _report("modules", params, results), 0


def cmd_verify(args) -> tuple[dict, int]:
    checks = run_suite(args.suite, args.k, seed=args.seed)
    all_passed = all(c.passed for c in checks)
    results = {
        "suite": args.suite,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "all_passed": all_passed,
    }
    params = {"suite": args.suite, "k": args.k}
    return _report("verify", params, results, seed=args.seed), 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("classify", help="classify a code from JSON")
    p.add_argument("--code", required=True, help="code JSON text or a path to a JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("modules", help="orbit census and module inventory for a code")
    p.add_argument("--code", required=True, help="code JSON text or a path to a JSON file")
    p.add_argument("--chi", default=None, help="restrict to the character 'a,b,...'")
    p.add_argument("--induce", action="store_true", help="include induced-module reports")
    p.set_defaults(func=cmd_modules)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, status = args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # streamed in batches of encoder chunks: one write per chunk is one system
    # call when stdout is unbuffered (python -u, PYTHONUNBUFFERED)
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    while text := "".join(islice(chunks, 4096)):
        sys.stdout.write(text)
    sys.stdout.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
