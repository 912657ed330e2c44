"""Command-line front end: deterministic JSON reports on standard output."""

from __future__ import annotations

import json
import os
import sys
from itertools import islice, starmap
from math import gcd, prod
from types import SimpleNamespace

from .codes import Classification, euclidean_weight, load_code
from .u0 import U0Label, class_index, fuse_u0
from .ud import (
    UNDETERMINED_FLAG,
    CharacterLabel,
    case_b_inventory,
    character_from_eta,
    check_label_budget,
    count_twisted_by_character,
    induction,
    orbit_members,
    orbits,
    weight_mod1_uxi,
)
from .verify import SUITES, run_suite

SCHEMA = "parafusion-report/1"
# the report, its results and their lists are written piece by piece, and
# each element below them as one piece; a write joins this many pieces
STREAMED_LEVELS = 3
WRITE_PIECES = 64
_quote = json.encoder.encode_basestring_ascii
# a string no report holds, standing for text filled in after rendering
_HOLE = "\x00"


class _Listing:
    """A report list held as rows, written row by row: the writer asks
    `entry(row, indent)` for the text of each row's entries, one or more
    of the list's elements, so no entry is built before it is written."""

    def __init__(self, rows, entry):
        self.rows, self.entry = rows, entry


def _render(value, indent: str) -> str:
    """The JSON text of a report value whose first line sits at `indent`,
    byte for byte as JSONEncoder(indent=2, sort_keys=True) writes it.
    Reports hold no floats, so a float is refused like any other type, and
    `_quote` refuses a key that is not a string."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        if value is True:
            return "true"
        if value is False:
            return "false"
        return int.__repr__(value)
    if value is None:
        return "null"
    inner = indent + "  "
    sep = ",\n" + inner
    # no element's text is empty, so only an empty container has an empty body
    if isinstance(value, dict):
        body = sep.join([_quote(k) + ": " + _render(v, inner) for k, v in sorted(value.items())])
        return "{\n" + inner + body + "\n" + indent + "}" if body else "{}"
    if isinstance(value, _Listing):
        body = sep.join([value.entry(row, inner) for row in value.rows])
    elif isinstance(value, (list, tuple)):
        try:  # most lists hold only strings: one join
            body = sep.join(map(_quote, value))
        except TypeError:
            body = sep.join([_render(v, inner) for v in value])
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return "[\n" + inner + body + "\n" + indent + "]" if body else "[]"


def _stream(value, indent: str, levels: int):
    """`_render(value, indent)` in pieces: a container within the top
    `levels` levels piece by piece, and each of its entries below them as
    one piece, as is each row's text of a `_Listing`."""
    if levels == 0 or not isinstance(value, (dict, list, tuple, _Listing)):
        yield _render(value, indent)
        return
    inner, render = indent + "  ", _render
    if isinstance(value, dict):
        head, close = "{\n", "}"
        entries = ((_quote(k) + ": ", v) for k, v in sorted(value.items()))
    else:
        head, close, items = "[\n", "]", value
        if isinstance(value, _Listing):  # each row's text is one piece
            render, levels, items = value.entry, 1, value.rows
        entries = (("", v) for v in items)
    n = -1
    for n, (key, v) in enumerate(entries):
        prefix = (",\n" if n else head) + inner + key
        if levels == 1:
            yield prefix + render(v, inner)
        else:
            yield prefix
            yield from _stream(v, inner, levels - 1)
    yield "\n" + indent + close if n >= 0 else head[0] + close


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


def _printable(what: str, powers) -> int:
    """prod b^e over the pairs (b, e), b >= 0, refused when json cannot write it."""
    # json writes an int with str(), which stops at this many digits (0: no limit)
    limit = sys.get_int_max_str_digits()
    # b^e >= 2^(e (bits(b) - 1)), and 2^(4 limit) > 10^limit: decided before a
    # power is built, and what passes has fewer than 8 limit bits
    if limit and sum(e * (b.bit_length() - 1) for b, e in powers) > 4 * limit:
        raise ValueError(f"{what} has more than {limit} digits")
    value = prod(b ** e for b, e in powers)
    # 2^(3 limit) < 10^limit: most values pass on their bit length alone
    if limit and value.bit_length() > 3 * limit and value >= 10 ** limit:
        raise ValueError(f"{what} has more than {limit} digits")
    return value


def _generator_report(g) -> dict:
    _printable("word", [(max(g.entries), 1)])
    weight = weight_mod1_uxi(g)
    # str() writes the numerator and the denominator, and the numerator is smaller
    _printable("weight_mod1", [(weight.denominator, 1)])
    return {
        "word": list(g.entries),
        "euclidean_weight": _printable("euclidean_weight", [(euclidean_weight(g), 1)]),
        "weight_mod1": str(weight),
    }


def cmd_classify(args) -> tuple[dict, int]:
    code = load_code(args.code)
    n, free = 2 * code.k, code.length - len(code.hermite)
    # the standard pairing on (Z_2k)^ell is nondegenerate, and |D| = prod n/d_j
    # over the Hermite rows, so |D^perp| = n^free prod d_j
    size = _printable("size", [(n // h[j], 1) for j, h in code.hermite])
    dual_size = _printable("dual_size", [(n, free)] + [(h[j], 1) for j, h in code.hermite])
    results: dict = {
        "k": code.k,
        "length": code.length,
        "size": size,
        "classification": code.classification.value,
        "generators": [_generator_report(g) for g in code.generators],
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
    check_label_budget(code.k, code.length)
    # one table of the classes, each named and quoted once: a label is a
    # tuple of class numbers; the names are quoted as they are made, so the
    # unquoted list is never held
    index = class_index(code.k)
    quoted = list(map(_quote, starmap(index.name, index.pairs(code.k, range(code.k ** 2)))))

    if case_b:
        even, xi1, rows = case_b_inventory(code)
        results = {
            "classification": "CaseB",
            "even_part_size": even.size,
            "odd_representative": list(xi1.entries),
            "entries": _Listing(rows, _case_b_entry(code.length, quoted)),
        }
        return _report("modules", params, results), 0

    chi = _parse_chi(args.chi, code) if args.chi is not None else None
    rows = orbits(code, restrict_to_character=chi)
    totals = count_twisted_by_character(rows)
    # each character is named once, and an orbit finds its name by eta
    chi_names = {c.eta: str(c) for c in totals}
    results = {
        "classification": "CaseA",
        "orbit_count": len(rows),
        "orbits": _Listing(rows, _orbit_entry(code, quoted, chi_names, args.induce)),
        "twisted_module_counts": {chi_names[c.eta]: n for c, n in totals.items()},
    }
    return _report("modules", params, results), 0


def _case_b_entry(ell: int, quoted: list[str]):
    """The writer of a `ud.CaseBRow`'s entries, one per summand.  Their text
    is rendered once per indent, with a `_HOLE` for each class name, each
    multiplicity and the summand index, and split there; a row fills in its
    pre-quoted class names and its numbers, and its entries differ only in
    the summand index."""
    name = quoted.__getitem__
    pieces: dict[str, list[str]] = {}

    def entry(row, indent: str) -> str:
        p = pieces.get(indent)
        if p is None:
            member = {"label": [_HOLE] * ell, "multiplicity": _HOLE}
            p = pieces[indent] = _render({
                "orbit_representative": [_HOLE] * ell,
                "summand_index": _HOLE,
                "multiplicity": _HOLE,
                "u0_decomposition": [member, member],
                "flag": UNDETERMINED_FLAG,
            }, indent).split(_quote(_HOLE))
        orbit, mult, summands, decomposition = row
        # in key order: the multiplicity, the representative, the summand
        # index and the members, each its label and its multiplicity
        head = p[0] + str(mult) + p[1] + p[2].join(map(name, orbit.least)) + p[ell + 1]
        members = p[2 * ell + 3].join([p[ell + 3].join(map(name, x)) + p[2 * ell + 2] + str(m)
                                       for x, m in decomposition])
        tail = p[ell + 2] + members + p[3 * ell + 4]
        return (",\n" + indent).join([head + str(s) + tail for s in range(summands)])

    return entry


def _orbit_entry(code, quoted: list[str], chi_names: dict, induce: bool):
    """The writer of a census row's entry.  Its text is rendered once per
    coset group, character and indent, with a `_HOLE` for each class name
    and the weight, and split there; an orbit fills in its pre-quoted class
    names and its weight mod 1, each distinct weight quoted once.  With
    `induce` the entry lists the orbit's members: two of them in the
    rendered text give the pieces around and between members."""
    index = class_index(code.k)
    name, ell, q = quoted.__getitem__, code.length, index.q
    pieces: dict[tuple, list[str]] = {}
    weights: dict[int, str] = {}

    def entry(row, indent: str) -> str:
        least, group, chi = row
        if induce:
            members = orbit_members(code, row)
        p = pieces.get((group, chi.eta, indent))
        if p is None:
            value = {
                "representative": [_HOLE] * ell,
                "size": group.size,
                "stabilizer_order": group.stabilizer_order,
                "isotropic_order": group.isotropic_order,
                "character": chi_names[chi.eta],
                "weight_mod1": _HOLE,
            }
            if induce:
                summands, mult = induction(code, group)
                member = {"label": [_HOLE] * ell, "multiplicity": mult}
                value["induced"] = {
                    "summand_count": summands,
                    "multiplicity": mult,
                    "u0_decomposition": [member, member],
                }
            p = pieces[group, chi.eta, indent] = _render(value, indent).split(_quote(_HOLE))
        r = sum(map(index.weight.__getitem__, least)) % q
        weight = weights.get(r)
        if weight is None:  # r/q in lowest terms, as str(Fraction(r, q)) writes it
            g = gcd(r, q)
            weight = weights[r] = _quote(f"{r // g}/{q // g}" if r else "0")
        if not induce:
            return p[0] + p[1].join(map(name, least)) + p[ell] + weight + p[ell + 1]
        # the members, the representative and the weight, in key order
        listed = p[ell].join([p[1].join(map(name, x)) for x in members])
        return (p[0] + listed + p[2 * ell] + p[2 * ell + 1].join(map(name, least))
                + p[3 * ell] + weight + p[3 * ell + 1])

    return entry


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


def _suite(name: str) -> str:
    if name not in SUITES:
        raise ValueError(f"invalid choice: {name!r} (choose from {', '.join(sorted(SUITES))})")
    return name


# each command: its handler, its help line and its options, each option
# (flag, dest, convert, default); a convert of None marks a flag without a
# value, and a default of ... an option that must be given
HELP = ("-h", "--help")
COMMANDS = {
    "fusion": (cmd_fusion, "fusion product of two U(i,l) classes, each given as i,l", (
        ("--k", "k", int, ...), ("--left", "left", str, ...), ("--right", "right", str, ...))),
    "classify": (cmd_classify, "classify a code from JSON", (("--code", "code", str, ...),)),
    "modules": (cmd_modules, "orbit census and module inventory for a code", (
        ("--code", "code", str, ...), ("--chi", "chi", str, None),
        ("--induce", "induce", None, False))),
    "verify": (cmd_verify, "run one verification suite: " + ", ".join(sorted(SUITES)), (
        ("--suite", "suite", _suite, ...), ("--k", "k", int, ...), ("--seed", "seed", int, 0))),
}


class Parser:
    """argv read against COMMANDS as argparse read it: options exact or by a
    unique prefix, as '--opt value' or '--opt=value', the last one winning."""

    def parse_args(self, argv=None):
        tokens = sys.argv[1:] if argv is None else list(argv)
        command, options, values, stray = None, {}, {}, []
        kinds, i = self._kinds(None, tokens, HELP), 0
        while i < len(tokens):
            kind, token, i = kinds[i], tokens[i], i + 1
            if kind is None and command is None:  # the first value names the command
                if token not in COMMANDS:
                    self._exit(None, f"argument command: invalid choice: {token!r}")
                command, options = token, {row[0]: row for row in COMMANDS[token][2]}
                kinds[i:] = self._kinds(command, tokens[i:], [*options, *HELP])
            elif kind is None or kind[0] is None:
                stray.append(token)
            elif kind[0] in HELP and kind[1] is None:
                self._exit(command)
            else:
                flag, explicit = kind
                _, dest, convert, _ = options.get(flag, (flag, None, None, None))
                if convert and explicit is None and i < len(tokens) and kinds[i] is None:
                    explicit, i = tokens[i], i + 1
                if (convert is None) != (explicit is None):
                    self._exit(command, f"argument {flag}: expected one argument" if convert
                               else f"argument {flag}: ignored explicit argument {explicit!r}")
                try:
                    values[dest] = convert(explicit) if convert else True
                except ValueError as exc:
                    self._exit(command, f"argument {flag}: {exc}")
        missing = [row[0] for row in options.values()
                   if row[3] is ... and row[1] not in values] if command else ["command"]
        if missing or stray:
            self._exit(command, f"the following arguments are required: {', '.join(missing)}"
                       if missing else "unrecognized arguments: " + " ".join(stray))
        return SimpleNamespace(command=command, func=COMMANDS[command][0], **{
            dest: values.get(dest, default) for _, dest, _, default in options.values()})

    def _kinds(self, command, tokens: list, flags) -> list:
        """Each token as argparse read it: None for a value, else (flag, text after '=' or None),
        flag None for an unknown option; no token from '--' on is an option or its value."""
        cut = tokens.index("--") if "--" in tokens else len(tokens)
        kinds = [self._kind(command, token, flags) for token in tokens[:cut]]
        return kinds + [(None, None)] * (len(tokens) - cut)

    def _kind(self, command, token: str, flags):
        whole, dot, tail = token[1:].removesuffix("\n").partition(".")
        if token[:1] != "-" or token == "-" or (whole + tail).isdecimal() and (tail or not dot):
            return None  # a value: -5 and -.5 are numbers, not options
        name, explicit = token.split("=", 1) if "=" in token else (token, None)
        if token[1] == "-":  # an option, or a unique prefix of one
            hits = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
        else:  # -h with text run on after it: -hh is -h
            hits, explicit = ["-h"] * (token[1] == "h"), token[2:].lstrip("h") or None
        if len(hits) > 1:
            self._exit(command, f"ambiguous option: {token} could match {', '.join(hits)}")
        # a token with a space that names no option is a value
        return (hits[0], explicit) if hits else None if " " in token else (None, None)

    def _exit(self, command, error=None):
        """Exit 2 on a usage error, else print the commands' or one command's help."""
        usage = f"usage: parafusion {command or '<command>'} [options]\n"
        if error:
            sys.stderr.write(f"{usage}parafusion: error: {error}\n")
            raise SystemExit(2)
        rows = [(name, row[1]) for name, row in COMMANDS.items()] if command is None else [
            (f"{flag} {dest.upper()}" if convert else flag,
             "required" if default is ... else f"default: {default}")
            for flag, dest, convert, default in COMMANDS[command][2]]
        head = (COMMANDS[command][1] + "\n\noptions:" if command
                else "commands (<command> -h lists its options):")
        rows.append(("-h, --help", "print this help"))
        sys.stdout.write(f"{usage}\n{head}\n" + "".join(f"  {w:<16}{line}\n" for w, line in rows))
        raise SystemExit(0)


build_parser = Parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, status = args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # batched: one write is one system call when stdout is unbuffered
    # (python -u, PYTHONUNBUFFERED)
    pieces = _stream(report, "", STREAMED_LEVELS)
    try:
        while text := "".join(islice(pieces, WRITE_PIECES)):
            sys.stdout.write(text)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to devnull at exit
        # instead of raising again, and the status is the shell's for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    except ValueError as exc:
        # an entry is computed as it is written (its induced module, say),
        # so its failure cuts the report short and exits as any failure does
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
