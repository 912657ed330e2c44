"""The command line read from cli.COMMANDS, checked against the argparse
parser it replaced (scans.argparse_parser): the same argv is accepted with
the same values, or refused with status 2."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import parafusion
from parafusion.cli import COMMANDS, build_parser, main
from scans import argparse_parser

FUSION = ["fusion", "--k", "3", "--left", "1,1", "--right", "1,1"]
CORPUS = [
    # each command, options in any order, '=' forms, prefixes, repeats
    FUSION,
    ["fusion", "--right", "0,0", "--left=1,1", "--k=-5"],
    ["fusion", "--ri", "1,1", "--l", "-1.5", "--k", "4", "--k", "5"],
    ["fusion", "--k", " 7 ", "--left", "-.5", "--right", "-"],
    ["fusion", "--k", "3", "--left", "-x y", "--right", "-5\n"],
    ["fusion", "--k=", "--left=", "--right="],
    ["classify", "--code", "x"],
    ["classify", "--c", "x", "--co=y"],
    ["modules", "--code", "x", "--ind"],
    ["modules", "--induce", "--code", "x", "--induce", "--chi", "-3"],
    ["modules", "--code", "x", "--chi=a,b", "--chi", "-3.5"],
    ["verify", "--suite", "counting", "--k", "3"],
    ["verify", "--k=2", "--se", "-1", "--su=appendix-a", "--seed", "4"],
    ["verify", "--suite=lattice-lemmas", "--k", "1_0"],
    # ambiguous prefixes, refused before any option is taken
    ["modules", "--c", "x"],
    ["modules", "-h", "--c", "x"],
    ["modules", "--code", "x", "--c=y"],
    ["verify", "--s", "counting", "--k", "3"],
    ["classify", "--=x"],
    # '--': nothing after it is an option or an option's value
    FUSION + ["--"],
    ["fusion", "--", "--k", "3", "--left", "1,1", "--right", "1,1"],
    ["fusion", "--k", "--", "3", "--left", "1,1", "--right", "1,1"],
    ["classify", "--code", "x", "--", "y"],
    ["--"],
    # values that look like options, and values of the wrong kind
    ["fusion", "--k", "3", "--left", "-1,1", "--right", "1,1"],
    ["fusion", "--k", "x", "--left", "1,1", "--right", "1,1"],
    ["fusion", "--k", "1.5", "--left", "1,1", "--right", "1,1"],
    ["fusion", "--k", "-1.5", "--left", "1,1", "--right", "1,1"],
    ["fusion", "--k", "", "--left", "1,1", "--right", "1,1"],
    ["verify", "--suite", "counting", "--k", "3", "--seed", "x"],
    ["modules", "--code", "--chi"],
    ["modules", "--code", "x", "--induce=1"],
    ["modules", "--code", "x", "--ind="],
    # unknown or missing options, a bad suite, strays
    FUSION + ["--deterministic"],
    ["fusion", "--k", "3", "--left", "1,1"],
    ["fusion", "---k", "3", "--left", "1,1", "--right", "1,1"],
    ["fusion", "-k", "3", "--left", "1,1", "--right", "1,1"],
    ["verify", "--suite", "nonsense", "--k", "3"],
    ["verify", "--suite", "nonsense", "--suite", "counting", "--k", "3"],
    ["classify", "--code", "x", "stray"],
    FUSION + ["-"],
    ["--bogus", "classify", "--code", "x"],
    # no command, or one argparse does not know
    [],
    ["nonsense"],
    ["fusio", "--k", "3"],
    ["-5", "fusion"],
    ["", "fusion"],
    ["--k", "3", "fusion"],
    # help, where it is reached before an error, and its malformed forms
    ["-h"],
    ["--he"],
    ["-hh"],
    ["--bogus", "-h"],
    ["--bogus", "fusion", "-h"],
    ["stray", "-h"],
    ["fusion", "-h", "--k", "x"],
    ["fusion", "--k", "x", "-h"],
    ["fusion", "--k", "-h"],
    ["modules", "stray", "--h"],
    ["verify", "-hh"],
    FUSION + ["--help"],
    ["--help=x"],
    ["-h=x"],
    ["-h="],
    ["fusion", "--he=x"],
    ["--=x"],
]


def outcome(parser, argv):
    """('ok', namespace values) or ('exit', status), with what was written."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = ("ok", vars(parser.parse_args(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def check_against_argparse(argv):
    got, out, err = outcome(build_parser(), argv)
    if "--" in argv:
        # nothing takes a bare '--' or what follows it, so no such line is read
        assert got[0] == "exit", argv
    if "--" not in argv or sys.version_info < (3, 12):
        # how argparse reads a '--' moved in later Pythons: compare it with
        # the argparse of Python 3.10 and 3.11, which these forms come from
        want, _, _ = outcome(argparse_parser(), argv)
        assert got == want, argv
    if got == ("exit", 2):
        lines = err.splitlines()
        assert out == "" and lines[0].startswith("usage: parafusion"), argv
        assert lines[1].startswith("parafusion: error: ") and len(lines) == 2, argv
    elif got == ("exit", 0):
        assert out.startswith("usage: parafusion") and err == "", argv
    else:
        assert out == err == "", argv


def test_the_corpus_reads_as_argparse_read_it():
    for argv in CORPUS:
        check_against_argparse(argv)
    outcomes = {outcome(build_parser(), argv)[0][0] for argv in CORPUS}
    assert outcomes == {"ok", "exit"}


# every spelling of every flag: exact, or a prefix (unique or not) past '--';
# and tokens that are no command's option
FLAGS = sorted({flag[:n] for row in COMMANDS.values() for flag, *_ in row[2]
                for n in range(3, len(flag) + 1)} | {"--h", "--he", "--help"})
VALUES = ["3", "0", "-5", "-12", " 7", "+2", "x", "1.5", "-1.5", "-.5", "", "a,b", "1,1",
          "-", "-x y", "counting", "appendix-a", "lattice-lemmas", "nonsense", "--k"]
OTHERS = ["--", "-h", "--help", "--he", "-hh", "--bogus", "--bogus=1", "-x", "stray",
          "--help=x", "--induce", "--ind"]

pieces = st.one_of(
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list),
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(lambda p: ["=".join(p)]),
    st.sampled_from(FLAGS + OTHERS).map(lambda token: [token]),
)
argvs = st.tuples(
    # before the command only option-like tokens: the first value names the command
    st.lists(st.sampled_from(["-h", "--he", "--bogus", "--bogus=1", "--help=x"]), max_size=1),
    st.sampled_from([*COMMANDS, *COMMANDS, "nonsense", ""]),
    st.lists(pieces, max_size=6),
).map(lambda t: [*t[0], t[1], *(token for piece in t[2] for token in piece)])


@settings(max_examples=600, deadline=None)
@given(argvs)
def test_generated_argv_reads_as_argparse_read_it(argv):
    check_against_argparse(argv)


def test_a_separator_before_the_command_is_no_command():
    # as the argparse of Python 3.11 refused it
    got, out, err = outcome(build_parser(), ["--", *FUSION])
    assert got == ("exit", 2) and out == ""
    assert err.splitlines()[1].endswith("error: the following arguments are required: command")


def test_only_a_number_that_starts_with_a_dash_is_a_value():
    for value in ("-1,1", "-5x", "-1e3", "-1_0", "-5."):
        got, _, err = outcome(build_parser(), ["fusion", "--k", "3", "--left", value])
        assert got == ("exit", 2)
        assert err.endswith("error: argument --left: expected one argument\n"), value


def test_help_lists_every_command_and_option():
    got, out, err = outcome(build_parser(), ["-h"])
    assert got == ("exit", 0) and err == ""
    for name, (_, line, _) in COMMANDS.items():
        assert f"  {name} " in out and line in out
    for name, (_, line, options) in COMMANDS.items():
        got, out, err = outcome(build_parser(), [name, "--help"])
        assert got == ("exit", 0) and err == ""
        assert out.startswith(f"usage: parafusion {name} ") and line in out
        for flag, *_ in options:
            assert f"  {flag} " in out, (name, flag)


@pytest.mark.parametrize("argv, status", [
    (["verify", "--suite", "nonsense", "--k", "3"], 2),
    (["modules", "-h"], 0),
])
def test_main_exits_from_the_parser(capsys, argv, status):
    # a usage error writes only to stderr, and help only to stdout
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == status
    assert (captured.out == "", captured.err == "") == (status == 2, status == 0)


def test_a_request_imports_no_argparse_gettext_locale_dataclasses_or_inspect():
    # what a classify request adds to the modules of a bare interpreter: it
    # builds no argparse parser, so no gettext lookup imports locale, and its
    # value types stand on arith.Value, so neither dataclasses nor the
    # inspect it pulls in is imported
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(parafusion.__file__).parent.parent), env.get("PYTHONPATH")]))
    code = json.dumps({"k": 3, "length": 1, "generators": [[3]]})
    listing = "import sys; print(' '.join(sorted(sys.modules)), file=sys.stderr)"
    request = f"from parafusion.cli import main; main(['classify', '--code', {code!r}]); "

    def run(source):
        return subprocess.run([sys.executable, "-c", source], env=env, capture_output=True,
                              text=True, timeout=60, check=True)

    bare, after = run(listing), run(request + listing)
    assert json.loads(after.stdout)["results"]["classification"] == "CaseB"
    added = set(after.stderr.split()) - set(bare.stderr.split())
    assert "parafusion.cli" in added
    assert {"argparse", "gettext", "locale", "dataclasses", "inspect"} & added == set()


def test_the_cli_compiles_neither_parafermion_nor_virasoro():
    # no command runs the parafermion labels or the Virasoro tables, so a
    # fresh interpreter that imports the CLI and runs a request loads neither;
    # the package still names theirs, each module loaded on first use
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(parafusion.__file__).parent.parent), env.get("PYTHONPATH")]))
    code = json.dumps({"k": 3, "length": 2, "generators": [[3, 3]]})
    source = (
        "import sys, parafusion.cli; "
        f"parafusion.cli.main(['modules', '--code', {code!r}, '--induce']); "
        "print(' '.join(sorted(sys.modules)), file=sys.stderr); "
        "print(parafusion.virasoro.__name__); "
        "from parafusion import central_charge, fuse_pf; "
        "print(central_charge(1), fuse_pf.__module__)")
    done = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(done.stderr.split())
    assert "parafusion.cli" in loaded
    assert {"parafusion.parafermion", "parafusion.virasoro"} & loaded == set()
    assert done.stdout.splitlines()[-2:] == ["parafusion.virasoro", "1/2 parafusion.parafermion"]


def test_a_star_import_of_the_package_gives_every_module_s_names():
    # a star import sees the names that load on first use as well
    names = {}
    exec("from parafusion import *", names)
    for name in ("arith", "codes", "fusion", "lattice", "parafermion", "u0", "ud",
                 "virasoro"):
        module = getattr(parafusion, name)
        assert all(names[n] is getattr(module, n) for n in module.__all__), name
    assert set(parafusion.__all__) == set(names) - {"__builtins__"}
