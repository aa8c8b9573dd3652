"""The command line reads every argv as the argparse parser it replaced did.

``_build_parser`` below is that parser, kept verbatim as the oracle.  A
seeded corpus of argvs (every command; options in shuffled order, in
``=`` form, by prefix and repeated; ``--``; negative numbers; missing and
extra positionals; bad and out-of-range values; unknown options, commands
and help) must give the oracle's exit code and, when accepted, the
oracle's value of every field a handler reads.  Run as a script, the
module prints the outcome of each argv under this Python's argparse, as
JSON lines, to find the argvs whose outcome differs across Python
versions; those are pinned in ``PINNED`` instead.
"""

import argparse
import contextlib
import io
import json
import random
import sys
from functools import cache

import pytest

from htc import cli
from htc.checker import SUITE_NAMES
from htc.cli import cmd_check, cmd_props, cmd_solve, cmd_translate
from mutants import mutate

EXIT_USAGE = 1


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _int_at_least(minimum):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as an "invalid int value"
    return parse


@cache  # one parser per process; parsing an argv does not change it
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="htc", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="enumerate stable models of a file")
    solve.set_defaults(handler=cmd_solve)
    solve.add_argument("file")
    solve.add_argument("--ht", action="store_true", help="list HT models instead")
    solve.add_argument(
        "--models", type=_int_at_least(0), default=None, help="print at most N models"
    )

    translate = sub.add_parser("translate", help="print a transformed program")
    translate.set_defaults(handler=cmd_translate)
    translate.add_argument("file")
    translate.add_argument(
        "--pass",
        dest="pass_name",
        choices=("desugar", "unfold", "delta", "all"),
        required=True,
    )

    check = sub.add_parser("check", help="compare two files")
    check.set_defaults(handler=cmd_check)
    check.add_argument("file_a")
    check.add_argument("file_b")
    check.add_argument("--stable", action="store_true", help="compare stable models")
    check.add_argument("--project", default=None, help="comma-separated variables")
    check.add_argument(
        "--strong",
        action="store_true",
        help="exact projected strong equivalence (every context)",
    )

    props = sub.add_parser("props", help="run a property suite")
    props.set_defaults(handler=cmd_props)
    props.add_argument("--suite", required=True, choices=SUITE_NAMES)
    props.add_argument("--seed", type=int, default=0)
    props.add_argument("--count", type=_int_at_least(0), default=50)

    for enumerating in (solve, translate, check):
        enumerating.add_argument(
            "--max-interps",
            type=_int_at_least(1),
            default=None,
            help="interpretation budget (also HTC_MAX_INTERPS)",
        )
    for command in (solve, translate, check, props):
        command.add_argument(
            "--jobs", type=_int_at_least(1), default=1, help="parallel workers"
        )
    return parser


def outcome(parse, argv):
    """What ``parse(argv)`` gives, as JSON-able data: ``["exit", code]``
    for help or a usage error, else ``["ok", handler, fields]``.  Help must
    print a usage line to stdout, an error one and ``htc[ cmd]: error:`` to
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            handler, fields = parse(list(argv))
    except SystemExit as exc:
        stream = (out if exc.code == 0 else err).getvalue()
        assert stream.startswith("usage: htc"), (argv, stream)
        assert exc.code == 0 or ": error: " in stream.splitlines()[-1], (argv, stream)
        return ["exit", exc.code]
    assert out.getvalue() == err.getvalue() == "", argv
    return ["ok", handler.__name__, fields]


def old_parse(argv):
    args = vars(_build_parser().parse_args(argv))
    del args["command"]
    return args.pop("handler"), args


def new_parse(argv):
    handler, args = cli._parse(argv)
    return handler, vars(args)


# What the corpus draws from, written out here rather than read from the
# table under test: per command its positionals, flags and valued options,
# each with the values it takes and values it refuses.
FILES = ["a.lc", "b.lc", "-", "-7", "-0.5", "x y", "-x y", ""]
AT_LEAST_0 = (["0", "1", "7", "-0", " 2", "+3", "3_0"], ["-1", "-12", "x", "1.5", "", "0x1"])
AT_LEAST_1 = (["1", "2", "16", "+1"], ["0", "-4", "-1", "two", "1e3", ""])
OPTION_LIKE = ["-x", "--ht", "-h", "--", "-1e3"]
SPEC = {
    "solve": (
        ["file"],
        ["--ht"],
        {"--models": AT_LEAST_0, "--max-interps": AT_LEAST_1, "--jobs": AT_LEAST_1},
    ),
    "translate": (
        ["file"],
        [],
        {
            "--pass": (["desugar", "unfold", "delta", "all"], ["bogus", "DELTA", ""]),
            "--max-interps": AT_LEAST_1,
            "--jobs": AT_LEAST_1,
        },
    ),
    "check": (
        ["file_a", "file_b"],
        ["--stable", "--strong"],
        {
            "--project": (["x", "y,p", "", "-3", "a b", "-x y", "=", "p=q"], []),
            "--max-interps": AT_LEAST_1,
            "--jobs": AT_LEAST_1,
        },
    ),
    "props": (
        [],
        [],
        {
            "--suite": (list(SUITE_NAMES), ["bogus", ""]),
            "--seed": (["0", "7", "-3", "-0", "1_000"], ["x", "2.5"]),
            "--count": AT_LEAST_0,
            "--jobs": AT_LEAST_1,
        },
    ),
}
REQUIRED = {"--pass", "--suite"}
UNKNOWN = ["--json", "-x", "--bogus=1", "---ht", "-x=1", "--ht-x"]
HELP = ["-h", "--help", "--he", "--hel"]


def prefixes(names, name):
    """The proper prefixes of ``name`` longer than "--", split into those
    that name it alone and those that ``names`` makes ambiguous."""
    unique, ambiguous = [], []
    for end in range(3, len(name)):
        prefix = name[:end]
        matches = [n for n in names if n.startswith(prefix)]
        (unique if matches == [name] else ambiguous).append(prefix)
    return unique, ambiguous


def option_tokens(rng, name, values, names, ambiguous_ok):
    """The tokens of one use of option ``name``: by its name or a unique
    (or, when allowed, ambiguous) prefix, with its value after it or after
    "=", or with the value missing."""
    unique, ambiguous = prefixes(names, name)
    if ambiguous and ambiguous_ok and rng.random() < 0.05:
        spelled = rng.choice(ambiguous)
    else:
        spelled = rng.choice([name, name, *unique])
    if values is None:  # a flag
        return [f"{spelled}={rng.choice(['', 'x'])}"] if rng.random() < 0.03 else [spelled]
    good, bad = values
    r = rng.random()
    value = rng.choice(OPTION_LIKE if r < 0.04 else bad if r < 0.12 and bad else good)
    r = rng.random()
    if r < 0.02:
        return [spelled]  # its value missing, or taken from the next token
    if r < 0.3 and value != "--":  # "--opt=--" is read differently, see PINNED
        return [f"{spelled}={value}"]
    return [spelled, value]


def corpus_argv(rng):
    if rng.random() < 0.04:  # no command, or an unknown one, or help before it
        return rng.choice(
            [[], ["solv", "a.lc"], ["bogus"], ["-3"], ["--jobs", "1", "solve", "a.lc"],
             ["--x", "solve", "a.lc"], ["-x", "props", "--suite", "negation"],
             ["--x", "solve", "-h"], [rng.choice(HELP)], [rng.choice(HELP), "solve"],
             ["--help=x"], ["--", "--"], ["SOLVE", "a.lc"]]
        )
    command = rng.choice(list(SPEC))
    positionals, flags, valued = SPEC[command]
    names = ["--help", *flags, *valued]
    # help together with an ambiguous prefix reads differently across
    # Python versions (see PINNED), so an argv has at most one of the two
    with_help = rng.random() < 0.05
    count = len(positionals) + rng.choice([0] * 12 + [-1, 1])
    groups = [[rng.choice(FILES)] for _ in range(max(count, 0))]
    for flag in flags:
        for _ in range(rng.choice([0, 1, 1, 2])):
            groups.append(option_tokens(rng, flag, None, names, not with_help))
    for name, values in valued.items():
        uses = rng.choice([1] * 12 + [0, 2] if name in REQUIRED else [0, 0, 1, 1, 2])
        for _ in range(uses):
            groups.append(option_tokens(rng, name, values, names, not with_help))
    if rng.random() < 0.04:
        groups.append([rng.choice(UNKNOWN)])
    if with_help:
        groups.append([rng.choice(["-h", "--help", *prefixes(names, "--help")[0]])])
    rng.shuffle(groups)
    tokens = [token for group in groups for token in group]
    if rng.random() < 0.15:
        tokens.insert(rng.randint(0, len(tokens)), "--")
    if rng.random() < 0.03:
        tokens.append("--")
    return [command, *tokens]


def corpus(seed=0, count=2400):
    rng = random.Random(seed)
    return [corpus_argv(rng) for _ in range(count)]


# The argvs whose argparse outcome differs across Python versions, pinned
# to what the command line does:
# - "--" before the command: 3.13.13 reads the command after it; 3.10 to
#   3.13.0 take "--" for the command and reject it;
# - an ambiguous prefix after help: 3.13.13 prints the help; 3.10 to
#   3.13.0 reject the prefix first;
# - "-h" with letters after it: 3.13 prints the help, 3.10 to 3.12
#   reject it;
# - "--opt=--": 3.13 reads "--" as the value; 3.10 to 3.12 drop it and
#   give the option [], unconverted;
# - "-=": 3.13.13 reads it as a prefix of every option, 3.10 to 3.13.0 as
#   an unknown option, so help after it wins.
PINNED = [
    (["--", "solve", "a.lc"], ["ok", "cmd_solve", {
        "file": "a.lc", "ht": False, "models": None, "max_interps": None, "jobs": 1}]),
    (["solve", "-h", "--m"], ["exit", 0]),
    (["props", "--help", "--s", "x"], ["exit", 0]),
    (["solve", "a.lc", "-hx"], ["exit", 1]),
    (["solve", "a.lc", "--models=--"], ["exit", 1]),
    (["check", "a.lc", "b.lc", "--project=--"], ["ok", "cmd_check", {
        "file_a": "a.lc", "file_b": "b.lc", "stable": False, "project": "--",
        "strong": False, "max_interps": None, "jobs": 1}]),
    (["solve", "a.lc", "-=", "-h"], ["exit", 0]),
]


def mismatches(argvs):
    """The argvs on which the command line and the oracle disagree, with
    both outcomes."""
    out = []
    for argv in argvs:
        old, new = outcome(old_parse, argv), outcome(new_parse, argv)
        if old != new:
            out.append((argv, old, new))
    return out


CORPUS = corpus()


def test_the_corpus_covers_every_outcome():
    outcomes = [outcome(old_parse, argv) for argv in CORPUS]
    accepted = {o[1] for o in outcomes if o[0] == "ok"}
    assert accepted == {"cmd_solve", "cmd_translate", "cmd_check", "cmd_props"}
    assert ["exit", 0] in outcomes and ["exit", 1] in outcomes
    share = sum(o[0] == "ok" for o in outcomes) / len(outcomes)
    assert 0.2 < share < 0.8
    tokens = {t for argv in CORPUS for t in argv}
    assert {"--", "-h", "--mod", "--m", "-1"} <= tokens
    assert any(t.startswith("--models=") for t in tokens)


def test_every_argv_reads_as_the_oracle_reads_it():
    assert mismatches(CORPUS) == []


@pytest.mark.parametrize("argv, expected", PINNED)
def test_argvs_read_differently_across_python_versions_are_pinned(argv, expected):
    assert outcome(new_parse, argv) == expected


def test_the_corpus_kills_a_minimum_off_by_one(monkeypatch):
    mutate(monkeypatch, cli, "_read", "value < kind", "value <= kind")
    assert mismatches(CORPUS)


def test_the_corpus_kills_a_prefix_of_two_options_read_as_the_first(monkeypatch):
    mutate(monkeypatch, cli, "_option", "len(found) > 1", "len(found) > 2")
    assert mismatches(CORPUS)


if __name__ == "__main__":
    for argv in CORPUS + [argv for argv, _ in PINNED]:
        print(json.dumps([argv, outcome(old_parse, argv)]))
