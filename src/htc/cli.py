"""Command-line front end: solve, translate, check, props.

Output is JSON with sorted keys (translate prints program text), so runs
with identical inputs, flags and seeds are byte-identical.  Exit codes:
0 success (even with zero models), 1 usage or parse error (or input nested
too deeply), 2 budget exceeded, 3 property violation found.
"""

from __future__ import annotations

import json
import os
import re
import sys
from functools import partial
from types import SimpleNamespace

from .checker import (
    SUITE_NAMES,
    equivalent,
    run_property_suite,
    stable_equivalent,
    strong_equivalent,
)
from .errors import BudgetError, HtcError
from .parser import parse_theory, pretty_print
from .semantics import Interpretation, ht_models, stable_models, valuation_key
from .syntax import TRUE, desugar_aggregates, desugar_theory
from .transforms import eliminate_conditionals, unfold_theory

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VIOLATION = 3


def _budget(args):
    if args.max_interps is not None:
        return args.max_interps
    env = os.environ.get("HTC_MAX_INTERPS")
    try:  # the rule of --max-interps: every spec spans an interpretation or more
        return _read(_BUDGET, env) if env else None
    except ValueError as exc:
        need = "an integer" if str(exc).startswith("invalid") else f"at least {_BUDGET[2]}"
        raise ValueError(f"HTC_MAX_INTERPS must be {need}, got {env!r}") from None


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_theory(fh.read())


def _emit(doc):
    print(json.dumps(doc, sort_keys=True))


class _Objects(dict):
    """A Valuation's JSON object text, joined from the ``"name": value`` text
    of its pairs; each distinct pair is written once."""

    def __missing__(self, pair):
        name, value = pair
        self[pair] = text = f"{json.dumps(name)}: {'true' if value is TRUE else value}"
        return text

    def __call__(self, v) -> str:
        return "{" + ", ".join(map(self.__getitem__, v._pairs)) + "}"


def cmd_solve(args) -> int:
    # A model's pairs are in spec.variables() order, the sorted() order of
    # json.dumps(sort_keys=True), and the models come in valuation_key order,
    # so _Objects writes each as it comes.  Only when one defines a name the
    # file did not declare (a min/max auxiliary) are they first projected onto
    # the declared names, then HT models deduplicated (an h may or may not
    # define an auxiliary) and stable models sorted.  These need no dedupe: in
    # a total model the side formulas of desugar_minmax make __min<k> undefined
    # exactly when no element is present, else the least present element value
    # (__max<k> the greatest), and elements read only declared variables.
    thy = _load(args.file)
    visible = set(thy.spec.variables())
    found = (ht_models if args.ht else stable_models)(thy, budget=_budget(args), jobs=args.jobs)
    if {n for i in found for n, _ in (i.t if args.ht else i)._pairs} - visible:
        if args.ht:
            pairs = (Interpretation(i.h.project(visible), i.t.project(visible)) for i in found)
            found = list(dict.fromkeys(pairs))
        else:
            found = sorted([v.project(visible) for v in found], key=partial(valuation_key, thy.spec))
    text, items, last = _Objects(), [], None
    for i in found[: args.models]:
        if args.ht and i.t._pairs != last:  # ht_models lists the h below one t together
            last, t = i.t._pairs, text(i.t)
        items.append(f'{{"h": {text(i.h)}, "t": {t}}}' if args.ht else text(i))
    key = "ht_models" if args.ht else "stable_models"
    sys.stdout.write(f'{{"{key}": [{", ".join(items)}]}}\n')
    return EXIT_OK


def cmd_translate(args) -> int:
    thy = _load(args.file)
    budget = _budget(args)
    if args.pass_name in ("unfold", "all"):
        # unfold first on the aggregate-free surface, so a later delta still
        # sees each conditional occurrence before comparison expansion
        thy = unfold_theory(desugar_aggregates(thy), distribute=False)
    if args.pass_name in ("delta", "all"):
        thy = eliminate_conditionals(thy, budget=budget).theory()
    else:
        thy = desugar_theory(thy)
    sys.stdout.write(pretty_print(thy))
    return EXIT_OK


def cmd_check(args) -> int:
    project = None
    if args.project is not None:
        if not (args.stable or args.strong):
            raise ValueError("--project needs --stable or --strong")
        project = tuple(n.strip() for n in args.project.split(",") if n.strip())
    a = _load(args.file_a)
    b = _load(args.file_b)
    budget = _budget(args)
    if args.strong:
        # a pair that differs without a context reports as --stable does
        report = strong_equivalent(a, b, project=project, budget=budget, jobs=args.jobs)
    elif args.stable:
        report = stable_equivalent(
            a, b, project=project, budget=budget, jobs=args.jobs
        )
    else:
        report = equivalent(a, b, budget=budget, jobs=args.jobs)
    _emit({"report": report.to_json()})
    return EXIT_OK


def cmd_props(args) -> int:
    report = run_property_suite(
        args.suite, seed=args.seed, count=args.count, jobs=args.jobs
    )
    _emit({"report": report.to_json()})
    return EXIT_OK if report.ok else EXIT_VIOLATION


# The command line: for each command (None: before one) its handler, help,
# positionals and options.  An option is (name, attribute, kind, default,
# help): kind None is a flag, str any text, int any integer, an int an
# integer of at least that, a tuple one of its texts; default ... is required.
_HELP = ("--help", "help", None, False, "show this help and exit")
_BUDGET = ("--max-interps", "max_interps", 1, None, "interpretation budget (also HTC_MAX_INTERPS)")
_JOBS = ("--jobs", "jobs", 1, 1, "parallel workers")
_COMMANDS = {
    None: (None, __doc__, ("command",), ()),
    "solve": (cmd_solve, "enumerate stable models of a file", ("file",), (
        ("--ht", "ht", None, False, "list HT models instead"),
        ("--models", "models", 0, None, "print at most N models"), _BUDGET, _JOBS)),
    "translate": (cmd_translate, "print a transformed program", ("file",), (
        ("--pass", "pass_name", ("desugar", "unfold", "delta", "all"), ..., "the pass to apply"),
        _BUDGET, _JOBS)),
    "check": (cmd_check, "compare two files", ("file_a", "file_b"), (
        ("--stable", "stable", None, False, "compare stable models"),
        ("--project", "project", str, None, "comma-separated variables"),
        ("--strong", "strong", None, False, "exact projected strong equivalence (every context)"),
        _BUDGET, _JOBS)),
    "props": (cmd_props, "run a property suite", (), (
        ("--suite", "suite", SUITE_NAMES, ..., "the suite to run"),
        ("--seed", "seed", int, 0, "generator seed"),
        ("--count", "count", 0, 50, "items to generate"), _JOBS)),
}


def _parse(argv, command=None, extras=()):
    """The handler and the fields ``argv`` gives it, read against _COMMANDS
    as argparse read them.  Help exits 0, a usage error 1 (SystemExit)."""
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, filter(None, _COMMANDS)))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    handler, _, names, rows = _COMMANDS[command]
    fields = {row[1]: row[3] for row in rows}
    rows, names, extras = (_HELP, *rows), list(names), list(extras)
    i, rest, positional = 0, False, False  # rest: after "--", all are positionals
    while i < len(argv):
        token, i = argv[i], i + 1
        if token == "--" and not rest:
            rest = True  # argparse leaves unread a "--" that ends argv after an option
            extras += [token] if i == len(argv) and not positional else []
            continue
        found = None if rest else _option(command, rows, token)
        positional, (row, text) = found is None, found or (None, None)
        if positional and command is None:
            return _parse(argv[i:], token, extras)
        if positional and names:
            fields[names.pop(0)] = token
        elif row is None:  # an unknown option, or a positional past the last name
            extras.append(token)
        elif row is _HELP and text is None:
            sys.stdout.write(_help(command))
            raise SystemExit(EXIT_OK)
        else:
            if text is None and row[2] is not None:
                if i == len(argv) or argv[i] == "--" or _option(command, rows, argv[i]):
                    _fail(command, f"argument {row[0]}: expected one argument")
                text, i = argv[i], i + 1
            try:
                fields[row[1]] = _read(row, text)
            except ValueError as exc:
                _fail(command, f"argument {row[0]}: {exc}")
    missing = names + [row[0] for row in rows if fields.get(row[1]) is ...]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return handler, SimpleNamespace(**fields)


def _option(command, rows, token):
    """The row ``token`` names and the text after its "=" (None without
    one), (None, None) for an unknown option, or None for a positional."""
    head, eq, text = token.partition("=")
    head = "--help" if head == "-h" else head
    exact = [row for row in rows if row[0] == head]
    found = exact or [row for row in rows if head[:2] == "--" and row[0].startswith(head)]
    if len(found) > 1:
        _fail(command, f"ambiguous option: {token} could match {', '.join(r[0] for r in found)}")
    if found:
        return found[0], text if eq else None
    if token[:1] != "-" or token == "-" or " " in token or re.match(r"-\d+$|-\d*\.\d+$", token):
        return None  # no option's form, a space in it, or a negative number
    return None, None


def _read(row, text):
    """The value ``text`` (None for a flag) gives the option ``row``; a
    ValueError says why it gives none."""
    kind = row[2]
    if kind is None:
        if text is not None:
            raise ValueError(f"ignored explicit argument {text!r}")
        return True
    if isinstance(kind, tuple) and text not in kind:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
    if kind is str or isinstance(kind, tuple):
        return text
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if kind is not int and value < kind:
        raise ValueError(f"must be at least {kind}, got {value}")
    return value


def _help(command):
    """The help of ``command`` (None: of htc); its first line is the usage."""
    _, text, names, rows = _COMMANDS[command]
    words = ["usage: htc", *filter(None, [command]), "[-h]"]
    for name, attribute, kind, default, _ in rows:
        if kind is not None:
            name += f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else f" {attribute.upper()}"
        words.append(name if default is ... else f"[{name}]")
    words += names if command else [f"{{{','.join(filter(None, _COMMANDS))}}} ..."]
    lines = "".join(f"  {row[0]:<15} {row[4]}\n" for row in (_HELP, *rows))
    return f"{' '.join(words)}\n\n{text.strip()}\n\n{lines}"


def _fail(command, message):
    """Write the usage of ``command`` and ``message`` to stderr, and exit 1."""
    usage = _help(command).partition("\n")[0]
    sys.stderr.write(f"{usage}\n{' '.join(filter(None, ['htc', command]))}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def main(argv=None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except BudgetError as exc:
        print(f"htc: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        # Python's own message differs with the call that overflowed
        print("htc: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except (HtcError, OSError, ValueError) as exc:
        print(f"htc: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
