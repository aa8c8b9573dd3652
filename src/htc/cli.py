"""Command-line front end: solve, translate, check, props.

Output is JSON with sorted keys (translate prints program text), so runs
with identical inputs, flags and seeds are byte-identical.  Exit codes:
0 success (even with zero models), 1 usage or parse error (or input nested
too deeply), 2 budget exceeded, 3 property violation found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial

from .checker import (
    SUITE_NAMES,
    equivalent,
    run_property_suite,
    stable_equivalent,
    strong_equivalent,
)
from .errors import BudgetError, HtcError
from .parser import parse_theory, pretty_print
from .semantics import Interpretation, Valuation, ht_models, stable_models, valuation_key
from .syntax import desugar_aggregates, desugar_theory
from .transforms import eliminate_conditionals, unfold_theory

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VIOLATION = 3


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
    parser = _ArgumentParser(prog="htc", description=__doc__)
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


def _budget(args):
    if args.max_interps is not None:
        return args.max_interps
    env = os.environ.get("HTC_MAX_INTERPS")
    try:  # the rule of --max-interps: every spec spans an interpretation or more
        return _int_at_least(1)(env) if env else None
    except ValueError:
        raise ValueError(f"HTC_MAX_INTERPS must be an integer, got {env!r}") from None
    except argparse.ArgumentTypeError:
        raise ValueError(f"HTC_MAX_INTERPS must be at least 1, got {env!r}") from None


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_theory(fh.read())


def _emit(doc):
    print(json.dumps(doc, sort_keys=True))


class _Objects(dict):
    """A Valuation's JSON object text, joined from the ``"name": value`` text
    of its pairs; each distinct pair is encoded once, through to_json."""

    def __missing__(self, pair):
        self[pair] = json.dumps(Valuation((pair,)).to_json())[1:-1]
        return self[pair]

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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
