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
from functools import cache

from .checker import (
    SUITE_NAMES,
    equivalent,
    run_property_suite,
    stable_equivalent,
    strong_equivalent,
)
from .errors import BudgetError, HtcError
from .parser import parse_theory, pretty_print
from .semantics import ht_models, stable_models, valuation_key
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
    solve.add_argument("file")
    solve.add_argument("--ht", action="store_true", help="list HT models instead")
    solve.add_argument(
        "--models", type=_int_at_least(0), default=None, help="print at most N models"
    )

    translate = sub.add_parser("translate", help="print a transformed program")
    translate.add_argument("file")
    translate.add_argument(
        "--pass",
        dest="pass_name",
        choices=("desugar", "unfold", "delta", "all"),
        required=True,
    )

    check = sub.add_parser("check", help="compare two files")
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
    props.add_argument("--suite", required=True, choices=SUITE_NAMES)
    props.add_argument("--seed", type=int, default=0)
    props.add_argument("--count", type=_int_at_least(0), default=50)

    for enumerating in (solve, translate, check):
        enumerating.add_argument(
            "--max-interps",
            type=int,
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
    return int(env) if env else None


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_theory(fh.read())


def _emit(doc):
    print(json.dumps(doc, sort_keys=True))


def cmd_solve(args) -> int:
    # The models come over the desugared spec, in enumeration order, which is
    # valuation_key order.  Only when a projection onto the declared names
    # drops a defined variable (a min/max auxiliary) can two models merge or
    # change places, so only then are they deduplicated and, for stable
    # models, sorted.
    thy = _load(args.file)
    visible = thy.spec.variables()
    budget = _budget(args)
    if args.ht:
        found = ht_models(thy, budget=budget, jobs=args.jobs)
        pairs = [(i.h.project(visible), i.t.project(visible)) for i in found]
        if any(p[1] is not i.t for p, i in zip(pairs, found)):
            pairs = list(dict.fromkeys(pairs))
        out = [{"h": h.to_json(), "t": t.to_json()} for h, t in pairs[: args.models]]
        _emit({"ht_models": out})
        return EXIT_OK
    found = stable_models(thy, budget=budget, jobs=args.jobs)
    models = [t.project(visible) for t in found]
    if any(p is not t for p, t in zip(models, found)):
        models = sorted(set(models), key=lambda v: valuation_key(thy.spec, v))
    _emit({"stable_models": [v.to_json() for v in models[: args.models]]})
    return EXIT_OK


def cmd_translate(args) -> int:
    thy = _load(args.file)
    budget = _budget(args)
    if args.pass_name == "desugar":
        result = desugar_theory(thy)
    elif args.pass_name == "delta":
        result = eliminate_conditionals(thy, budget=budget).theory()
    else:
        # unfold first on the aggregate-free surface, so a later delta still
        # sees each conditional occurrence before comparison expansion
        result = unfold_theory(desugar_aggregates(thy), distribute=False)
        if args.pass_name == "all":
            result = eliminate_conditionals(result, budget=budget).theory()
        else:
            result = desugar_theory(result)
    sys.stdout.write(pretty_print(result))
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
    handlers = {
        "solve": cmd_solve,
        "translate": cmd_translate,
        "check": cmd_check,
        "props": cmd_props,
    }
    try:
        return handlers[args.command](args)
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
