"""Seeded `.lc` input generator for the benchmark (standard library only).

The seed picks, for every input slot of a workload, one of eight variants,
so that the stdout of every operation on every input any seed can produce
carries a frozen digest (see ``digests.json``).  A variant changes only
variable names, keeping their order, and the offset of integer intervals:
its enumeration cost is that of its slot, which keeps runs with different
seeds comparable.  (Drawing one-conditional theories at random from a pool
instead made the cost of a pass vary by 10% from seed to seed.)

Each input carries ``why`` (why it is in the benchmark) and, where the
family has one, the closed-form answer its stable models must match.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

VARIANTS = 8  # variants per family slot
ONECOND_COUNT = 8  # 4 shapes x 0..1 extra statements

_INT_PREFIXES = ("x", "v", "w", "z", "k", "m", "n", "s")
_PAIR_PREFIXES = (("p", "q"), ("a", "b"), ("r", "s"), ("u", "w"),
                  ("c", "d"), ("e", "f"), ("g", "h"), ("m", "n"))
_OFFSETS = (0, 1, -1, 2, -2, 3, 0, 1)


@dataclass(frozen=True)
class Input:
    """One generated input file.

    ``expect`` is the closed-form set of stable models (each a sorted tuple
    of (name, value) pairs, Boolean truth as True), or None when the input
    has no closed form; ``ht_count`` likewise for the number of HT models
    listed by ``solve --ht``.
    """

    name: str
    text: str
    why: str
    expect: frozenset | None = None
    ht_count: int | None = None
    small: bool = False


def _decl_int(names, lo, hi):
    return f"#int {', '.join(names)} {lo}..{hi}.\n"


def chain(n: int, hi: int, variant: int) -> Input:
    """chain(n,hi): x0 := lo..lo+hi, and x_i := x_{i-1} for i >= 1.

    Exactly hi+1 stable models, each with all x_i equal.  The (hi+2)^n
    candidates almost all fail at <t,t>, so the time goes to the total-world
    filter.
    """
    x = _INT_PREFIXES[variant]
    lo = _OFFSETS[variant]
    names = [f"{x}{i}" for i in range(n)]
    lines = [_decl_int(names, lo, lo + hi), f"{names[0]} := {lo}..{lo + hi}.\n"]
    for i in range(1, n):
        lines.append(f"{names[i]} := {names[i - 1]} :- {names[i - 1]} >= {lo}.\n")
    expect = frozenset(
        tuple((name, v) for name in sorted(names)) for v in range(lo, lo + hi + 1)
    )
    return Input(
        f"chain_{n}_{hi}_v{variant}", "".join(lines),
        f"chain({n},{hi}): {(hi + 2) ** n} candidates, {hi + 1} total models; "
        "loads the total-world filter",
        expect=expect, small=n <= 3,
    )


def choice(n: int, variant: int) -> Input:
    """choice(n): p_i | not p_i and q_i -> p_i.

    2^n stable models (every subset of the p_i, no q_i), 3^n total models
    and 4^n HT models, so the time goes to the minimality h-loop.
    """
    p, q = _PAIR_PREFIXES[variant]
    ps = [f"{p}{i}" for i in range(n)]
    qs = [f"{q}{i}" for i in range(n)]
    lines = [f"#bool {', '.join(ps + qs)}.\n"]
    lines += [f"{a} | not {a}.\n" for a in ps]
    lines += [f"{b} -> {a}.\n" for a, b in zip(ps, qs)]
    expect = frozenset(
        tuple(sorted((ps[i], True) for i in range(n) if mask >> i & 1))
        for mask in range(1 << n)
    )
    return Input(
        f"choice_{n}_v{variant}", "".join(lines),
        f"choice({n}): {4 ** n} candidates, {3 ** n} total models; "
        "loads the minimality h-loop",
        expect=expect, ht_count=4 ** n, small=n <= 2,
    )


def intchoice(n: int, hi: int, variant: int) -> Input:
    """intchoice(n,hi): x_i := lo..lo+hi for every i.

    Every total model is stable: (hi+1)^n of them, each with 2^n - 1 proper
    h below it that all fail.  HT models are exactly the total models.
    """
    x = _INT_PREFIXES[variant]
    lo = _OFFSETS[variant]
    names = [f"{x}{i}" for i in range(n)]
    lines = [_decl_int(names, lo, lo + hi)]
    lines += [f"{name} := {lo}..{lo + hi}.\n" for name in names]
    expect = set()
    for code in range((hi + 1) ** n):
        vals = []
        for _ in range(n):
            code, r = divmod(code, hi + 1)
            vals.append(lo + r)
        expect.add(tuple(sorted(zip(names, vals))))
    return Input(
        f"intchoice_{n}_{hi}_v{variant}", "".join(lines),
        f"intchoice({n},{hi}): {(hi + 2) ** n} candidates, {(hi + 1) ** n} "
        f"stable models with {2 ** n - 1} proper h each; loads the h-loop",
        expect=frozenset(expect), ht_count=(hi + 1) ** n, small=n <= 2,
    )


def dhead(n: int, variant: int) -> Input:
    """dhead(n): the disjunctive head a_i := lo ; b_i := lo, one per pair.

    2^n stable models (exactly one of a_i, b_i per pair), 3^n total models
    and 5^n HT models: the minimality loop on disjunctive heads.
    """
    a, b = _PAIR_PREFIXES[variant]
    lo = _OFFSETS[variant]
    aa = [f"{a}{i}" for i in range(n)]
    bb = [f"{b}{i}" for i in range(n)]
    lines = [_decl_int(aa + bb, lo, lo)]
    lines += [f"{x} := {lo} ; {y} := {lo}.\n" for x, y in zip(aa, bb)]
    expect = frozenset(
        tuple(sorted((aa[i] if mask >> i & 1 else bb[i], lo) for i in range(n)))
        for mask in range(1 << n)
    )
    return Input(
        f"dhead_{n}_v{variant}", "".join(lines),
        f"dhead({n}): {4 ** n} candidates, {3 ** n} total models, "
        f"{2 ** n} stable; disjunctive heads in the h-loop",
        expect=expect, ht_count=5 ** n, small=n <= 2,
    )


# ---------------------------------------------------------------------------
# One-conditional theories over #int x, y 0..3 and #bool p, q (renamed per variant)

ONECOND_HEADER = "#int x, y 0..3.\n#bool p, q.\n"
# renamings of (p, q, x, y) that keep the names' order
_ONECOND_NAMES = (("p", "q", "x", "y"), ("a", "b", "c", "d"), ("e", "f", "g", "h"),
                  ("b", "c", "m", "n"), ("f", "g", "u", "v"), ("a", "c", "w", "z"),
                  ("h", "k", "r", "s"), ("d", "e", "t", "u"))
_ONECOND_RE = re.compile(r"\b[pqxy]\b")
_VARS = ("x", "y")


def _branch(rng):
    if rng.random() < 0.3:
        return str(rng.randint(0, 3))
    return rng.choice(_VARS)


def _condition(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(("p", "q"))
    if kind == 1:
        return f"not {rng.choice(('p', 'q'))}"
    if kind == 2:
        return f"{rng.choice(_VARS)} {rng.choice(('<=', '>=', '<', '>'))} {rng.randint(0, 3)}"
    if kind == 3:
        return "x = y" if rng.random() < 0.5 else "x != y"
    return f"x + y {rng.choice(('<=', '>='))} {rng.randint(1, 5)}"


def _conditional(rng):
    # one branch is always a variable, so the fresh variable of the delta
    # translation always spans 0..3 and every theory has the same table size
    s, s2 = rng.choice(_VARS), _branch(rng)
    if rng.random() < 0.5:
        s, s2 = s2, s
    return f"({s} | {s2} : {_condition(rng)})"


def _linear(rng):
    if rng.random() < 0.4:
        return str(rng.randint(0, 4))
    coeff = rng.choice(("", "", "2*", "-"))
    return f"{coeff}{rng.choice(_VARS)}"


def _literal(rng):
    atom = rng.choice(("p", "q", f"{rng.choice(_VARS)} <= {rng.randint(0, 3)}",
                       f"{rng.choice(_VARS)} >= {rng.randint(0, 3)}"))
    return f"not {atom}" if rng.random() < 0.3 else atom


def _extra(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return f"{_literal(rng)} -> {_literal(rng)}"
    if kind == 1:
        return f"{rng.choice(_VARS)} := {rng.randint(0, 3)} :- {_literal(rng)}"
    if kind == 2:
        return f"x := {rng.randint(0, 3)} ; y := {rng.randint(0, 3)} :- {_literal(rng)}"
    return f"{rng.choice(('p', 'q'))} | {_literal(rng)}"


def onecond(index: int, variant: int) -> Input:
    """Theory ``index``, with variant ``variant`` of its variable names: a
    theory with exactly one conditional term.

    The main statement carries the term in a comparison: as a fact, negated,
    or on either side of an implication (``index % 4``).  Then come
    ``index // 4`` extra statements without conditional terms.  (A term in
    a rule head would be copied once per head subset by unfolding, and the
    delta translation of the copies goes over the budget.)
    """
    rng = random.Random(f"onecond:{index}")
    tau = _conditional(rng)
    rel = rng.choice(("<=", ">=", "<", ">", "=", "!="))
    carrier = f"{tau} + {_linear(rng)}" if rng.random() < 0.5 else tau
    atom = f"{carrier} {rel} {_linear(rng)}"
    shape, extras = index % 4, index // 4
    if shape == 0:
        main = atom
    elif shape == 1:
        main = f"not {atom}"
    elif shape == 2:
        main = f"{atom} -> {_literal(rng)}"
    else:
        main = f"{_literal(rng)} -> {atom}"
    statements = [main] + [_extra(rng) for _ in range(extras)]
    rename = dict(zip("pqxy", _ONECOND_NAMES[variant]))
    text = _ONECOND_RE.sub(lambda m: rename[m.group()],
                           ONECOND_HEADER + "".join(f"{s}.\n" for s in statements))
    return Input(
        f"onecond_{index}_v{variant}", text,
        "one conditional term over two integers 0..3 and two Booleans: the "
        "delta/unfold transforms and the checker table on a 500-candidate spec",
    )


# ---------------------------------------------------------------------------
# Shipped programs and their README answers

SHIPPED = {
    "tax_toy": [{"lives_p1_r": True, "lives_p2_r": True, "lives_p3_r": True,
                 "region_r": True, "tax_p1": 3, "tax_p2": 4, "total_r": 7}],
    "vicious": [],
    "ycond": [{"y": 5}],
    "ycondp": [{"p": True, "y": 5}],
    "ysum": [{"p": True, "y": 5}],
}


def shipped(name: str, root: str) -> Input:
    with open(f"{root}/programs/{name}.lc", encoding="utf-8") as fh:
        text = fh.read()
    expect = frozenset(tuple(sorted(m.items())) for m in SHIPPED[name])
    return Input(name, text, f"shipped program {name}.lc with its README answer",
                 expect=expect, small=name != "tax_toy")


def pick_variants(seed: int, slots: int) -> list:
    """The variant of each family slot for ``seed``."""
    rng = random.Random(f"variants:{seed}")
    return [rng.randrange(VARIANTS) for _ in range(slots)]


def onecond_project(variant: int) -> str:
    """The ``--project`` argument naming every variable of a variant."""
    return ",".join(_ONECOND_NAMES[variant])
