"""The benchmark's workloads: operations, their inputs and their output checks.

An operation is one ``htc`` command line.  File arguments are written as
``@name`` and resolved to generated files at run time; an operation with
``save`` writes its stdout to that file for later operations (the translate
outputs that ``check`` compares against).  Every operation gets
``--jobs <jobs>`` appended, which the frozen digests ignore: stdout must be
byte-identical for every ``--jobs`` value.

The workloads run at ``--jobs 1``.  A ``--jobs 2`` twin of solve-dense was
measured and dropped: on a shared two-core machine its run-to-run spread was
about 1.5 times that of the serial workloads.  The traced run times every
workload once more at ``--jobs 2`` for the pool metrics instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import inputs as gen

WORKLOADS = ("solve-sparse", "solve-dense", "check")

# Every operation takes well under half a second.  Contention on a shared
# machine comes in phases of a few seconds, so the best of many short samples
# is steady where a sample that spans a whole phase is not.
# chain(n, hi): (hi+2)^n candidates, hi+1 total models each.  Many sizes,
# so that the per-operation times have a tail of ten operations.
SPARSE_CHAINS = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                 (3, 4), (3, 5), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (5, 1),
                 (5, 2), (5, 3), (5, 4), (5, 5), (6, 1), (6, 2), (6, 3), (7, 1),
                 (7, 2), (8, 1))
# (family, size, also run solve --ht); the HT listing of the largest inputs
# takes 0.7 s and more, so they run solve only
DENSE = (
    [(gen.choice, (n,), True) for n in (1, 2, 3, 4)]
    + [(gen.choice, (n,), False) for n in (5, 6)]
    + [(gen.intchoice, s, True) for s in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 4), (4, 1),
                                         (4, 2), (4, 3), (5, 1), (5, 2), (6, 1))]
    + [(gen.dhead, (n,), True) for n in (1, 2, 3, 4)]
    + [(gen.dhead, (5,), False)]
)
CHECK_SHIPPED = ("vicious", "ycond", "ycondp", "ysum")
# ysum's strong check alone takes about 9 s (583,443 interpretations in its
# translated table), three times a whole pass, so it gets the HT check only
STRONG_SKIP = ("ysum",)
SHIPPED_PROJECT = {"vicious": "x", "ycond": "y", "ycondp": "p,y", "ysum": "p,x,y"}
PROPS_SEED = 7
PROPS_COUNT = 10
PROPS_SUITES = ("persistence", "negation", "term-persistence", "denotation-laws",
                "supportedness", "unfolding", "delta-faithfulness")
SMALL_SUITES = ("persistence", "negation")


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    check: str  # solve | ht | translate | verdict | props | refused
    input: str | None = None  # the input whose closed form the check uses
    save: str | None = None
    small: bool = False


def build(workload: str, seed: int, root: str, small: bool = False, variant=None):
    """Inputs (name -> Input) and operations of one pass of ``workload``.

    ``variant``, when given, replaces the seeded choice of variants for every
    slot (the digest freezer uses it).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "solve-sparse":
        inputs, ops = _sparse(seed, root, variant)
    elif workload == "check":
        inputs, ops = _check(seed, root, variant)
    else:
        inputs, ops = _dense(seed, variant)
    if small:
        ops = [op for op in ops if op.small]
    return inputs, ops


def _variant_list(seed, slots, variant):
    return gen.pick_variants(seed, slots) if variant is None else [variant] * slots


def _sparse(seed, root, variant):
    inputs, ops = {}, []
    for name in gen.SHIPPED:
        inp = gen.shipped(name, root)
        inputs[inp.name] = inp
        ops.append(Op(f"solve {name}", ("solve", f"@{name}"), "solve", name,
                      small=inp.small))
    for (n, hi), v in zip(SPARSE_CHAINS, _variant_list(seed, len(SPARSE_CHAINS), variant)):
        inp = gen.chain(n, hi, v)
        inputs[inp.name] = inp
        ops.append(Op(f"solve {inp.name}", ("solve", f"@{inp.name}"), "solve",
                      inp.name, small=inp.small))
    return inputs, ops


def _dense(seed, variant):
    inputs, ops = {}, []
    for (make, size, ht), v in zip(DENSE, _variant_list(seed, len(DENSE), variant)):
        inp = make(*size, v)
        inputs[inp.name] = inp
        ops.append(Op(f"solve {inp.name}", ("solve", f"@{inp.name}"), "solve",
                      inp.name, small=inp.small))
        if ht:
            ops.append(Op(f"solve --ht {inp.name}", ("solve", f"@{inp.name}", "--ht"),
                          "ht", inp.name, small=inp.small))
    return inputs, ops


def _check(seed, root, variant):
    inputs, ops = {}, []
    theories = [(gen.shipped(name, root), SHIPPED_PROJECT[name]) for name in CHECK_SHIPPED]
    picks = _variant_list(seed, gen.ONECOND_COUNT, variant)
    theories += [(gen.onecond(i, v), gen.onecond_project(v)) for i, v in enumerate(picks)]
    for inp, project in theories:
        inputs[inp.name] = inp
        a = inp.name
        unf, dlt = f"{a}.unfold", f"{a}.delta"
        ops += [
            Op(f"translate --pass {name} {a}", ("translate", f"@{a}", "--pass", name),
               "translate", a, save=save, small=inp.small)
            for name, save in (("all", None), ("unfold", unf), ("delta", dlt))
        ]
        ops.append(Op(f"check {a} {unf}", ("check", f"@{a}", f"@{unf}"), "verdict", a,
                      small=inp.small))
        if a not in STRONG_SKIP:
            ops.append(Op(
                f"check --strong {a} {dlt}",
                ("check", f"@{a}", f"@{dlt}", "--stable", "--project", project, "--strong"),
                "verdict", a, small=inp.small,
            ))
    for suite in PROPS_SUITES:
        ops.append(Op(
            f"props {suite}",
            ("props", "--suite", suite, "--seed", str(PROPS_SEED), "--count", str(PROPS_COUNT)),
            "props", small=suite in SMALL_SUITES,
        ))
    tax = gen.shipped("tax_toy", root)
    inputs[tax.name] = tax
    ops.append(Op("translate --pass all tax_toy (budget refusal)",
                  ("translate", "@tax_toy", "--pass", "all"), "refused", small=True))
    return inputs, ops


# ---------------------------------------------------------------------------
# Output checks


def digest_key(op: Op, contents: dict) -> str:
    """Key of an operation's frozen digest: its argv with file arguments
    replaced by a hash of their bytes, without ``--jobs``."""
    parts = []
    for arg in op.argv:
        if arg.startswith("@"):
            arg = "sha256:" + hashlib.sha256(contents[arg[1:]].encode()).hexdigest()[:20]
        parts.append(arg)
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:24]


def digest_value(rc: int, stdout: str) -> str:
    return f"{rc}:{hashlib.sha256(stdout.encode()).hexdigest()[:24]}"


def _models(doc, key):
    return {tuple(sorted(m.items())) for m in doc[key]}


def check_output(op: Op, inp, rc: int, stdout: str):
    """None when the output is the expected answer, else the reason it is not."""
    if op.check == "refused":
        return None if rc == 2 and stdout == "" else f"expected exit 2, got {rc}"
    if rc != 0:
        return f"exit code {rc}"
    if op.check == "translate":
        return None if stdout.strip() else "empty translation"
    doc = json.loads(stdout)
    if op.check == "solve":
        got = doc["stable_models"]
        if len(got) != len(_models(doc, "stable_models")):
            return "duplicate stable models"
        if inp.expect is not None and _models(doc, "stable_models") != inp.expect:
            return f"{len(got)} stable models, expected {len(inp.expect)} (closed form)"
        return None
    if op.check == "ht":
        got = doc["ht_models"]
        if inp.ht_count is not None and len(got) != inp.ht_count:
            return f"{len(got)} HT models, expected {inp.ht_count} (closed form)"
        totals = {tuple(sorted(m["t"].items())) for m in got if m["h"] == m["t"]}
        if inp.expect is not None and not inp.expect <= totals:
            return "a stable model is missing from the HT listing"
        return None
    if op.check == "verdict":
        verdict = doc["report"]["verdict"]
        return None if verdict == "equal" else f"verdict {verdict!r}"
    if op.check == "props":
        n = doc["report"]["violations"]
        return None if n == 0 else f"{n} violations"
    raise ValueError(f"unknown check {op.check!r}")
