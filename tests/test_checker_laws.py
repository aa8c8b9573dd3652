"""The checker's verdicts and witnesses, re-checked by a second path.

On seeded pairs over ``DEFAULT_SUITE_SPEC`` and under every non-empty
projection, each witness is re-checked without the table walk that found it:

- an HT witness <h, t> satisfies every statement of exactly one side, by
  the brute-force oracle of ``reference`` on the desugared formulas;
- a stable witness is a projected stable model of exactly one side, by the
  same oracle;
- a strong witness's context, added to both sides, makes
  ``stable_equivalent`` say "different".

The verdicts also obey the laws that tie the three checks together:
HT-equal implies strong-equal under every projection; strong-equal over
all variables is HT-equal; strong-equal over V implies strong-equal over
every W inside V; and strong-equal over V implies stable-equal over V.

The pairs come from the first N seeds of two corpora: four statements of
``test_checker.STATEMENT_POOL`` against a variant, and random formulas
against a variant.  Run as a script, ``python tests/test_checker_laws.py N``
checks the 5N pairs of N seeds (tier-1 takes N = 20) and exits 1 when any
check fails.
"""

import random
import sys

from htc.checker import (
    DEFAULT_SUITE_SPEC,
    equivalent,
    gen_formula,
    stable_equivalent,
    strong_equivalent,
)
from htc.syntax import desugar_theory, make_theory
from htc.transforms import theory_formulas

from test_checker import statement_variants
from reference import projections, ref_sat, ref_stable_models

SPEC = DEFAULT_SUITE_SPEC
NAMES = SPEC.variables()
PROJECTIONS = projections(NAMES)


def law_pairs(n):
    """4n pairs (a, b) of four statements of ``STATEMENT_POOL``, b being a
    itself, a rotated, a with one dropped or a with one added, then n pairs
    of one to three random formulas, b being a rotated, with one dropped or
    with one added."""
    pairs = statement_variants(seed=92_000_003, n=n)
    for i in range(n):
        rng = random.Random(91_000_003 + i)
        formulas = [gen_formula(rng, SPEC) for _ in range(rng.randint(1, 3))]
        k = rng.randrange(len(formulas))
        if i % 3 == 0:
            other = formulas[k + 1 :] + formulas[: k + 1]
        elif i % 3 == 1:
            other = formulas[:k] + formulas[k + 1 :]
        else:
            other = formulas[:k] + [gen_formula(rng, SPEC)] + formulas[k:]
        pairs.append((make_theory(SPEC, formulas), make_theory(SPEC, other)))
    return pairs


def one_side(witness, in_a, in_b) -> bool:
    """The witness's evidence holds on its own side and on no other."""
    return in_a != in_b and in_a == (witness.side == "left-only")


def broken_checks(a, b, counts) -> list:
    """The name of each re-check and law that the pair (a, b) fails.  Adds
    to ``counts`` the witnesses it re-checks, per kind."""
    broken = []
    ht = equivalent(a, b)
    if not ht.equal:
        counts["HT"] += 1
        i = ht.witness.interpretation
        formulas = [theory_formulas(desugar_theory(x)) for x in (a, b)]
        if not one_side(ht.witness, *[all(ref_sat(i.h, i.t, f) for f in fs) for fs in formulas]):
            broken.append("HT witness")
    models = [ref_stable_models(x) for x in (a, b)]
    strong = {}
    for names in PROJECTIONS:
        stable = stable_equivalent(a, b, names)
        if not stable.equal:
            counts["stable"] += 1
            v = stable.witness.valuation
            projected = [{m.project(names) for m in ms} for ms in models]
            if not one_side(stable.witness, *[v in p for p in projected]):
                broken.append(f"stable witness over {names}")
        strong[names] = report = strong_equivalent(a, b, names)
        if not report.equal:
            context = report.witness.context
            counts["strong, with a context"] += context is not None
            extended = [make_theory(SPEC, x.statements + (context or ())) for x in (a, b)]
            if stable_equivalent(*extended, names).equal:
                broken.append(f"strong witness over {names}")
        if ht.equal and not report.equal:
            broken.append(f"HT-equal but strong-different over {names}")
        if report.equal and not stable.equal:
            broken.append(f"strong-equal but stable-different over {names}")
    if strong[NAMES].equal != ht.equal:
        broken.append("strong over all variables is not HT")
    for names, report in strong.items():
        for inner in PROJECTIONS:
            if report.equal and set(inner) < set(names) and not strong[inner].equal:
                broken.append(f"strong-equal over {names} but not over {inner}")
    return broken


def check_pairs(pairs):
    """(failures, counts): pair position -> the checks it fails, for the
    pairs that fail some, and the number of witnesses re-checked per kind."""
    failures = {}
    counts = dict.fromkeys(["HT", "stable", "strong, with a context"], 0)
    for i, (a, b) in enumerate(pairs):
        broken = broken_checks(a, b, counts)
        if broken:
            failures[i] = broken
    return failures, counts


class TestCheckerLaws:
    def test_witnesses_recheck_and_laws_hold(self):
        pairs = law_pairs(20)
        assert {x.spec for pair in pairs for x in pair} == {SPEC}
        failures, counts = check_pairs(pairs)
        assert failures == {}
        # every kind of witness is re-checked, and about half the pairs are
        # HT-equal, so no law holds vacuously
        assert 25 <= counts["HT"] <= 75 and min(counts.values()) >= 10, counts


if __name__ == "__main__":
    pairs = law_pairs(int(sys.argv[1]))
    failures, counts = check_pairs(pairs)
    print(f"{len(failures)} of {len(pairs)} pairs fail a re-check or a law")
    for i, broken in list(failures.items())[:20]:
        print(i, broken)
    print("witnesses re-checked:", counts)
    sys.exit(bool(failures))
