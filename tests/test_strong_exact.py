"""The exact strong check against the contexts that decide it.

``strong_equivalent`` compares the families F(T) of both model tables.  Here
it is checked against brute force, every context Delta_K over a projection
of at most three variables, and on a seeded corpus over the suite spec:
every exact witness separates the two sides when re-run through the
reference evaluator, and whatever the sampled check of 48 contexts tells
apart, the exact check tells apart too.  The witness test reads no sample,
so it stays when the sampled check goes.
"""

import itertools
import random

from htc.checker import (
    DEFAULT_SUITE_SPEC,
    context_family,
    gen_formula,
    gen_theory_one_conditional,
    strong_equiv_sampled,
    strong_equivalent,
)
from htc.parser import parse_theory
from htc.syntax import (
    BoolAtom,
    Defined,
    DomainSpec,
    Implies,
    LinearExpr,
    Scaled,
    conj,
    disj,
    make_theory,
)
from htc.transforms import eliminate_conditionals

from reference import ref_projected_stable


def every_delta_k(spec, names):
    """Delta_K for every valuation T of ``names`` and every set K of proper
    H below T: one implication per H, from the definedness of H's variables
    to that of one of T's other variables."""

    def d(x):
        return BoolAtom(x) if spec.is_bool(x) else Defined(LinearExpr((Scaled(1, x),)))

    choices = [(None,) + spec.domain_values(x) for x in names]
    for T in itertools.product(*choices):
        dom = [x for x, v in zip(names, T) if v is not None]
        proper = [H for k in range(len(dom)) for H in itertools.combinations(dom, k)]
        for size in range(len(proper) + 1):
            for K in itertools.combinations(proper, size):
                yield tuple(
                    Implies(conj(map(d, H)), disj(d(x) for x in dom if x not in H))
                    for H in K
                )


def separated_by(a, b, names, contexts):
    """Some context of ``contexts`` (or the empty one) gives ``a`` and ``b``
    different stable models projected onto ``names``, by brute force."""
    return any(
        ref_projected_stable(a, names, ctx) != ref_projected_stable(b, names, ctx)
        for ctx in ((), *contexts)
    )


def witness_separates(a, b, names, report):
    return separated_by(a, b, names, [report.witness.context or ()])


SMALL_SPECS = (
    DomainSpec.make({}, ["p", "q", "r"]),
    DomainSpec.make({"x": (0, 1)}, ["p", "q"]),
    DomainSpec.make({"x": (0, 1), "y": (0, 1)}, ["p"]),
)


def small_pairs():
    """(a, b, projection) over specs of at most three variables: classic
    pairs, delta translations and seeded random neighbours."""
    pairs = []
    for a, b, names in (
        ("#bool p, q. p | q.", "#bool p, q. not q -> p. not p -> q.", ("p", "q")),
        ("#bool p, q. p | q.", "#bool p, q. not q -> p. not p -> q.", ("p",)),
        (
            "#int x, y 1..1. not def(y) -> def(x). not def(x) -> def(y).",
            "#int x, y 1..1. def(x) | def(y).",
            ("x", "y"),
        ),
        ("#bool p, q. p -> q.", "#bool p, q. not q -> not p.", ("p", "q")),
        ("#bool p, q. not not p -> p.", "#bool p, q. p | not p.", ("p",)),
    ):
        pairs.append((parse_theory(a), parse_theory(b), names))
    for i in range(6):
        rng = random.Random(81_000_003 + i)
        spec = SMALL_SPECS[2] if i % 2 else DomainSpec.make({"y": (0, 2)}, ["p"])
        thy = gen_theory_one_conditional(rng, spec)
        pairs.append((thy, eliminate_conditionals(thy).theory(), spec.variables()))
    for i in range(30):
        rng = random.Random(82_000_003 + i)
        spec = SMALL_SPECS[i % len(SMALL_SPECS)]
        formulas = [
            gen_formula(rng, spec, depth=2, conditional_budget=[1])
            for _ in range(rng.randint(1, 2))
        ]
        other = list(formulas)
        if rng.random() < 0.5:
            other.pop(rng.randrange(len(other)))
        else:
            other.append(gen_formula(rng, spec, depth=2, conditional_budget=[0]))
        variables = spec.variables()
        names = tuple(x for x in variables if rng.random() < 0.7) or variables[:1]
        pairs.append((make_theory(spec, formulas), make_theory(spec, other), names))
    return pairs


class TestBruteForce:
    def test_exact_verdict_is_what_every_delta_k_says(self):
        verdicts = []
        for a, b, names in small_pairs():
            report = strong_equivalent(a, b, names)
            brute = separated_by(a, b, names, list(every_delta_k(a.spec, names)))
            assert report.equal != brute, (a, b, names)
            if not report.equal:
                assert witness_separates(a, b, names, report), (a, b, names)
            verdicts.append(report.verdict)
        # both directions are exercised
        assert verdicts.count("equal") >= 10 and verdicts.count("different") >= 10


def suite_pairs(n=200, seed=83_000_003):
    """(a, b, projection) over ``DEFAULT_SUITE_SPEC``: one to three random
    formulas, against them with one dropped or one added."""
    spec = DEFAULT_SUITE_SPEC
    variables = spec.variables()
    pairs = []
    for i in range(n):
        rng = random.Random(seed + i)
        formulas = [gen_formula(rng, spec) for _ in range(rng.randint(1, 3))]
        other = list(formulas)
        if rng.random() < 0.5:
            other.pop(rng.randrange(len(other)))
        else:
            other.append(gen_formula(rng, spec))
        names = tuple(x for x in variables if rng.random() < 0.6) or (rng.choice(variables),)
        pairs.append((make_theory(spec, formulas), make_theory(spec, other), names))
    return pairs


class TestExactWitness:
    def test_every_exact_witness_separates_the_sides(self):
        different = 0
        for a, b, names in suite_pairs():
            exact = strong_equivalent(a, b, names)
            if not exact.equal:
                different += 1
                assert witness_separates(a, b, names, exact), (a, b, names)
        assert different > 50, different


class TestAgainstSampling:
    def test_exact_check_finds_every_sampled_difference(self):
        counts = {"sampled": 0, "exact": 0}
        for a, b, names in suite_pairs():
            exact = strong_equivalent(a, b, names)
            sampled = strong_equiv_sampled(
                a, b, names, contexts=context_family(a.spec, names)
            )
            if not sampled.equal:
                counts["sampled"] += 1
                assert not exact.equal, (a, b, names)
            counts["exact"] += not exact.equal
        assert counts["exact"] >= counts["sampled"] > 50
