"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; the whole module is golden examples plus seeded property checks and
finishes in well under a minute.
"""

import random
from functools import wraps

from htc.checker import (
    DEFAULT_SUITE_SPEC,
    equivalent,
    gen_assignment,
    run_property_suite,
)
from htc.parser import parse_theory
from htc.semantics import (
    Interpretation,
    Valuation,
    satisfies,
    stable_models,
)
from htc.syntax import (
    TOP,
    TRUE,
    Aggregate,
    AggregateElement,
    And,
    Assignment,
    ConditionalTerm,
    DomainSpec,
    FreshNames,
    LCRule,
    LinearExpr,
    Not,
    Scaled,
    const_expr,
    desugar_comparisons,
    desugar_minmax,
    desugar_theory,
    make_theory,
)
from htc.transforms import (
    assignment_formula,
    def_of,
    eliminate_conditionals,
    phi,
    theory_formulas,
)


def criterion(num, description):
    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {description}")
                raise
            print(f"[criterion {num:02d}] PASS  {description}")

        return wrapper

    return decorate


def val(**kw):
    return Valuation({k: (TRUE if v is True else v) for k, v in kw.items()})


@criterion(1, "unique stable model of the guarded-sum theory")
def test_criterion_01():
    thy = parse_theory(
        "#int x, y 0..9. #bool p.\n"
        "y = 5.\n"
        "sum{ x ; y } > 1 -> p.\n"
    )
    assert stable_models(thy) == [val(p=True, y=5)]


@criterion(2, "conditional equality and its variable-for-term translation")
def test_criterion_02():
    thy = parse_theory("#int y 0..9. (y | 0 : #true) = 5.")
    assert stable_models(thy) == [val(y=5)]
    result = eliminate_conditionals(thy)
    (pair,) = result.mapping
    fresh = pair[1]
    translated = stable_models(result.theory())
    assert translated == [Valuation({fresh: 5, "y": 5})]
    assert [m.project(("y",)) for m in translated] == [val(y=5)]


@criterion(3, "totality guard is needed and restores projected equality")
def test_criterion_03():
    thy = parse_theory("#int y 0..9. #bool p. (y | y : p) = 5. #false :- not p.")
    assert stable_models(thy) == [val(p=True, y=5)]
    result = eliminate_conditionals(thy)
    fresh = result.mapping[0][1]
    h_spurious = Valuation({"y": 5, fresh: 5})
    t_spurious = Valuation({"y": 5, fresh: 5, "p": TRUE})
    interp = Interpretation(h_spurious, t_spurious)
    without_guard = make_theory(result.rewritten.spec, result.rewritten.statements + result.side[:4])
    assert all(satisfies(interp, f) for f in theory_formulas(without_guard))
    assert not satisfies(interp, result.side[4])
    projected = {m.project(("p", "y")) for m in stable_models(result.theory())}
    assert projected == {val(p=True, y=5)}


@criterion(4, "self-dependent assignment has no stable model")
def test_criterion_04():
    thy = parse_theory("#int x 0..9. x := 1 :- sum{ x : #true } >= 0.")
    assert stable_models(thy) == []


@criterion(5, "conditional difference constraint flips with the condition")
def test_criterion_05():
    thy = parse_theory("#int x, y 0..9. #bool p. x - (y|3:p) <= 4.")
    atom = desugar_theory(thy).statements[0]
    t = val(x=7, y=0)
    t_prime = val(x=7, y=0, p=True)
    assert satisfies(Interpretation(t, t), atom) is True
    assert satisfies(Interpretation(t_prime, t_prime), atom) is False


@criterion(6, "rule unfolding preserves HT models on 200 seeded rules")
def test_criterion_06():
    report = run_property_suite("unfolding", seed=106, count=200)
    assert report.violations == 0, report.counterexample


@criterion(7, "variable-for-term translation is strongly faithful on 100 theories")
def test_criterion_07():
    report = run_property_suite("delta-faithfulness", seed=107, count=100)
    assert report.violations == 0, report.counterexample


@criterion(8, "persistence and the negation law on 200 formulas each")
def test_criterion_08():
    for suite in ("persistence", "negation"):
        report = run_property_suite(suite, seed=108, count=200)
        assert report.violations == 0, (suite, report.counterexample)


@criterion(9, "stable models of 100 seeded programs are supported")
def test_criterion_09():
    report = run_property_suite("supportedness", seed=109, count=100)
    assert report.violations == 0, report.counterexample


@criterion(10, "denotation laws 1-5 over corpus atoms and all valuations")
def test_criterion_10():
    report = run_property_suite("denotation-laws", seed=110, count=100)
    assert report.violations == 0, report.counterexample


def _minmax_model(func, values, interval=(-3, 3)):
    """Stable model of the defining formulas plus one fact per defined element."""
    names = [f"e{i}" for i in range(len(values))]
    spec = DomainSpec.make({n: interval for n in names})
    agg = Aggregate(func, tuple(AggregateElement(Scaled(1, n), TOP) for n in names))
    fresh_name, side = desugar_minmax(agg, FreshNames(spec.variables()))
    spec = spec.with_int_var(fresh_name, *interval)
    statements = [
        LCRule((Assignment(n, const_expr(v), const_expr(v)),))
        for n, v in zip(names, values)
        if v is not None
    ]
    thy = make_theory(spec, statements + list(side))
    models = stable_models(thy)
    assert len(models) == 1, (func, values, models)
    model = models[0]
    for n, v in zip(names, values):
        assert model.get(n) == v
    return model.get(fresh_name)


@criterion(11, "aggregate extrema match the brute-force multiset extrema")
def test_criterion_11():
    options = [None, -3, -1, 0, 2, 3]
    cases = [(a, b) for a in options for b in options]
    rng = random.Random(111)
    for _ in range(25):
        cases.append(tuple(rng.choice([None] + list(range(-3, 4))) for _ in range(3)))
    for values in cases:
        defined = [v for v in values if v is not None]
        for func, oracle in (("min", min), ("max", max)):
            got = _minmax_model(func, values)
            expected = oracle(defined) if defined else None
            assert got == expected, (func, values, got, expected)


@criterion(12, "directional and non-directional assignments agree on 50 samples")
def test_criterion_12():
    spec = DEFAULT_SUITE_SPEC
    for i in range(50):
        rng = random.Random(112_000_003 + i)
        raw = gen_assignment(rng, spec)
        a = Assignment(raw.target, _core(raw.lower), _core(raw.upper))
        with_def = make_theory(spec, [And(assignment_formula(a), def_of(a))])
        nondirectional = make_theory(spec, [phi(a)])
        assert equivalent(with_def, nondirectional).equal, i
        negated = make_theory(spec, [Not(assignment_formula(a))])
        negated_phi = make_theory(spec, [Not(phi(a))])
        assert equivalent(negated, negated_phi).equal, i


def _core(e: LinearExpr) -> LinearExpr:
    items = []
    for item in e.items:
        if isinstance(item, ConditionalTerm):
            items.append(
                ConditionalTerm(
                    item.then_term, item.else_term, desugar_comparisons(item.condition)
                )
            )
        else:
            items.append(item)
    return LinearExpr(tuple(items))
