import pathlib

import pytest

from htc.errors import DomainError, FreshNameError
from htc.parser import parse_theory, pretty_print
from htc.syntax import (
    TOP,
    Aggregate,
    AggregateElement,
    And,
    Assignment,
    BoolAtom,
    Comparison,
    Const,
    ConditionalTerm,
    Defined,
    DomainSpec,
    FreshNames,
    Implies,
    LCRule,
    LinearExpr,
    Not,
    Scaled,
    Theory,
    const_expr,
    desugar_aggregates,
    desugar_comparisons,
    desugar_count,
    desugar_minmax,
    desugar_sum,
    desugar_theory,
    free_vars,
    le,
    make_theory,
    nodes,
    var_expr,
)
from htc.transforms import eliminate_conditionals

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

SPEC = DomainSpec.make({"x": (0, 9), "y": (0, 9)}, ["p"])


def atom(lhs, rel, rhs):
    return Comparison(lhs, rel, rhs)


class TestDomainSpec:
    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            DomainSpec.make({"x": (3, 1)})

    def test_int_bool_disjoint(self):
        with pytest.raises(DomainError):
            DomainSpec.make({"x": (0, 1)}, ["x"])

    def test_interpretation_count(self):
        spec = DomainSpec.make({"x": (0, 1)}, ["p"])
        # per int var with 2 values: 2*2+1 pairs; per bool: 3
        assert spec.interpretation_count() == 5 * 3

    def test_variables_sorted(self):
        assert SPEC.variables() == ("p", "x", "y")


class TestTermInvariants:
    def test_zero_coefficient_is_kept_distinct(self):
        assert Scaled(0, "x") != Const(0)

    def test_nested_conditional_rejected(self):
        inner = ConditionalTerm(Const(1), Const(0), BoolAtom("p"))
        cond_with_nested = atom(LinearExpr((inner,)), "<=", const_expr(1))
        with pytest.raises(ValueError):
            ConditionalTerm(Const(1), Const(0), cond_with_nested)

    def test_aggregate_inside_condition_rejected(self):
        agg = Aggregate("sum", (AggregateElement(Scaled(1, "x"), TOP),))
        cond = atom(LinearExpr((agg,)), "<=", const_expr(1))
        with pytest.raises(ValueError):
            ConditionalTerm(Const(1), Const(0), cond)

    def test_empty_expression_rejected(self):
        with pytest.raises(ValueError):
            LinearExpr(())

    def test_bool_masquerading_as_int_rejected(self):
        with pytest.raises(TypeError):
            Const(True)


class TestTheoryValidation:
    def test_undeclared_variable(self):
        with pytest.raises(DomainError):
            make_theory(SPEC, [le(var_expr("z"), const_expr(1))])

    def test_non_boolean_atom(self):
        with pytest.raises(DomainError):
            make_theory(SPEC, [BoolAtom("x")])

    def test_assignment_target_must_be_int(self):
        rule = LCRule((Assignment("p", const_expr(1), const_expr(1)),))
        with pytest.raises(DomainError):
            make_theory(SPEC, [rule])


class TestDesugarComparisons:
    def test_def_becomes_self_comparison(self):
        x = var_expr("x")
        assert desugar_comparisons(Defined(x)) == le(x, x)

    def test_equality(self):
        x, y = var_expr("x"), var_expr("y")
        assert desugar_comparisons(atom(x, "=", y)) == And(le(x, y), le(y, x))

    def test_ge_mirrors(self):
        x, y = var_expr("x"), var_expr("y")
        assert desugar_comparisons(atom(x, ">=", y)) == le(y, x)

    def test_lt(self):
        x, y = var_expr("x"), var_expr("y")
        assert desugar_comparisons(atom(x, "<", y)) == And(le(x, y), Not(le(y, x)))

    def test_neq_requires_both_defined(self):
        x, y = var_expr("x"), var_expr("y")
        got = desugar_comparisons(atom(x, "!=", y))
        lt = And(le(x, y), Not(le(y, x)))
        gt = And(le(y, x), Not(le(x, y)))
        assert got == type(got)(lt, gt)  # Or of the two strict orders

    def test_recurses_into_conditions(self):
        tau = ConditionalTerm(Scaled(1, "y"), Const(3), Defined(var_expr("x")))
        phi = atom(LinearExpr((tau,)), "<=", const_expr(4))
        out = desugar_comparisons(phi)
        cond = out.lhs.items[0].condition
        assert cond == le(var_expr("x"), var_expr("x"))

    def test_idempotent(self):
        phi = atom(var_expr("x"), "!=", var_expr("y"))
        once = desugar_comparisons(phi)
        assert desugar_comparisons(once) == once


class TestDesugarSum:
    def test_elements_become_guarded_conditionals(self):
        agg = Aggregate("sum", (AggregateElement(Scaled(1, "x"), BoolAtom("p")),))
        out = desugar_sum(agg)
        (theta,) = out.items
        assert theta.then_term == Scaled(1, "x")
        assert theta.else_term == Const(0)
        assert theta.condition == And(BoolAtom("p"), Defined(var_expr("x")))

    def test_true_condition_collapses_to_def(self):
        agg = Aggregate(
            "sum",
            (
                AggregateElement(Scaled(1, "x"), TOP),
                AggregateElement(Scaled(1, "y"), TOP),
            ),
        )
        out = desugar_sum(agg)
        assert [t.condition for t in out.items] == [
            Defined(var_expr("x")),
            Defined(var_expr("y")),
        ]

    def test_empty_sum_is_zero(self):
        assert desugar_sum(Aggregate("sum", ())) == const_expr(0)


class TestDesugarCount:
    def test_elements_get_unit_terms(self):
        agg = Aggregate(
            "count",
            (
                AggregateElement(Const(1), BoolAtom("p")),
                AggregateElement(Const(1), Defined(var_expr("x"))),
            ),
        )
        out = desugar_count(agg)
        assert out.func == "sum"
        assert all(el.term == Const(1) for el in out.elements)
        assert [el.condition for el in out.elements] == [
            BoolAtom("p"),
            Defined(var_expr("x")),
        ]

    def test_empty_count(self):
        out = desugar_count(Aggregate("count", ()))
        assert out == Aggregate("sum", ())


class TestDesugarMinMax:
    def test_min_side_formulas_shape(self):
        agg = Aggregate(
            "min",
            (
                AggregateElement(Scaled(1, "x"), TOP),
                AggregateElement(Scaled(1, "y"), TOP),
            ),
        )
        name, side = desugar_minmax(agg, FreshNames(SPEC.variables()))
        assert name == "__min0"
        assert len(side) == 3
        # definedness is a biconditional with a nonempty-count atom
        fwd, bwd, bounds = side
        assert isinstance(fwd, Implies) and isinstance(bwd, Implies)
        assert fwd.lhs == Defined(var_expr(name)) == bwd.rhs
        assert isinstance(bounds.rhs, And)
        # the counts are already sums of conditional terms
        assert not any(isinstance(n, Aggregate) for f in side for n in nodes(f))

    def test_fresh_collision(self):
        agg = Aggregate("max", (AggregateElement(Scaled(1, "x"), TOP),))
        supply = FreshNames(SPEC.variables() + ("__max0",))
        with pytest.raises(FreshNameError):
            desugar_minmax(agg, supply)

    def test_one_fresh_variable_per_occurrence(self):
        agg = Aggregate("min", (AggregateElement(Scaled(1, "x"), TOP),))
        expr = LinearExpr((agg, agg))
        thy = make_theory(SPEC, [Comparison(expr, "<=", const_expr(9))])
        out = desugar_theory(thy)
        assert out.spec.is_int("__min0") and out.spec.is_int("__min1")


class TestFreeVars:
    def test_conditional_atom(self):
        tau = ConditionalTerm(Scaled(1, "y"), Const(3), BoolAtom("p"))
        phi = atom(
            LinearExpr((Scaled(1, "x"), tau)), "<=", const_expr(4)
        )
        assert free_vars(phi) == {"x", "y", "p"}

    def test_top_has_no_vars(self):
        assert free_vars(TOP) == set()

    def test_desugared_sum(self):
        agg = Aggregate("sum", (AggregateElement(Scaled(1, "x"), BoolAtom("p")),))
        phi = Comparison(LinearExpr((agg,)), ">", const_expr(1))
        core = desugar_theory(make_theory(SPEC, [phi])).statements[0]
        assert free_vars(core) == {"x", "p"}

    def test_rule_collects_target(self):
        rule = LCRule((Assignment("x", var_expr("y"), var_expr("y")),))
        assert free_vars(rule) == {"x", "y"}


class TestFullDesugar:
    def test_only_core_atoms_remain(self):
        from htc.syntax import is_core

        agg = Aggregate(
            "min",
            (AggregateElement(Scaled(1, "x"), BoolAtom("p")),),
        )
        phi = Comparison(LinearExpr((agg,)), "!=", var_expr("y"))
        out = desugar_theory(make_theory(SPEC, [phi]))
        assert is_core(out)

    def test_idempotent(self):
        agg = Aggregate("sum", (AggregateElement(Scaled(1, "x"), BoolAtom("p")),))
        phi = Comparison(LinearExpr((agg,)), ">", const_expr(1))
        once = desugar_theory(make_theory(SPEC, [phi]))
        assert desugar_theory(once) == once

    def test_min_max_idempotent_and_classifies(self):
        agg = Aggregate("max", (AggregateElement(Scaled(1, "x"), TOP),))
        phi = Comparison(LinearExpr((agg,)), ">=", const_expr(0))
        once = desugar_theory(make_theory(SPEC, [phi]))
        assert desugar_theory(once) == once
        assert isinstance(once, Theory)

    def test_aggregate_free_theory_is_returned_as_it_is(self):
        thy = make_theory(SPEC, [atom(var_expr("x"), "<", var_expr("y")), BoolAtom("p")])
        assert desugar_aggregates(thy) is thy


class TestFreshNames:
    def test_monotone_per_family(self):
        supply = FreshNames()
        assert supply.fresh("c") == "__c0"
        assert supply.fresh("c") == "__c1"
        assert supply.fresh("min") == "__min0"

    def test_collision_raises(self):
        supply = FreshNames(["__c0"])
        with pytest.raises(FreshNameError):
            supply.fresh("c")


class TestMoreDesugarExamples:
    def test_count_of_true_is_unit_sum(self):
        agg = Aggregate("count", (AggregateElement(Const(1), TOP),))
        out = desugar_count(agg)
        assert out == Aggregate("sum", (AggregateElement(Const(1), TOP),))

    def test_comparisons_introduce_no_new_variables(self):
        import random

        from htc.checker import gen_formula

        spec = DomainSpec.make({"x": (0, 2), "y": (0, 2)}, ["p"])
        for i in range(40):
            rng = random.Random(22_000_003 + i)
            phi = gen_formula(rng, spec)
            assert free_vars(desugar_comparisons(phi)) == free_vars(phi)


class TestFreshNameOrder:
    """Fresh names are numbered in visiting order, pinned on one program with
    min, max, sum and count aggregates and conditional terms in assignment
    bounds, positive and negative bodies and plain formulas."""

    def theory(self):
        return parse_theory((GOLDEN / "fresh_names.lc").read_text())

    def test_desugar(self):
        expected = (GOLDEN / "fresh_names.desugar.lc").read_text()
        assert pretty_print(desugar_theory(self.theory())) == expected

    def test_delta(self):
        result = eliminate_conditionals(self.theory(), budget=10**40)
        assert pretty_print(result.theory()) == (GOLDEN / "fresh_names.delta.lc").read_text()
        mapping = "".join(
            f"{name} {pretty_print(LinearExpr((term,)))}\n" for term, name in result.mapping
        )
        assert mapping == (GOLDEN / "fresh_names.mapping.txt").read_text()
        assert [name for _, name in result.mapping] == [f"__c{k}" for k in range(23)]


class TestValidation:
    @pytest.mark.parametrize(
        "condition",
        [
            LCRule((), (BoolAtom("p"),), ()),
            Assignment("x", const_expr(1), const_expr(1)),
            Theory(DomainSpec.make(bools=["p"]), (BoolAtom("p"),)),
        ],
    )
    def test_condition_must_be_a_formula(self, condition):
        with pytest.raises(TypeError):
            ConditionalTerm(Const(1), Const(0), condition)

    def test_undeclared_variables_reported_first(self):
        spec = DomainSpec.make({"x": (0, 1)})
        with pytest.raises(DomainError, match="undeclared variables: z"):
            make_theory(spec, [le(var_expr("x"), var_expr("z")), BoolAtom("x")])
