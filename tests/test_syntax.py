import pathlib
import pickle

import pytest

from htc.errors import DomainError, FreshNameError
from htc.parser import parse_theory, pretty_print
from htc.checker import EquivReport, SuiteReport, Witness
from htc.semantics import Interpretation, Valuation
from htc.syntax import (
    BOT,
    TOP,
    TRUE,
    U,
    Aggregate,
    AggregateElement,
    And,
    Assignment,
    BoolAtom,
    Bot,
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
    Or,
    Scaled,
    Theory,
    Truth,
    Undefined,
    _Constant,
    _Value,
    const_expr,
    desugar_aggregates,
    desugar_comparisons,
    desugar_count,
    desugar_minmax,
    desugar_sum,
    desugar_theory,
    free_vars,
    le,
    linear_term_range,
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

    # "x\n" would print as "#int x\n 0..1." and a keyword as text the parser refuses
    @pytest.mark.parametrize("name", ["x\n", "not", "def", "sum", "count", "min", "max"])
    def test_names_the_printer_cannot_round_trip_are_rejected(self, name):
        with pytest.raises(DomainError, match="bad variable name"):
            DomainSpec.make({name: (0, 1)})
        with pytest.raises(DomainError, match="bad variable name"):
            DomainSpec.make({}, [name])

    def test_interpretation_count(self):
        spec = DomainSpec.make({"x": (0, 1)}, ["p"])
        # per int var with 2 values: 2*2+1 pairs; per bool: 3
        assert spec.interpretation_count() == 5 * 3

    def test_variables_sorted(self):
        assert SPEC.variables() == ("p", "x", "y")

    def test_given_order_does_not_matter(self):
        # a spec keeps its variables sorted by name however they come
        from htc.checker import equivalent

        given = DomainSpec((("y", 0, 1), ("x", 0, 1)), ("q", "p"))
        made = DomainSpec.make({"x": (0, 1), "y": (0, 1)}, ["p", "q"])
        assert given == made and hash(given) == hash(made)
        thy = parse_theory("#int x, y 0..1. #bool p, q. x <= y.")
        assert equivalent(thy, make_theory(given, thy.statements)).verdict == "equal"
        assert pretty_print(make_theory(given, ())).startswith("#int x 0..1.\n#int y")
        listed = DomainSpec([("y", 0, 1), ("x", 0, 1)])
        assert hash(listed) == hash(DomainSpec.make({"x": (0, 1), "y": (0, 1)}))
        with pytest.raises(TypeError, match="interval bound must be an int"):
            DomainSpec((("y", 0, 1), ("x", "0", 1)))


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

    @pytest.mark.parametrize(
        "then_, else_, message",
        [
            (U, Const(0), "then_term must be a linear term, got u"),
            (Const(1), Aggregate("count", ()), "else_term must be a linear term"),
        ],
    )
    def test_conditional_branches_must_be_linear_terms(self, then_, else_, message):
        # so every branch of a conditional term has a term code: a constant
        # or a scaled variable, never U
        with pytest.raises(TypeError, match=message):
            ConditionalTerm(then_, else_, TOP)

    def test_aggregate_element_invariants(self):
        for term in (U, ConditionalTerm(Const(1), Const(0), TOP)):
            with pytest.raises(TypeError, match="element term must be a linear term"):
                AggregateElement(term, TOP)
        nested = le(LinearExpr((ConditionalTerm(Const(1), Const(0), TOP),)), const_expr(1))
        with pytest.raises(ValueError, match="element conditions must be condition-free"):
            AggregateElement(Const(1), nested)

    def test_aggregate_invariants(self):
        with pytest.raises(ValueError, match="unknown aggregate function 'avg'"):
            Aggregate("avg", ())
        for term in (Const(2), Scaled(1, "x")):
            with pytest.raises(ValueError, match="count elements carry the implicit term 1"):
                Aggregate("count", (AggregateElement(term, TOP),))

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

    def test_recurses_into_aggregate_elements(self):
        # the aggregate stays; its element conditions are expanded
        def statement(text):
            return parse_theory("#int x 0..3. " + text).statements[0]

        got = desugar_comparisons(statement("sum{x : x < 2} <= 3."))
        assert got == statement("sum{x : x <= 2 & not 2 <= x} <= 3.")

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


class TestGuards:
    """Inputs each function refuses, with the message it gives."""

    def test_a_boolean_has_no_interval(self):
        with pytest.raises(DomainError, match="^p is not a declared integer variable$"):
            SPEC.interval("p")

    def test_unknown_relation(self):
        with pytest.raises(ValueError, match="^unknown relation '<>'$"):
            Comparison(var_expr("x"), "<>", var_expr("x"))

    def test_unknown_name_family(self):
        with pytest.raises(ValueError, match="^unknown name family 'd'$"):
            FreshNames().fresh("d")

    def test_each_aggregate_desugarer_takes_its_own_function(self):
        agg = Aggregate("min", (AggregateElement(Const(1), TOP),))
        with pytest.raises(ValueError, match="^desugar_sum expects a sum aggregate$"):
            desugar_sum(agg)
        with pytest.raises(ValueError, match="^desugar_count expects a count aggregate$"):
            desugar_count(agg)
        for func in ("sum", "count"):
            with pytest.raises(
                ValueError, match="^desugar_minmax expects a min or max aggregate$"
            ):
                desugar_minmax(Aggregate(func, ()), FreshNames())

    def test_undefined_is_not_a_linear_term(self):
        with pytest.raises(TypeError, match="^not a linear term: u$"):
            linear_term_range(U, SPEC)


def _values():
    """One value of each class: every syntax node, a spec, a theory, a
    valuation, an interpretation, a delta result and each report."""
    cond = ConditionalTerm(Const(2), Scaled(-1, "y"), BoolAtom("p"))
    element = AggregateElement(Const(1), Defined(var_expr("x")))
    assign = Assignment("x", const_expr(0), var_expr("y"))
    rule = LCRule((assign,), (BoolAtom("p"),), (Not(BOT),))
    thy = make_theory(SPEC, [le(LinearExpr((cond, Scaled(3, "x"))), const_expr(4)), rule])
    t = Valuation({"p": TRUE, "x": 1})
    ht = Interpretation(Valuation({"x": 1}), t)
    witness = Witness("left-only", ht, t, (Or(BoolAtom("p"), TOP),))
    return [
        *(TRUE, U, BOT, Const(-3), Scaled(0, "x"), cond, element, Aggregate("count", (element,))),
        *(var_expr("y"), atom(var_expr("x"), "!=", const_expr(1)), Defined(const_expr(1))),
        *(BoolAtom("p"), And(BoolAtom("p"), BOT), Or(BOT, BOT), TOP, assign, rule, SPEC, thy),
        *(t, ht, eliminate_conditionals(thy), witness, EquivReport("equal")),
        *(EquivReport("different", witness, ("x",)), SuiteReport("s", 3, 10, 4, 1, {"item": 3})),
    ]


class TestValues:
    """Nodes, specs, theories, interpretations and reports are immutable
    values: equal and hashed field by field within one class, and the same
    after a pickle round trip; TRUE, U and BOT are singletons."""

    def test_every_value_class_is_covered(self):
        def public(base):  # every subclass, at any depth, but the private bases
            for cls in base.__subclasses__():
                yield from public(cls)
                if not cls.__name__.startswith("_"):
                    yield cls

        assert {Truth, Undefined, Bot} == set(public(_Constant))
        assert set(public(_Value)) | set(public(_Constant)) == set(map(type, _values()))

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for value in _values():
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value and repr(back) == repr(value)
        for single in (TRUE, U, BOT):
            assert pickle.loads(pickle.dumps(single, protocol)) is single

    def test_fields_can_be_neither_assigned_nor_deleted(self):
        for value in _values():
            name = getattr(value, "_fields", ("anything",))[0]
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)

    def test_repr(self):
        cmp = Comparison(
            LinearExpr((Scaled(2, "x"), ConditionalTerm(Const(1), Const(0), BoolAtom("p")))),
            ">=",
            const_expr(-3),
        )
        assert repr(cmp) == (
            "Comparison(lhs=LinearExpr(items=(Scaled(coeff=2, var='x'), "
            "ConditionalTerm(then_term=Const(value=1), else_term=Const(value=0), "
            "condition=BoolAtom(name='p')))), rel='>=', "
            "rhs=LinearExpr(items=(Const(value=-3),)))"
        )
        assert [repr(TRUE), repr(U), repr(BOT)] == ["t", "u", "Bot()"]

    def test_equality_and_hash_go_by_class_and_fields(self):
        a, b = BoolAtom("p"), le(var_expr("x"), const_expr(1))
        assert And(a, b) != Or(a, b) and And(a, b) != Implies(a, b)
        assert And(a, b) == And(BoolAtom("p"), le(var_expr("x"), const_expr(1)))
        assert And(a, b) != And(b, a)
        for value in _values():
            if isinstance(value, SuiteReport):  # its counterexample is a dict
                continue
            twin = pickle.loads(pickle.dumps(value))
            assert hash(twin) == hash(value)
            assert value != object() and len({value, twin}) == 1
