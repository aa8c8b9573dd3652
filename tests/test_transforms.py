import random

import pytest

from htc.checker import equivalent, gen_assignment, gen_lc_rule
from htc.errors import TransformError
from htc.parser import parse_theory
from htc.semantics import (
    Interpretation,
    Valuation,
    enumerate_valuations,
    ht_models,
    satisfies,
    stable_models,
)
from htc.syntax import (
    BOT,
    TOP,
    TRUE,
    U,
    And,
    Assignment,
    BoolAtom,
    Comparison,
    Const,
    ConditionalTerm,
    Defined,
    DomainSpec,
    Implies,
    LCRule,
    LinearExpr,
    Not,
    Or,
    Scaled,
    const_expr,
    desugar_comparisons,
    desugar_theory,
    le,
    make_theory,
    map_exprs,
    var_expr,
)
from htc.transforms import (
    assignment_formula,
    clauses,
    def_of,
    delta,
    distribute_implication,
    eliminate_conditionals,
    phi,
    rule_formula,
    theory_formulas,
    UNFOLD_HEAD_LIMIT,
    unfold_rule,
)

from reference import (
    expr_value,
    is_ht_tautology,
    normalize_constraint,
    normalize_equality,
    subvaluations,
)

SPEC = DomainSpec.make({"x": (0, 2), "y": (0, 2)}, ["p"])


def val(**kw):
    return Valuation({k: (TRUE if v is True else v) for k, v in kw.items()})


def point(target, e):
    return Assignment(target, e, e)


class TestAssignmentFormulas:
    def test_phi_of_point_assignment(self):
        a = point("x", const_expr(1))
        assert phi(a) == And(le(const_expr(1), var_expr("x")), le(var_expr("x"), const_expr(1)))

    def test_def_of_distinct_bounds(self):
        a = Assignment("x", var_expr("y"), const_expr(2))
        assert def_of(a) == And(
            le(var_expr("y"), var_expr("y")), le(const_expr(2), const_expr(2))
        )

    def test_def_of_point_assignment_collapses(self):
        a = point("x", var_expr("y"))
        assert def_of(a) == le(var_expr("y"), var_expr("y"))

    def test_assignment_formula_shape(self):
        a = point("x", var_expr("y"))
        f = assignment_formula(a)
        assert f == And(Not(Not(def_of(a))), Implies(def_of(a), phi(a)))

    def test_constant_assignment_behaves_like_equality(self):
        thy_a = make_theory(SPEC, [assignment_formula(point("x", const_expr(1)))])
        eq = desugar_comparisons(Comparison(var_expr("x"), "=", const_expr(1)))
        thy_b = make_theory(SPEC, [eq])
        assert equivalent(thy_a, thy_b).equal

    def test_variable_free_def_is_tautological(self):
        a = Assignment("x", const_expr(1), const_expr(2))
        assert is_ht_tautology(def_of(a), SPEC)

    def test_assignment_to_undefined_source_fails_totally(self):
        # derived by evaluating the expansion: not not def(y) fails at t={x:2}
        a = point("x", var_expr("y"))
        t = val(x=2)
        assert not satisfies(Interpretation(t, t), assignment_formula(a))

    def test_prop4_on_generated_assignments(self):
        for i in range(25):
            rng = random.Random(501_000_003 + i)
            a = gen_assignment(rng, SPEC)
            a = Assignment(
                a.target,
                _core_expr(a.lower),
                _core_expr(a.upper),
            )
            with_def = make_theory(SPEC, [And(assignment_formula(a), def_of(a))])
            nondirectional = make_theory(SPEC, [phi(a)])
            assert equivalent(with_def, nondirectional).equal
            neg_a = make_theory(SPEC, [Not(assignment_formula(a))])
            neg_phi = make_theory(SPEC, [Not(phi(a))])
            assert equivalent(neg_a, neg_phi).equal


def _core_expr(e):
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


class TestRuleFormula:
    def test_fact_is_bare_head(self):
        rule = LCRule((point("x", const_expr(1)),))
        assert rule_formula(rule) == assignment_formula(rule.head[0])

    def test_constraint_rule(self):
        rule = LCRule((), (BoolAtom("p"),), ())
        assert rule_formula(rule) == Implies(BoolAtom("p"), BOT)

    def test_negative_body(self):
        rule = LCRule((), (), (BoolAtom("p"),))
        assert rule_formula(rule) == Implies(Not(BoolAtom("p")), BOT)


class TestUnfold:
    def setup_method(self):
        src = (
            "#int total_r 0..9. #int tax_p1 0..4. #bool region_r, lives_p1_r.\n"
            "total_r := sum{ tax_p1 : lives_p1_r } :- region_r.\n"
        )
        self.program = desugar_theory(parse_theory(src))
        self.rule = self.program.rules[0]

    def test_two_implications_for_one_head(self):
        psis = unfold_rule(self.rule, distribute=False)
        assert len(psis) == 2
        a = self.rule.head[0]
        body = BoolAtom("region_r")
        assert psis[0] == Implies(And(body, def_of(a)), phi(a))
        assert psis[1] == Implies(And(body, Not(phi(a))), BOT)

    def test_distribution_splits_heads_and_negations(self):
        rules = unfold_rule(self.rule)
        assert len(rules) == 4
        heads = [r.rhs for r in rules]
        assert heads.count(BOT) == 2
        for r in rules:
            assert isinstance(r, Implies)

    def test_unfolding_preserves_ht_models(self):
        spec = self.program.spec
        base = ht_models(make_theory(spec, [self.rule]))
        for distribute in (False, True):
            unfolded = make_theory(spec, unfold_rule(self.rule, distribute=distribute))
            assert ht_models(unfolded) == base

    def test_headless_rule_unfolds_to_itself(self):
        rule = LCRule((), (BoolAtom("p"),), ())
        assert unfold_rule(rule, distribute=False) == [Implies(BoolAtom("p"), BOT)]

    def test_degenerate_empty_rule(self):
        rule = LCRule()
        assert unfold_rule(rule, distribute=False) == [BOT]

    def test_head_limit(self):
        heads = tuple(
            point("x", const_expr(i % 3)) for i in range(UNFOLD_HEAD_LIMIT + 1)
        )
        with pytest.raises(TransformError):
            unfold_rule(LCRule(heads))

    def test_theorem1_on_generated_rules(self):
        for i in range(40):
            rng = random.Random(601_000_003 + i)
            rule = gen_lc_rule(rng, SPEC)
            core = desugar_theory(make_theory(SPEC, [rule]))
            base = set(ht_models(core))
            for distribute in (False, True):
                unfolded = make_theory(
                    SPEC, unfold_rule(core.rules[0], distribute=distribute)
                )
                assert set(ht_models(unfolded)) == base, (i, distribute)

    @pytest.mark.parametrize(
        "body",
        [
            "not (#true)",
            "not (#false)",
            "not (p -> q)",
            "(#false)",
            "not (not p -> q)",
            "not ((p -> q) | r)",
            "not (p & #false)",
        ],
    )
    def test_constant_and_implication_bodies(self, body):
        # the #true, #false and implication cases of the body and negated
        # body normal forms; "not (#false)" is #true, "not (p & #false)"
        # reaches the #false case of the negated form
        thy = parse_theory(f"#int x 0..1. #bool p, q, r. x := 1 :- {body}.")
        for distribute in (False, True):
            unfolded = make_theory(thy.spec, unfold_rule(thy.rules[0], distribute=distribute))
            assert equivalent(thy, unfolded).equal, distribute

    def test_distribute_literal_shapes(self):
        # a negated equality in the body distributes into double-negated literals
        eq = desugar_comparisons(Comparison(var_expr("x"), "<", var_expr("y")))
        psi = Implies(Not(eq), BoolAtom("p"))
        rules = distribute_implication(psi)
        assert all(isinstance(r, Implies) for r in rules)
        thy_a = make_theory(SPEC, [psi])
        thy_b = make_theory(SPEC, rules)
        assert equivalent(thy_a, thy_b).equal


class TestNormalize:
    def test_moves_variables_left(self):
        atom = le(
            LinearExpr((Scaled(1, "x"), Const(1))), var_expr("y")
        )
        out = normalize_constraint(atom)
        assert out == le(
            LinearExpr((Scaled(1, "x"), Scaled(-1, "y"))), const_expr(-1)
        )

    def test_already_normal_is_identity(self):
        atom = le(LinearExpr((Scaled(1, "x"), Const(1))), const_expr(3))
        assert normalize_constraint(atom) is atom

    def test_equality_pair_display(self):
        # s1 + s2 = s0 becomes (-s0 + s1 + s2 <= 0) and (s0 - s1 - s2 <= 0)
        lhs = LinearExpr((Scaled(1, "x"), Scaled(1, "y")))
        rhs = var_expr("x")
        first, second = normalize_equality(lhs, rhs)
        assert first == le(
            LinearExpr((Scaled(-1, "x"), Scaled(1, "x"), Scaled(1, "y"))), const_expr(0)
        )
        assert second == le(
            LinearExpr((Scaled(1, "x"), Scaled(-1, "x"), Scaled(-1, "y"))), const_expr(0)
        )

    def test_preserves_denotation(self):
        for i in range(30):
            rng = random.Random(701_000_003 + i)
            items_l = tuple(
                _rand_term(rng) for _ in range(rng.randint(1, 3))
            )
            items_r = tuple(
                _rand_term(rng) for _ in range(rng.randint(1, 3))
            )
            atom = le(LinearExpr(items_l), LinearExpr(items_r))
            out = normalize_constraint(atom)
            for v in enumerate_valuations(SPEC):
                vv = Interpretation(v, v)
                assert satisfies(vv, atom) == satisfies(vv, out)

    def test_conditional_atom_preserves_models(self):
        tau = ConditionalTerm(Scaled(1, "y"), Const(-1), BoolAtom("p"))
        atom = le(LinearExpr((Scaled(1, "x"),)), LinearExpr((tau, Const(2))))
        out = normalize_constraint(atom)
        assert equivalent(make_theory(SPEC, [atom]), make_theory(SPEC, [out])).equal

    def test_equality_pair_matches_conjunction(self):
        lhs = LinearExpr((Scaled(1, "x"), Scaled(1, "y")))
        rhs = const_expr(3)
        first, second = normalize_equality(lhs, rhs)
        eq = desugar_comparisons(Comparison(lhs, "=", rhs))
        assert equivalent(
            make_theory(SPEC, [And(first, second)]), make_theory(SPEC, [eq])
        ).equal


def _rand_term(rng):
    kind = rng.random()
    if kind < 0.4:
        return Const(rng.randint(-2, 2))
    return Scaled(rng.randint(-2, 2), rng.choice(["x", "y"]))


class TestDelta:
    def test_five_implications_in_display_order(self):
        tau = ConditionalTerm(Scaled(1, "y"), Const(3), BoolAtom("p"))
        x = var_expr("__c0")
        y, three = var_expr("y"), const_expr(3)
        d = delta(tau, "__c0")
        assert len(d) == 5
        eq_then = And(le(x, y), le(y, x))
        eq_else = And(le(x, three), le(three, x))
        dx = le(x, x)
        assert d[0] == Implies(And(BoolAtom("p"), le(y, y)), eq_then)
        assert d[1] == Implies(And(Not(BoolAtom("p")), le(three, three)), eq_else)
        assert d[2] == Implies(And(BoolAtom("p"), dx), eq_then)
        assert d[3] == Implies(And(Not(BoolAtom("p")), dx), eq_else)
        assert d[4] == Implies(dx, Or(BoolAtom("p"), Not(BoolAtom("p"))))

    def test_guarded_else_simplifies_as_displayed(self):
        # for (y | 0 : def(y)) the first two implications amount to
        # def(y) -> x = y and not def(y) -> x = 0
        spec = SPEC.with_int_var("__c0", 0, 2)
        tau = ConditionalTerm(Scaled(1, "y"), Const(0), le(var_expr("y"), var_expr("y")))
        d = delta(tau, "__c0")
        x, y = var_expr("__c0"), var_expr("y")
        defy = le(y, y)
        simplified_1 = Implies(defy, And(le(x, y), le(y, x)))
        simplified_2 = Implies(Not(defy), And(le(x, const_expr(0)), le(const_expr(0), x)))
        assert equivalent(
            make_theory(spec, [d[0]]), make_theory(spec, [simplified_1])
        ).equal
        assert equivalent(
            make_theory(spec, [d[1]]), make_theory(spec, [simplified_2])
        ).equal

    def test_reverse_implication_propagates_value(self):
        # from (y | 0 : #true) = 5: the defined-variable implication forces y
        thy = parse_theory("#int y 0..9. (y | 0 : #true) = 5.")
        result = eliminate_conditionals(thy)
        assert [name for _, name in result.mapping] == ["__c0"]
        assert stable_models(result.theory()) == [val(__c0=5, y=5)]
        first_two = make_theory(result.rewritten.spec, result.rewritten.statements + result.side[:2])
        assert stable_models(first_two) == [val(__c0=5)]

    def test_totality_guard_excludes_spurious_model(self):
        thy = parse_theory("#int y 0..9. #bool p. (y | y : p) = 5. #false :- not p.")
        result = eliminate_conditionals(thy)
        name = result.mapping[0][1]
        h = Valuation({"y": 5, name: 5})
        t = Valuation({"y": 5, name: 5, "p": TRUE})
        four = make_theory(result.rewritten.spec, result.rewritten.statements + result.side[:4])
        assert all(
            satisfies(Interpretation(h, t), f) for f in theory_formulas(four)
        )
        assert not satisfies(Interpretation(h, t), result.side[4])
        projected = {m.project(("p", "y")) for m in stable_models(result.theory())}
        assert projected == {val(p=True, y=5)}

    def test_models_of_delta_pin_the_variable(self):
        # every HT model of delta(tau) gives the variable exactly the value
        # of the conditional term, at both worlds
        for i in range(15):
            rng = random.Random(801_000_003 + i)
            from htc.checker import gen_conditional_term

            tau = gen_conditional_term(rng, SPEC)
            tau = ConditionalTerm(
                tau.then_term, tau.else_term, desugar_comparisons(tau.condition)
            )
            from htc.syntax import linear_term_range

            lo1, hi1 = linear_term_range(tau.then_term, SPEC)
            lo2, hi2 = linear_term_range(tau.else_term, SPEC)
            spec = SPEC.with_int_var("__c0", min(lo1, lo2), max(hi1, hi2))
            d = make_theory(spec, list(delta(tau, "__c0")))
            e = LinearExpr((tau,))
            for interp in ht_models(d):
                h_val = expr_value(interp.h, interp.t, e)
                assert interp.h.get("__c0") == (None if h_val is U else h_val)
                t_val = expr_value(interp.t, interp.t, e)
                assert interp.t.get("__c0") == (None if t_val is U else t_val)

    def test_corollary_replacement_is_neutral(self):
        # adding delta(tau) makes tau and its variable interchangeable
        tau = ConditionalTerm(Scaled(1, "y"), Const(0), BoolAtom("p"))
        spec = SPEC.with_int_var("__c0", 0, 2)
        with_tau = le(LinearExpr((tau,)), var_expr("x"))
        with_var = le(var_expr("__c0"), var_expr("x"))
        d = list(delta(tau, "__c0"))
        thy_a = make_theory(spec, [with_tau] + d)
        thy_b = make_theory(spec, [with_var] + d)
        assert equivalent(thy_a, thy_b).equal

    def test_condition_free_theory_unchanged(self):
        thy = parse_theory("#int x 0..9. x <= 4.")
        result = eliminate_conditionals(thy)
        assert result.side == () and result.mapping == ()
        assert result.rewritten == desugar_theory(thy)

    def test_occurrences_get_distinct_variables(self):
        tau = "(y | 0 : p)"
        thy = parse_theory(f"#int x, y 0..9. #bool p. {tau} + {tau} <= x.")
        result = eliminate_conditionals(thy)
        assert [name for _, name in result.mapping] == ["__c0", "__c1"]
        assert result.mapping[0][0] == result.mapping[1][0]

    def test_fresh_variable_interval_hulls_branches(self):
        thy = parse_theory("#int x 0..9. #bool p. (2*x | -3 : p) <= 4.")
        result = eliminate_conditionals(thy)
        assert result.rewritten.spec.interval("__c0") == (-3, 18)

    def test_projected_stable_equivalence_golden(self):
        thy = parse_theory(
            "#int x, y 0..9. #bool p. y = 5. sum{ x ; y } > 1 -> p."
        )
        result = eliminate_conditionals(thy)
        names = ("p", "x", "y")
        projected = {m.project(names) for m in stable_models(result.theory())}
        assert projected == {val(p=True, y=5)}


def _rename_fresh(stmt, shift):
    """The statement with every __c<k> renamed to __c<k + shift>."""

    def rename(e):
        return LinearExpr(tuple(
            Scaled(i.coeff, f"__c{int(i.var[3:]) + shift}")
            if type(i) is Scaled and i.var.startswith("__c") else i
            for i in e.items
        ))

    return map_exprs(stmt, rename)


class TestEliminateModularAndLinear:
    # the translation of G1 u G2 is that of G1 followed by that of G2, whose
    # fresh names continue the count; five side formulas per occurrence
    def test_union_translates_piecewise_at_five_formulas_per_occurrence(self):
        from htc.checker import DEFAULT_SUITE_SPEC, gen_formula

        spec, wide = DEFAULT_SUITE_SPEC, 10**100  # translated specs pass 10**7
        for i in range(200):
            rng = random.Random(703_000_003 + i)
            g1, g2 = (
                [gen_formula(rng, spec, conditional_budget=[2]) for _ in range(rng.randint(1, 2))]
                for _ in range(2)
            )
            r1, r2, both = (
                eliminate_conditionals(make_theory(spec, g), budget=wide)
                for g in (g1, g2, g1 + g2)
            )
            n1 = len(r1.mapping)
            assert both.rewritten.statements == r1.rewritten.statements + tuple(
                _rename_fresh(f, n1) for f in r2.rewritten.statements
            ), i
            assert both.side == r1.side + tuple(_rename_fresh(f, n1) for f in r2.side), i
            assert len(both.side) == 5 * len(both.mapping), i


class TestEliminateBudget:
    def test_budget_error_on_wide_fresh_intervals(self):
        from htc.errors import BudgetError

        src = (
            "#int a, b, c 0..9. #bool p.\n"
            "(9*a | -9*b : p) <= c. (9*b | -9*c : p) <= a. (9*c | -9*a : p) <= b.\n"
        )
        thy = parse_theory(src)
        with pytest.raises(BudgetError):
            eliminate_conditionals(thy)
        # a raised budget lets the same translation through
        result = eliminate_conditionals(thy, budget=10**12)
        assert len(result.mapping) == 3


class TestHeadDisjunctionLemma:
    def test_assignment_in_disjunctive_context(self):
        # gamma | A is equivalent to
        # (def(A) -> Phi(A) | gamma) & (not Phi(A) -> gamma),
        # the step the subset unfolding iterates on
        from htc.checker import gen_formula

        for i in range(25):
            rng = random.Random(30_000_001 + i)
            raw = gen_assignment(rng, SPEC)
            a = Assignment(raw.target, _core_expr(raw.lower), _core_expr(raw.upper))
            gamma = desugar_comparisons(gen_formula(rng, SPEC, depth=2))
            lhs = make_theory(SPEC, [Or(gamma, assignment_formula(a))])
            rhs = make_theory(
                SPEC,
                [
                    And(
                        Implies(def_of(a), Or(phi(a), gamma)),
                        Implies(Not(phi(a)), gamma),
                    )
                ],
            )
            assert equivalent(lhs, rhs).equal, i


class TestModelTransfer:
    def test_extending_a_model_with_the_term_value_satisfies_delta(self):
        # any model of a theory extends to a model of theory + delta(tau) by
        # giving the fresh variable the value of tau at each world
        from htc.checker import gen_conditional_term, gen_formula
        from htc.syntax import linear_term_range

        for i in range(15):
            rng = random.Random(32_000_001 + i)
            tau = gen_conditional_term(rng, SPEC)
            tau = ConditionalTerm(
                tau.then_term, tau.else_term, desugar_comparisons(tau.condition)
            )
            lo1, hi1 = linear_term_range(tau.then_term, SPEC)
            lo2, hi2 = linear_term_range(tau.else_term, SPEC)
            gamma = desugar_comparisons(
                gen_formula(rng, SPEC, depth=2, conditional_budget=[0])
            )
            d = list(delta(tau, "__c0"))
            e = LinearExpr((tau,))
            for t0 in enumerate_valuations(SPEC):
                for h0 in subvaluations(t0):
                    if not satisfies(Interpretation(h0, t0), gamma):
                        continue
                    tv = expr_value(t0, t0, e)
                    hv = expr_value(h0, t0, e)
                    t1 = Valuation(
                        list(t0.items()) + ([("__c0", tv)] if tv is not U else [])
                    )
                    h1 = Valuation(
                        list(h0.items()) + ([("__c0", hv)] if hv is not U else [])
                    )
                    extended = Interpretation(h1, t1)
                    assert all(satisfies(extended, f) for f in [gamma] + d), i


class TestDistributionOfDisequality:
    def test_negated_disequality_body(self):
        # not (x != y) pushes through both De Morgan directions and the
        # double-negation laws; model sets must be unchanged
        prog = desugar_theory(parse_theory("#int x, y 0..2. x := 1 :- not x != y."))
        rule = prog.rules[0]
        base = ht_models(make_theory(prog.spec, [rule]))
        for distribute in (False, True):
            unfolded = make_theory(prog.spec, unfold_rule(rule, distribute=distribute))
            assert ht_models(unfolded) == base

    def test_positive_disequality_body(self):
        prog = desugar_theory(parse_theory("#int x, y 0..2. x := 1 :- x != y."))
        rule = prog.rules[0]
        base = ht_models(make_theory(prog.spec, [rule]))
        unfolded = make_theory(prog.spec, unfold_rule(rule))
        assert ht_models(unfolded) == base


class TestTransformGuards:
    P, Q, R = BoolAtom("p"), BoolAtom("q"), BoolAtom("r")

    def test_an_implication_head_is_not_distributed(self):
        with pytest.raises(TransformError, match=r"^cannot distribute head Implies\("):
            distribute_implication(Implies(self.P, Implies(self.Q, self.R)))

    def test_an_implication_body_part_is_not_distributed(self):
        with pytest.raises(TransformError, match=r"^cannot distribute body part Implies\("):
            clauses(Implies(Implies(self.P, self.Q), self.R))

    def test_a_negated_def_body_part_is_refused(self):
        with pytest.raises(TransformError, match=r"^cannot negate body part Defined\("):
            clauses(Implies(Not(Defined(var_expr("x"))), self.R))
