import gc
import random

import pytest

from htc import semantics
from htc.cli import main
from htc.errors import BudgetError
from htc.parser import parse_theory
from htc.semantics import (
    Interpretation,
    Valuation,
    _compile,
    _implies,
    _Index,
    _or,
    _order,
    _satisfied,
    _valuation,
    enumerate_valuations,
    ht_models,
    is_supported,
    satisfies,
    stable_models,
    total_models,
    valuation_key,
)
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
    conj,
    const_expr,
    desugar_comparisons,
    desugar_theory,
    le,
    make_theory,
    var_expr,
)

from mutants import mutate
from reference import eval_atom, eval_term, expr_value, proper_subvaluations, subvaluations

SPEC = DomainSpec.make({"x": (0, 9), "y": (0, 9)}, ["p"])


def val(**kw):
    return Valuation({k: (TRUE if v is True else v) for k, v in kw.items()})


def total(v):
    return Interpretation(v, v)


# the running difference constraint x - (y|3:p) <= 4, in core form
TAU = ConditionalTerm(Scaled(-1, "y"), Const(-3), BoolAtom("p"))
DIFF = le(LinearExpr((Scaled(1, "x"), TAU)), const_expr(4))


class TestEvalTerm:
    def test_else_branch_when_condition_fails_totally(self):
        t = val(x=7, y=0)
        assert eval_term(t, t, TAU) == Const(-3)

    def test_true_condition_always_then(self):
        tau = ConditionalTerm(Scaled(1, "x"), Const(0), TOP)
        assert eval_term(Valuation(), val(p=True), tau) == Scaled(1, "x")

    def test_undecided_condition_is_undefined(self):
        tau = ConditionalTerm(Scaled(1, "y"), Scaled(1, "y"), BoolAtom("p"))
        h, t = Valuation(), val(p=True, y=5)
        assert eval_term(h, t, tau) is U

    def test_linear_terms_pass_through(self):
        t = val(x=1)
        assert eval_term(t, t, Scaled(2, "x")) == Scaled(2, "x")
        assert eval_term(t, t, Const(7)) == Const(7)


class TestEvalAtom:
    def test_running_example_unfolds_to_difference(self):
        t = val(x=7, y=0)
        out = eval_atom(t, t, DIFF)
        assert out == le(LinearExpr((Scaled(1, "x"), Const(-3))), const_expr(4))

    def test_guarded_sum_drops_undefined_element(self):
        guarded_x = ConditionalTerm(Scaled(1, "x"), Const(0), desugar_comparisons_def("x"))
        guarded_y = ConditionalTerm(Scaled(1, "y"), Const(0), desugar_comparisons_def("y"))
        atom = le(const_expr(1), LinearExpr((guarded_x, guarded_y)))
        t = val(y=5)
        out = eval_atom(t, t, atom)
        assert out.rhs == LinearExpr((Const(0), Scaled(1, "y")))
        assert satisfies(total(t), out)

    def test_condition_free_atom_unchanged(self):
        atom = le(var_expr("x"), const_expr(4))
        t = val(x=1)
        assert eval_atom(t, t, atom) == atom


def desugar_comparisons_def(name):
    return desugar_comparisons(le(var_expr(name), var_expr(name)))


class TestEvalLinearExpr:
    # the value of a condition-free expression under v is expr_value(v, v, e)
    def test_plain_sum(self):
        v = val(x=1, y=1)
        assert expr_value(v, v, LinearExpr((Scaled(1, "x"), Scaled(1, "y")))) == 2

    def test_undefined_variable_poisons(self):
        v = val(y=5)
        assert expr_value(v, v, LinearExpr((Scaled(1, "x"), Scaled(1, "y")))) is U

    def test_zero_coefficient_still_needs_a_value(self):
        assert expr_value(Valuation(), Valuation(), LinearExpr((Scaled(0, "x"),))) is U

    def test_boolean_value_has_no_arithmetic_meaning(self):
        v = val(p=True)
        assert expr_value(v, v, LinearExpr((Scaled(1, "p"),))) is U

    def test_u_marker_poisons(self):
        v = val(x=1)
        assert expr_value(v, v, LinearExpr((Scaled(1, "x"), U))) is U


class TestDenotes:
    # v is in the denotation of a condition-free atom when <v, v> satisfies it
    def test_running_example_after_eval(self):
        t = val(x=7)
        assert satisfies(total(t), le(LinearExpr((Scaled(1, "x"), Const(-3))), const_expr(4)))

    def test_constants_only(self):
        assert satisfies(total(Valuation()), le(const_expr(1), const_expr(2)))

    def test_boolean_atom(self):
        assert satisfies(total(val(p=True)), BoolAtom("p"))
        assert not satisfies(total(val(x=1)), BoolAtom("p"))

    def test_undefined_side_fails(self):
        assert not satisfies(total(Valuation()), le(var_expr("x"), var_expr("x")))


class TestValuation:
    def test_repr_lists_the_pairs(self):
        assert repr(Valuation({"p": TRUE, "x": 1})) == "{p=t, x=1}"

    def test_values_are_true_or_ints(self):
        # Python's True is an int, but not the Boolean value TRUE: kept, it
        # defined p while failing the atom p, and made {x=True} equal {x=1}
        for bad in (True, False, None, 1.0, "1"):
            with pytest.raises(TypeError, match="the value of p"):
                Valuation({"p": bad})
        assert Valuation({"p": TRUE, "x": -1}).items() == (("p", TRUE), ("x", -1))

    def test_get_reads_each_pair(self):
        v = Valuation({"p": TRUE, "x": 0, "z": -2})
        assert [v.get(n) for n in ("p", "x", "y", "z")] == [TRUE, 0, None, -2]
        assert v.get("p") is TRUE and Valuation().get("x") is None


class TestInterpretation:
    def test_h_must_be_included_in_t(self):
        with pytest.raises(ValueError, match="subset"):
            Interpretation(val(x=1), val(x=2))
        with pytest.raises(ValueError, match="subset"):
            Interpretation(val(x=1), Valuation())


def unfolding_mismatches() -> list:
    """(seed, h, t) for each of 40 seeded comparisons, one conditional term
    added, and each <h, t> at which ``satisfies`` differs on the atom and on
    what ``eval_atom`` unfolds it to at <h, t>, read at <h, h>."""
    from htc.checker import _gen_core_atom, gen_conditional_term

    spec = DomainSpec.make({"x": (0, 2), "y": (0, 2)}, ["p"])
    bad = []
    for i in range(40):
        rng = random.Random(7_000_003 + i)
        tau = gen_conditional_term(rng, spec)
        tau = ConditionalTerm(tau.then_term, tau.else_term, desugar_comparisons(tau.condition))
        base = _gen_core_atom(rng, spec)
        if not isinstance(base, Comparison):
            continue
        atom = Comparison(LinearExpr(base.lhs.items + (tau,)), "<=", base.rhs)
        for t in enumerate_valuations(spec):
            for h in subvaluations(t):
                unfolded = eval_atom(h, t, atom)
                if satisfies(Interpretation(h, t), atom) != satisfies(total(h), unfolded):
                    bad.append((i, h, t))
    return bad


class TestSatisfies:
    def test_running_example_positive(self):
        assert satisfies(total(val(x=7, y=0)), DIFF)

    def test_running_example_negative(self):
        assert not satisfies(total(val(x=7, y=0, p=True)), DIFF)

    def test_top_always_holds(self):
        assert satisfies(Interpretation(Valuation(), val(x=1)), TOP)

    def test_atom_agrees_with_eval_then_denote(self):
        assert unfolding_mismatches() == []

    @pytest.mark.parametrize(
        "name, old, new",
        [
            # a Boolean atom true at <t, t> holds at every h
            ("_compile", "need = (1 << i, ())", "need = (0, ())"),
            # a comparison with no conditional term, as every condition is,
            # asks nothing of h
            ("_compile_le", "need = fixed_mask, ()", "need = 0, ()"),
        ],
        ids=["bool-atom", "comparison"],
    )
    def test_unfolding_check_fails_when_a_condition_asks_nothing_of_h(
        self, monkeypatch, name, old, new
    ):
        # eval_atom reads conditions by the oracle, so a fault in how the
        # engine compiles a condition shows on the engine's side alone
        mutate(monkeypatch, semantics, name, old, new)
        assert unfolding_mismatches() != []

    @pytest.mark.parametrize(
        "phi",
        [Defined(var_expr("x")), Comparison(var_expr("x"), "<", const_expr(1))],
        ids=["def", "lt"],
    )
    def test_surface_atoms_are_refused(self, phi):
        with pytest.raises(ValueError, match="satisfaction requires a desugared formula"):
            satisfies(total(val(x=0)), phi)

    def test_an_expression_is_not_a_formula(self):
        with pytest.raises(TypeError, match=r"^not a formula: LinearExpr\("):
            satisfies(total(val(x=0)), var_expr("x"))

    def test_an_aggregate_is_refused(self):
        agg = Aggregate("sum", (AggregateElement(Scaled(1, "x"), TOP),))
        with pytest.raises(ValueError, match=r"^expression is not desugared: Aggregate\("):
            satisfies(total(val(x=0)), le(LinearExpr((agg,)), const_expr(1)))

    def test_total_interpretation_collapses_to_denotation(self):
        atom = le(var_expr("x"), const_expr(4))
        for t in enumerate_valuations(SPEC):
            x = t.get("x")
            assert satisfies(total(t), atom) == (x is not None and x <= 4)


class TestDeepNesting:
    def test_satisfies_and_is_supported_take_what_solve_takes(self):
        # 900 conjuncts, one nested in the next, as `solve` takes them; a
        # formula is compiled one frame per level and never hashed by value
        a = conj([BoolAtom("a")] * 900)
        v = val(a=TRUE)
        assert satisfies(Interpretation(v, v), a) is True
        body = conj([le(var_expr("y"), const_expr(1))] * 900)
        prog = make_theory(
            DomainSpec.make({"x": (0, 1), "y": (0, 1)}, []),
            [
                LCRule((Assignment("y", const_expr(1), const_expr(1)),)),
                LCRule((Assignment("x", const_expr(1), const_expr(1)),), (body,)),
            ],
        )
        assert is_supported(val(x=1, y=1), prog) is True


class TestEnumeration:
    def test_single_bool(self):
        spec = DomainSpec.make({}, ["p"])
        assert list(enumerate_valuations(spec)) == [Valuation(), val(p=True)]

    def test_single_int(self):
        spec = DomainSpec.make({"x": (0, 1)})
        assert list(enumerate_valuations(spec)) == [Valuation(), val(x=0), val(x=1)]

    def test_count(self):
        spec = DomainSpec.make({"x": (0, 2), "y": (1, 2)}, ["p"])
        assert len(list(enumerate_valuations(spec))) == 4 * 3 * 2

    def test_order_matches_valuation_key(self):
        # negative values, Booleans, and an auxiliary that sorts between the
        # declared names (A < __min0 < b): the valuations come in key order,
        # as the search's value tuples come in _order
        for spec in (
            DomainSpec.make({"x": (0, 1)}, ["p"]),
            desugar_theory(
                parse_theory("#int A -2..1. #int b 0..2. #bool p, q. min{ A ; b } <= 0.")
            ).spec,
        ):
            names = spec.variables()
            vals = list(enumerate_valuations(spec))
            keys = [valuation_key(spec, v) for v in vals]
            assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
            worlds = [t for t, _, _ in total_models(spec, ())]
            assert [_valuation(names, t) for t in worlds] == vals
            assert [_order(t) for t in worlds] == keys
        assert names == ("A", "__min0", "b", "p", "q") and len(vals) == 5 * 6 * 4 * 2 * 2

    def test_a_search_leaves_no_cyclic_garbage(self):
        # a search holds its compiled formulas and reduct memos (y = 1 -> p
        # skips x, so its reducts are kept per value of p and y) only while
        # it is referenced: finished, or dropped after its first row, it
        # leaves nothing for the cyclic collector
        from htc.transforms import theory_formulas

        thy = desugar_theory(parse_theory("#int x, y 0..3. #bool p. y = 1 -> p. p -> x < y."))
        formulas = theory_formulas(thy)
        gc.collect()
        gc.disable()
        try:
            assert len(list(total_models(thy.spec, formulas))) == 26
            assert gc.collect() == 0
            search = total_models(thy.spec, formulas)
            next(search)
            del search
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_subvaluations(self):
        t = val(y=5)
        assert list(subvaluations(t)) == [Valuation(), t]
        assert list(subvaluations(Valuation())) == [Valuation()]
        t2 = val(x=1, y=2, p=True)
        subs = list(subvaluations(t2))
        assert len(subs) == 8 and subs[0] == Valuation() and subs[-1] == t2
        assert list(proper_subvaluations(t2)) == subs[:-1]

    def test_budget_refusal(self):
        spec = DomainSpec.make({f"v{i}": (0, 9) for i in range(8)})
        with pytest.raises(BudgetError):
            list(enumerate_valuations(spec))
        with pytest.raises(BudgetError):
            stable_models(make_theory(spec, []))


class TestHtModels:
    def test_boolean_fact(self):
        spec = DomainSpec.make({}, ["p"])
        thy = make_theory(spec, [BoolAtom("p")])
        assert ht_models(thy) == [Interpretation(val(p=True), val(p=True))]

    def test_empty_theory_admits_everything(self):
        spec = DomainSpec.make({}, ["p"])
        thy = make_theory(spec, [])
        assert len(ht_models(thy)) == spec.interpretation_count() == 3

    def test_bot_admits_nothing(self):
        spec = DomainSpec.make({}, ["p"])
        assert ht_models(make_theory(spec, [BOT])) == []


class TestStableModels:
    def test_sum_over_undefined(self):
        thy = parse_theory(
            "#int x, y 0..9. #bool p. y = 5. sum{ x ; y } > 1 -> p."
        )
        assert stable_models(thy) == [val(p=True, y=5)]

    def test_conditional_equality(self):
        thy = parse_theory("#int y 0..9. (y | 0 : #true) = 5.")
        assert stable_models(thy) == [val(y=5)]

    def test_vicious_circle_has_no_model(self):
        thy = parse_theory("#int x 0..9. x := 1 :- sum{ x : #true } >= 0.")
        assert stable_models(thy) == []

    def test_undecided_conditional_needs_the_constraint(self):
        thy = parse_theory("#int y 0..9. #bool p. (y | y : p) = 5. #false :- not p.")
        assert stable_models(thy) == [val(p=True, y=5)]

    def test_stable_models_are_total_models(self):
        from htc.transforms import theory_formulas

        thy = parse_theory("#int x, y 0..2. #bool p. y = 2. sum{ x ; y } > 1 -> p.")
        core = desugar_theory(thy)
        for t in stable_models(thy):
            assert all(satisfies(total(t), f) for f in theory_formulas(core))

    def test_parallel_jobs_match(self):
        thy = parse_theory("#int x, y 0..3. #bool p. y = 2. sum{ x ; y } > 1 -> p.")
        assert stable_models(thy) == stable_models(thy, jobs=2)
        assert ht_models(thy) == ht_models(thy, jobs=2)


class TestSupportedness:
    def test_fact_supports_itself(self):
        prog = parse_theory("#int x 0..9. x := 1.")
        assert is_supported(val(x=1), prog)

    def test_empty_program_supports_nothing(self):
        prog = parse_theory("#int x 0..9. :-.")
        assert not is_supported(val(x=1), prog)
        assert is_supported(Valuation(), parse_theory("#int x 0..9. x := 1."))

    def test_other_head_assignment_blocks_support(self):
        prog = parse_theory("#int x, y 0..9. x := 1 ; y := 2.")
        # y := 2 is satisfied by this valuation, so it cannot support x
        assert not is_supported(val(x=1, y=2), prog)
        assert is_supported(val(x=1), prog)

    def test_stable_models_are_supported(self):
        prog = parse_theory(
            "#int x, y 0..4.\n"
            "x := 1.\n"
            "y := x + 1 :- x <= 2, not y >= 9.\n"
        )
        models = stable_models(prog)
        assert models == [val(x=1, y=2)]
        for t in models:
            assert is_supported(t, prog)

    def test_min_max_auxiliaries_need_no_rule(self):
        # no rule assigns __min0, yet the bodies read it
        for text in (
            "#int x, y 0..3. x := 1. y := 2 :- min{ x } <= 1.",
            "#int x, y 0..3. x := 1. y := 2. min{ x ; y } >= 0.",
        ):
            prog = parse_theory(text)
            [t] = stable_models(prog)
            assert t == Valuation({"__min0": 1, "x": 1, "y": 2})
            assert is_supported(t, prog), text
        # a declared variable still needs its rule
        t = Valuation({"__min0": 1, "x": 1, "y": 2})
        assert not is_supported(t, parse_theory("#int x, y 0..3. y := 2 :- min{ x } <= 1."))
        assert not is_supported(t, parse_theory("#int x, y 0..3. x := 1. min{ x ; y } >= 0."))

    def test_a_translated_program_declares_its_auxiliaries(self, capsys, tmp_path):
        # translate --pass desugar writes `#int __min0 0..3.`, so the
        # auxiliary is a declared variable there, and no rule supports it
        text = "#int x, y 0..3. x := 1. y := 2 :- min{ x } <= 1."
        f = tmp_path / "min.lc"
        f.write_text(text)
        assert main(["translate", str(f), "--pass", "desugar"]) == 0
        translated = parse_theory(capsys.readouterr().out)
        t = Valuation({"__min0": 1, "x": 1, "y": 2})
        assert is_supported(t, parse_theory(text))
        assert not is_supported(t, translated)


class TestExprValue:
    def test_conditional_value_at_pair(self):
        e = LinearExpr((TAU,))
        t = val(x=7, y=0)
        assert expr_value(t, t, e) == -3
        t2 = val(x=7, y=0, p=True)
        assert expr_value(t2, t2, e) == 0
        h = val(x=7)
        assert expr_value(h, Valuation({**dict(h.items()), "p": TRUE}), e) is U


class TestAggregateDefinedness:
    def test_guarded_sums_are_defined_at_every_total_valuation(self):
        # the def-reinforced guard makes a desugared sum an integer under
        # any total valuation, whatever is undefined
        import random

        from htc.syntax import Aggregate, AggregateElement, desugar_sum
        from htc.checker import _gen_condition

        spec = DomainSpec.make({"x": (0, 2), "y": (0, 2)}, ["p"])
        for i in range(30):
            rng = random.Random(21_000_003 + i)
            elements = tuple(
                AggregateElement(
                    Scaled(rng.randint(-2, 2), rng.choice(["x", "y"])),
                    desugar_comparisons(_gen_condition(rng, spec)),
                )
                for _ in range(rng.randint(0, 3))
            )
            expr = desugar_sum(Aggregate("sum", elements))
            expr = LinearExpr(
                tuple(
                    ConditionalTerm(
                        t.then_term, t.else_term, desugar_comparisons(t.condition)
                    )
                    if isinstance(t, ConditionalTerm)
                    else t
                    for t in expr.items
                )
            )
            for t in enumerate_valuations(spec):
                assert isinstance(expr_value(t, t, expr), int)


class TestSpecExamples:
    def test_min_of_two_defined_values(self):
        # min{x, y} with x = 2 and y = 7 settles the fresh variable at 2
        thy = parse_theory(
            "#int x, y 0..9.\nx := 2. y := 7.\nmin{ x ; y } >= 0.\n"
        )
        (model,) = stable_models(thy)
        assert model.get("__min0") == 2

    def test_max_of_singleton(self):
        thy = parse_theory("#int x 0..9.\nx := 3.\nmax{ x } >= 0.\n")
        (model,) = stable_models(thy)
        assert model.get("__max0") == 3

    def test_min_of_undefined_elements_is_undefined(self):
        thy = parse_theory("#int x, y 0..9.\nmin{ x ; y } <= 9 | #true.\n")
        (model,) = stable_models(thy)
        assert model.get("__min0") is None

    def test_eval_atom_on_surface_relation(self):
        # the guarded sum atom over > unfolds to 0 + y > 1 at t = {y: 5}
        from htc.syntax import Comparison, desugar_aggregates

        thy = parse_theory("#int x, y 0..9. sum{ x ; y } > 1.")
        atom = desugar_aggregates(thy).statements[0]
        t = val(y=5)
        out = eval_atom(t, t, atom)
        assert out == Comparison(
            LinearExpr((Const(0), Scaled(1, "y"))), ">", const_expr(1)
        )


class TestOutputOrdering:
    def test_stable_models_listed_in_key_order(self):
        thy = parse_theory("#int x 0..3. #bool p. x >= 1 | p.")
        models = stable_models(thy)
        assert len(models) == 4  # x in 1..3, or p alone
        keys = [valuation_key(thy.spec, m) for m in models]
        assert keys == sorted(keys)


# --------------------------------------------------------------------------
# The reduct algebra against truth tables: a reduct is (need, rest), and a
# fact (0, (mask,)) may also sit in rest, as an operand of the algebra

BITS = 5
FULL = (1 << BITS) - 1


def random_reduct(rng, constraints=True):
    """Facts and clauses over BITS bits, some facts ORed into the need and
    the others left in rest; no constraint unless ``constraints``, so that
    FULL satisfies the reduct."""
    need, rest = 0, []
    for _ in range(rng.randint(0, 3)):
        fact = rng.randint(1, FULL)
        if rng.random() < 0.5:
            need |= fact
        else:
            rest.append((0, (fact,)))
    for _ in range(rng.randint(0, 3)):
        body = rng.randint(0, FULL)
        lo = 0 if constraints and rng.random() < 0.3 else 1
        rest.append((body, tuple(rng.randint(1, FULL) for _ in range(rng.randint(lo, 2)))))
    rng.shuffle(rest)
    return need, tuple(rest)


def is_folded(reduct):
    return not any(body == 0 and len(heads) == 1 for body, heads in reduct[1])


class TestReductAlgebra:
    @pytest.mark.parametrize("seed", range(3))
    def test_or_and_implies_are_classical_at_every_mask(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            a, b = random_reduct(rng), random_reduct(rng)
            either, implied = _or(a, b), _implies(a, b)
            # the facts of a result fold back into its need (a -> b is b
            # itself when a holds at every m)
            assert is_folded(either) and (is_folded(implied) or implied is b)
            for m in range(FULL + 1):
                sa, sb = _satisfied(a, m), _satisfied(b, m)
                assert _satisfied(either, m) == (sa or sb), (a, b, m)
                assert _satisfied(implied, m) == (not sa or sb), (a, b, m)

    @pytest.mark.parametrize("seed", range(3))
    def test_compiled_connectives_agree_with_their_operands(self, seed):
        # the operands are the reducts of a and b at a t whose full mask is
        # FULL, each False or held at FULL; "and", "or", "->" and "not"
        # compile to closures that join them
        rng = random.Random(seed)
        lhs, rhs = BoolAtom("a"), BoolAtom("b")
        for _ in range(300):
            a, b = (False if rng.random() < 0.2 else random_reduct(rng, False) for _ in "ab")
            index = _Index(())
            index.compiled[id(lhs)] = lhs, ((lambda t, r=a: r), 0)
            index.compiled[id(rhs)] = rhs, ((lambda t, r=b: r), 0)
            both, either, implied, neg = (
                _compile(phi, index)[0](())
                for phi in (And(lhs, rhs), Or(lhs, rhs), Implies(lhs, rhs), Not(lhs))
            )
            at_t = not _satisfied(a, FULL) or _satisfied(b, FULL)
            for m in range(FULL + 1):
                sa, sb = _satisfied(a, m), _satisfied(b, m)
                assert _satisfied(both, m) == (sa and sb), (a, b, m)
                assert _satisfied(either, m) == (sa or sb), (a, b, m)
                assert _satisfied(implied, m) == ((not sa or sb) and at_t), (a, b, m)
                assert _satisfied(neg, m) == (not _satisfied(a, FULL)), (a, m)
