import random

import pytest

from htc.checker import gen_formula, gen_lc_rule
from htc.errors import ParseError
from htc.parser import parse_theory, pretty_print, print_expr, print_formula
from htc.syntax import (
    U,
    Aggregate,
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
    Theory,
    desugar_comparisons,
    desugar_theory,
    make_theory,
)

HEADER = "#int x, y 0..9. #bool p.\n"


def parse_formula(text):
    thy = parse_theory(HEADER + text + ".")
    return thy.statements[0]


class TestParsing:
    def test_running_example(self):
        thy = parse_theory("#int x,y 0..9. #bool p. x - (y|3:p) <= 4.")
        assert type(thy) is Theory and not thy.is_lc_program
        (phi,) = thy.statements
        assert phi == Comparison(
            LinearExpr(
                (Scaled(1, "x"), ConditionalTerm(Scaled(-1, "y"), Const(-3), BoolAtom("p")))
            ),
            "<=",
            LinearExpr((Const(4),)),
        )

    def test_rule_file_classifies_as_program(self):
        thy = parse_theory("#int x 0..9. x := 1 :- sum{ x : #true } >= 0.")
        assert type(thy) is Theory and thy.is_lc_program
        (rule,) = thy.statements
        assert rule.head[0].target == "x"
        assert rule.head[0].point
        agg = rule.pos_body[0].lhs.items[0]
        assert isinstance(agg, Aggregate) and agg.func == "sum"

    def test_fact_rule(self):
        thy = parse_theory("#int x 0..9. x := 1.")
        assert thy.is_lc_program
        assert thy.statements[0] == LCRule(
            (Assignment("x", LinearExpr((Const(1),)), LinearExpr((Const(1),))),)
        )

    def test_headless_rule_forms_agree(self):
        a = parse_theory("#bool p. :- not p.")
        b = parse_theory("#bool p. #false :- not p.")
        assert a == b
        assert a.statements[0] == LCRule((), (), (BoolAtom("p"),))

    def test_disjunctive_head(self):
        thy = parse_theory("#int x, y 0..9. x := 1 ; y := 2 .. 3.")
        (rule,) = thy.statements
        assert [a.target for a in rule.head] == ["x", "y"]
        assert not rule.head[1].point

    def test_declarations_apply_to_the_whole_file(self):
        assert parse_theory("x <= 1. #int x 0..2.") == parse_theory("#int x 0..2. x <= 1.")

    def test_default_interval(self):
        thy = parse_theory("#int z. z <= 9.")
        assert thy.spec.interval("z") == (0, 9)

    def test_negative_interval(self):
        thy = parse_theory("#int z -3..3. z <= 0.")
        assert thy.spec.interval("z") == (-3, 3)

    def test_comment_and_whitespace(self):
        thy = parse_theory("% header\n#bool p. % decl\np. % fact\n")
        assert thy.statements == (BoolAtom("p"),)

    def test_zero_coefficient_survives(self):
        phi = parse_formula("0*x <= 1")
        assert phi.lhs.items[0] == Scaled(0, "x")

    def test_aggregate_with_conditions(self):
        phi = parse_formula("sum{ 2*x : p ; -y ; 3 } >= 1")
        agg = phi.lhs.items[0]
        assert [el.term for el in agg.elements] == [
            Scaled(2, "x"),
            Scaled(-1, "y"),
            Const(3),
        ]

    def test_count_elements_are_conditions(self):
        phi = parse_formula("count{ p ; x <= 1 } >= 1")
        agg = phi.lhs.items[0]
        assert all(el.term == Const(1) for el in agg.elements)

    def test_def_atom(self):
        phi = parse_formula("def(x + y)")
        assert isinstance(phi, Defined)

    def test_formula_precedence(self):
        phi = parse_formula("p & not p -> p | p")
        assert phi == desugar_comparisons(phi)  # no relations involved
        assert phi.lhs == And(BoolAtom("p"), parse_formula("not p"))
        # the binding and grouping of each connective, pinned as literal ASTs:
        # a table read the same wrong way by parser and printer still round-trips
        p, q, r = BoolAtom("p"), BoolAtom("q"), BoolAtom("r")
        parsed = {
            "p -> q -> r": Implies(p, Implies(q, r)),
            "p | q | r": Or(Or(p, q), r),
            "p & q & r": And(And(p, q), r),
            "p | q & r": Or(p, And(q, r)),
            "p & q | r": Or(And(p, q), r),
            "not p & q": And(Not(p), q),
            "p -> q | r": Implies(p, Or(q, r)),
        }
        for text, ast in parsed.items():
            assert parse_theory(f"#bool p, q, r. {text}.").statements == (ast,), text
        printed = {
            Implies(Implies(p, q), r): "(p -> q) -> r",
            And(p, Or(q, r)): "p & (q | r)",
            Or(p, Or(q, r)): "p | (q | r)",
            Not(And(p, q)): "not (p & q)",
        }
        for ast, text in printed.items():
            assert pretty_print(ast) == text

    def test_parenthesised_formula_vs_conditional(self):
        disj = parse_formula("(p | p)")
        assert disj.lhs == BoolAtom("p")
        cond = parse_formula("(x | 3 : p) <= 4")
        assert isinstance(cond.lhs.items[0], ConditionalTerm)


class TestParseErrors:
    def test_unclosed_conditional(self):
        with pytest.raises(ParseError):
            parse_theory("#int x, y 0..9. #bool p. x <= (y|2:p.")

    def test_undeclared_variable(self):
        with pytest.raises(ParseError) as exc:
            parse_theory("#int x 0..9. x + z <= 1.")
        assert "undeclared" in str(exc.value)

    def test_nested_conditional(self):
        with pytest.raises(ParseError) as exc:
            parse_theory("#int x,y 0..9. #bool p. x <= ((y|1:p) | 2 : p).")
        assert "conditional" in str(exc.value)

    def test_aggregate_inside_condition(self):
        with pytest.raises(ParseError):
            parse_theory("#int x,y 0..9. x <= (y | 2 : sum{ x } >= 0).")

    def test_reserved_name_with_conditionals(self):
        with pytest.raises(ParseError) as exc:
            parse_theory("#int __c0 0..9. #bool p. (__c0 | 0 : p) <= 1.")
        assert "collides" in str(exc.value)

    def test_reserved_name_without_conditionals_is_fine(self):
        thy = parse_theory("#int __c0 0..9. __c0 <= 1.")
        assert thy.spec.is_int("__c0")

    def test_error_positions_are_deterministic(self):
        bad = "#int x 0..9.\n x +\n<= 1."
        errors = set()
        for _ in range(3):
            with pytest.raises(ParseError) as exc:
                parse_theory(bad)
            errors.add((exc.value.line, exc.value.column))
        assert len(errors) == 1

    def test_double_declaration(self):
        with pytest.raises(ParseError):
            parse_theory("#int x 0..9. #bool x. x <= 1.")

    def test_bool_var_is_not_comparison_target(self):
        with pytest.raises(ParseError):
            parse_theory("#int x 0..9. x.")

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("#int x 0..2.\nx <= 1 @ 2.", "unexpected character '@'", 2, 8),
            ("#bool p.\np := 1.", "assignment target p is not an integer", 2, 1),
            ("#int x 0..2.\nx + 1.", "expected a comparison operator", 2, 1),
            ("#int x 0..2.\n-sum{ x } <= 1.", "cannot negate an aggregate", 2, 2),
            (
                "#int x 0..2. #bool p.\nsum{ (x | 1 : p) } <= 1.",
                "aggregate elements must be linear terms",
                2,
                6,
            ),
            ("#int x 0..2.\nx <= 1", "missing the final '.'", 2, 7),
            ("#int 0..2.", "expected a variable name", 1, 6),
            ("#int x 0 2.", "expected '..'", 1, 10),
            ("#int x 2..0.", "empty interval 2..0", 1, 6),
            ("#bool p 3.", "unexpected '3'", 1, 9),
            ("#int x a..2.", "expected a number", 1, 8),
            ("#int x 0..9. #bool x. x <= 1.", "variable x declared twice", 1, 20),
            ("#int x 0..2.\n#int x 0..2.", "variable x declared twice", 2, 6),
            (
                "#int __c0 0..1. #bool p.\n(1 | 0 : p) <= __c0.",
                "collides with generated names",
                1,
                6,
            ),
            # numbers are ASCII digits only, like names
            ("#int x 0..\u0663. x := \uff13.", "unexpected character '\u0663'", 1, 11),
            # a comment at the end of the text is skipped whole, with or
            # without its newline, after a complete or an unterminated statement
            (
                " #int x - 2 .. 2 . #bool p . :- x != 0 , not not p . % a comment\n",
                "expected a term, found 'not'",
                1,
                46,
            ),
            ("#bool p.\nnot. % a comment", "expected a term, found '.'", 2, 4),
            ("#bool p.\np % a comment", "missing the final '.'", 2, 14),
            ("p.%c", "undeclared variable p", 1, 1),
            # a carriage return is whitespace, and a tab is one column
            ("#int x 0..2.\r\nx <= 1 @ 2.\r\n", "unexpected character '@'", 2, 8),
            ("#int x 0..2.\r\nx <= 1\r\n", "missing the final '.'", 3, 1),
            ("#int x 0..2.\n\tx <=\t@ 1.", "unexpected character '@'", 2, 7),
            ("#int x 0..2.\nx <= 1 \n \t", "missing the final '.'", 3, 3),
        ],
    )
    def test_error_message_and_position(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            parse_theory(text)
        assert message in exc.value.message
        assert (exc.value.line, exc.value.column) == (line, column)


class TestRoundTrip:
    def golden(self, text):
        thy = parse_theory(text)
        assert parse_theory(pretty_print(thy)) == thy
        return thy

    def test_running_example(self):
        self.golden("#int x,y 0..9. #bool p. x - (y|3:p) <= 4.")

    def test_trivial_theory(self):
        thy = self.golden("#true.")
        assert pretty_print(thy) == "#true.\n"

    def test_rules(self):
        self.golden(
            "#int x, y 0..9. #bool p.\n"
            "x := 1 ; y := 0 .. 2 :- x <= y, not p.\n"
            ":- not p.\n"
            "x := y.\n"
        )

    def test_aggregates(self):
        self.golden(
            "#int x, y 0..9. #bool p.\n"
            "sum{ x ; y : p ; -2*x : not p } > 1 -> p.\n"
            "count{ p ; x <= 1 } >= 1.\n"
            "min{ x ; y : p } <= 3.\n"
            "max{ x } >= 0.\n"
        )

    def test_signs_and_zero(self):
        self.golden("#int x, y 0..9. -x + 0*y - 3 <= -2*y + 1.")

    def test_generated_formulas_round_trip(self):
        spec = DomainSpec.make({"x": (0, 2), "y": (0, 2)}, ["p"])
        for i in range(60):
            rng = random.Random(401_000_003 + i)
            thy = make_theory(spec, [gen_formula(rng, spec)])
            assert parse_theory(pretty_print(thy)) == thy

    def test_generated_rules_round_trip(self):
        spec = DomainSpec.make({"x": (0, 2), "y": (0, 2)}, ["p"])
        for i in range(60):
            rng = random.Random(402_000_003 + i)
            thy = make_theory(spec, [gen_lc_rule(rng, spec)])
            assert parse_theory(pretty_print(thy)) == thy

    def test_desugared_and_translated_theories_round_trip(self):
        from htc.transforms import eliminate_conditionals

        thy = parse_theory("#int x,y 0..3. #bool p. sum{ x ; y } > 1 -> p. x - (y|3:p) <= 4.")
        core = desugar_theory(thy)
        assert parse_theory(pretty_print(core)) == core
        translated = eliminate_conditionals(thy).theory()
        assert parse_theory(pretty_print(translated)) == translated

    def test_generated_names_stable_across_runs(self):
        from htc.transforms import eliminate_conditionals

        src = "#int x,y 0..9. #bool p. x - (y|3:p) <= 4."
        first = pretty_print(eliminate_conditionals(parse_theory(src)).theory())
        second = pretty_print(eliminate_conditionals(parse_theory(src)).theory())
        assert first == second and "__c0" in first


class TestPrinterGuards:
    def test_an_expression_is_not_a_formula(self):
        with pytest.raises(TypeError, match=r"^not a formula: LinearExpr\("):
            print_formula(LinearExpr((Scaled(1, "x"),)))

    def test_undefined_has_no_concrete_syntax(self):
        with pytest.raises(ValueError, match="^term u has no concrete syntax$"):
            print_expr(LinearExpr((U,)))


class TestEdgeCases:
    def test_empty_aggregate_parses_and_is_trivially_true(self):
        from htc.semantics import Valuation, stable_models

        thy = parse_theory("#int x 0..3. sum{} >= 0.")
        agg = thy.statements[0].lhs.items[0]
        assert isinstance(agg, Aggregate) and agg.elements == ()
        assert stable_models(thy) == [Valuation()]

    def test_degenerate_rule_round_trips(self):
        thy = parse_theory("#bool p. :-.")
        assert thy.statements[0] == LCRule()
        assert parse_theory(pretty_print(thy)) == thy

    @pytest.mark.parametrize("text", ["#false.", "p | #false."])
    def test_false_formula_round_trips(self, text):
        thy = parse_theory("#bool p. " + text)
        assert pretty_print(thy) == "#bool p.\n" + text + "\n"
        assert parse_theory(pretty_print(thy)) == thy

    def test_bare_rule_and_assignment_round_trip(self):
        rule = parse_formula("x := 1 ; y := 0 .. x :- x < y, not p")
        assert isinstance(rule, LCRule)
        assert parse_formula(pretty_print(rule).removesuffix(".")) == rule
        for a in rule.head:
            assert parse_formula(pretty_print(a)) == LCRule(head=(a,))

    def test_compound_rule_body_round_trips(self):
        thy = parse_theory("#int x, y 0..3. x := 1 :- x < y, not x != y.")
        core = desugar_theory(thy)
        assert parse_theory(pretty_print(core)) == core
