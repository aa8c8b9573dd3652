"""The syntax traversal: ``children``, ``nodes`` and ``map_exprs``."""

import pytest

from htc.syntax import (
    BOT,
    TOP,
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
    Implies,
    LCRule,
    LinearExpr,
    Or,
    Scaled,
    Theory,
    Undefined,
    children,
    const_expr,
    le,
    map_exprs,
    nodes,
    var_expr,
)

X = var_expr("x")
ONE = const_expr(1)
COND = ConditionalTerm(Const(1), Const(0), BoolAtom("p"))
ELEMENT = AggregateElement(Scaled(2, "x"), BoolAtom("p"))
POINT = Assignment("x", ONE, ONE)
RULE = LCRule((POINT,), (BoolAtom("p"),), (le(X, ONE),))
SPEC = DomainSpec.make({"x": (0, 2)}, ["p"])

# one instance of every node class, with its children in source order
SHAPES = [
    (Const(3), ()),
    (Scaled(2, "x"), ()),
    (U, ()),
    (BOT, ()),
    (BoolAtom("p"), ()),
    (COND, (Const(1), Const(0), BoolAtom("p"))),
    (ELEMENT, (Scaled(2, "x"), BoolAtom("p"))),
    (Aggregate("sum", (ELEMENT, ELEMENT)), (ELEMENT, ELEMENT)),
    (LinearExpr((Const(1), COND)), (Const(1), COND)),
    (Comparison(X, "<", ONE), (X, ONE)),
    (Defined(X), (X,)),
    (And(BoolAtom("p"), BOT), (BoolAtom("p"), BOT)),
    (Or(BOT, BoolAtom("p")), (BOT, BoolAtom("p"))),
    (Implies(BoolAtom("p"), BOT), (BoolAtom("p"), BOT)),
    (POINT, (ONE, ONE)),
    (RULE, (POINT, BoolAtom("p"), le(X, ONE))),
    (Theory(SPEC, (RULE, TOP)), (RULE, TOP)),
]


class TestChildren:
    def test_every_node_class_is_covered(self):
        classes = {type(node) for node, _ in SHAPES}
        assert classes == {
            Const, Scaled, Undefined, Bot, BoolAtom, ConditionalTerm,
            AggregateElement, Aggregate, LinearExpr, Comparison, Defined, And, Or,
            Implies, Assignment, LCRule, Theory,
        }

    @pytest.mark.parametrize("node, expected", SHAPES)
    def test_children_in_source_order(self, node, expected):
        assert tuple(children(node)) == expected

    @pytest.mark.parametrize("value", [3, "x", None, (BOT,), SPEC])
    def test_non_node_raises(self, value):
        with pytest.raises(TypeError):
            children(value)

    def test_nodes_is_preorder(self):
        phi = And(le(X, ONE), BoolAtom("p"))
        assert list(nodes(phi)) == [
            phi, le(X, ONE), X, Scaled(1, "x"), ONE, Const(1), BoolAtom("p")
        ]


class TestMapExprs:
    def test_visiting_order(self):
        seen = []

        def record(e):
            seen.append(e)
            return e

        a, b, c, d = (const_expr(k) for k in range(4))
        rule = LCRule(
            (Assignment("x", a, a), Assignment("x", b, c)),
            (Defined(d), le(c, b)),
            (Or(le(a, d), BOT),),
        )
        assert map_exprs(rule, record) == rule
        # a point assignment's bound is mapped once
        assert seen == [a, b, c, d, c, b, a, d]

    def test_atoms_rewritten_after_their_expressions(self):
        def shift(e):
            return LinearExpr(e.items + (Const(1),))

        phi = Implies(Comparison(X, ">", ONE), BoolAtom("p"))
        out = map_exprs(phi, shift, lambda a: And(a, a) if isinstance(a, Comparison) else a)
        shifted = Comparison(shift(X), ">", shift(ONE))
        assert out == Implies(And(shifted, shifted), BoolAtom("p"))

    def test_rejects_non_statements(self):
        with pytest.raises(TypeError):
            map_exprs(X, lambda e: e)
