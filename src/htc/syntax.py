"""Abstract syntax for theories and rules over conditional linear constraints.

All nodes are immutable (frozen dataclasses), hashable and freely shareable.
The surface language includes comparison relations beyond ``<=``, ``def``
atoms and aggregate expressions; the desugaring pass removes all of them,
leaving only ``<=`` atoms over linear expressions, Boolean atoms and the
connectives of the core formula language.  A ``Theory`` holds formulas and
rules over one spec; it is an LC-program when every statement is a rule
(``is_lc_program``).

``children``, ``nodes`` and ``map_exprs`` are the one place that knows which
node holds which subnodes; every query and rewrite over theories, rules and
formulas goes through them.  ``map_exprs`` visits linear expressions lhs
before rhs, lower before upper bound (a point assignment's bound once), and
head before positive body before negative body.  Fresh names ``__c<k>``,
``__min<k>`` and ``__max<k>`` are numbered in that order, statement by
statement; min/max side formulas, appended after all statements, hold no
aggregate and mint no name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Union

from .errors import BudgetError, DomainError, FreshNameError

# --------------------------------------------------------------------------
# Domain values


@dataclass(frozen=True)
class Truth:
    """The Boolean domain value, kept distinct from int to avoid bool/int mixups."""

    def __repr__(self):
        return "t"


@dataclass(frozen=True)
class Undefined:
    """Marker for an undefined term position in a substituted atom."""

    def __repr__(self):
        return "u"


TRUE = Truth()
U = Undefined()

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
RESERVED_NAME_RE = re.compile(r"^__(?:min|max|c)\d+$")

DEFAULT_INTERVAL = (0, 9)


def _check_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


@dataclass(frozen=True)
class DomainSpec:
    """Finite enumeration universe: integer variables with intervals, Boolean variables.

    ``int_vars`` is a name-sorted tuple of ``(name, lo, hi)``; ``bool_vars``
    a name-sorted tuple of names.  Boolean variables range over {t}.
    """

    int_vars: tuple = ()
    bool_vars: tuple = ()

    def __post_init__(self):
        seen = set()
        for name, lo, hi in self.int_vars:
            if not _NAME_RE.match(name):
                raise DomainError(f"bad variable name {name!r}")
            _check_int(lo, "interval bound")
            _check_int(hi, "interval bound")
            if lo > hi:
                raise DomainError(f"empty interval {lo}..{hi} for {name}")
            if name in seen:
                raise DomainError(f"variable {name} declared twice")
            seen.add(name)
        for name in self.bool_vars:
            if not _NAME_RE.match(name):
                raise DomainError(f"bad variable name {name!r}")
            if name in seen:
                raise DomainError(f"variable {name} declared twice")
            seen.add(name)

    @classmethod
    def make(cls, ints=None, bools=()) -> "DomainSpec":
        """Build a spec from ``{name: (lo, hi)}`` and an iterable of Boolean names."""
        ints = dict(ints or {})
        int_vars = tuple(sorted((n, lo, hi) for n, (lo, hi) in ints.items()))
        bool_vars = tuple(sorted(bools))
        return cls(int_vars, bool_vars)

    def variables(self) -> tuple:
        """All declared names, sorted."""
        return tuple(sorted([n for n, _, _ in self.int_vars] + list(self.bool_vars)))

    def is_declared(self, name: str) -> bool:
        return self.is_int(name) or self.is_bool(name)

    def is_int(self, name: str) -> bool:
        return any(n == name for n, _, _ in self.int_vars)

    def is_bool(self, name: str) -> bool:
        return name in self.bool_vars

    def interval(self, name: str) -> tuple:
        for n, lo, hi in self.int_vars:
            if n == name:
                return (lo, hi)
        raise DomainError(f"{name} is not a declared integer variable")

    def domain_values(self, name: str) -> tuple:
        """The (ordered) domain of one variable; undefined is not included."""
        if self.is_bool(name):
            return (TRUE,)
        lo, hi = self.interval(name)
        return tuple(range(lo, hi + 1))

    def with_int_var(self, name: str, lo: int, hi: int) -> "DomainSpec":
        if self.is_declared(name):
            raise DomainError(f"variable {name} declared twice")
        return DomainSpec(
            tuple(sorted(self.int_vars + ((name, lo, hi),))), self.bool_vars
        )

    def interpretation_count(self) -> int:
        """Number of here-and-there pairs over this spec: prod(2*|D_x| + 1)."""
        n = 1
        for name, lo, hi in self.int_vars:
            n *= 2 * (hi - lo + 1) + 1
        n *= 3 ** len(self.bool_vars)
        return n


DEFAULT_BUDGET = 10_000_000


def check_budget(spec: "DomainSpec", budget=None):
    """Refuse specs whose exhaustive enumeration would be too large."""
    limit = DEFAULT_BUDGET if budget is None else budget
    n = spec.interpretation_count()
    if n > limit:
        raise BudgetError(
            f"domain spec spans {n} interpretations, over the budget of {limit}"
        )


# --------------------------------------------------------------------------
# Terms and linear expressions


@dataclass(frozen=True)
class Const:
    value: int

    def __post_init__(self):
        _check_int(self.value, "constant")


@dataclass(frozen=True)
class Scaled:
    """coeff * var; Scaled(0, x) is kept distinct from Const(0) on purpose."""

    coeff: int
    var: str

    def __post_init__(self):
        _check_int(self.coeff, "coefficient")


LinearTerm = Union[Const, Scaled]


@dataclass(frozen=True)
class ConditionalTerm:
    """(then | else : condition); the condition must be condition-free."""

    then_term: LinearTerm
    else_term: LinearTerm
    condition: "Formula"

    def __post_init__(self):
        for kind in ("then_term", "else_term"):
            t = getattr(self, kind)
            if not isinstance(t, (Const, Scaled)):
                raise TypeError(f"{kind} must be a linear term, got {t!r}")
        if not is_condition_free(self.condition):
            raise ValueError("nested conditional expressions are not allowed")


@dataclass(frozen=True)
class AggregateElement:
    term: LinearTerm
    condition: "Formula"

    def __post_init__(self):
        if not isinstance(self.term, (Const, Scaled)):
            raise TypeError("aggregate element term must be a linear term")
        if not is_condition_free(self.condition):
            raise ValueError("aggregate element conditions must be condition-free")


AGGREGATES = ("sum", "count", "min", "max")


@dataclass(frozen=True)
class Aggregate:
    """Surface aggregate expression; removed entirely by desugaring.

    ``count`` elements carry the implicit term 1.
    """

    func: str
    elements: tuple

    def __post_init__(self):
        if self.func not in AGGREGATES:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.func == "count":
            for el in self.elements:
                if el.term != Const(1):
                    raise ValueError("count elements carry the implicit term 1")


Term = Union[Const, Scaled, ConditionalTerm, Undefined, Aggregate]


@dataclass(frozen=True)
class LinearExpr:
    """Finite ordered sum of terms; order and duplicates are significant."""

    items: tuple

    def __post_init__(self):
        if not self.items:
            raise ValueError("linear expressions must be non-empty")

    def __iter__(self) -> Iterator:
        return iter(self.items)


def expr(*items) -> LinearExpr:
    return LinearExpr(tuple(items))


def var_expr(name: str) -> LinearExpr:
    return LinearExpr((Scaled(1, name),))


def const_expr(value: int) -> LinearExpr:
    return LinearExpr((Const(value),))


def negated_term(term):
    """Branch-wise negation; definedness behaviour is preserved."""
    if isinstance(term, Const):
        return Const(-term.value)
    if isinstance(term, Scaled):
        return Scaled(-term.coeff, term.var)
    if isinstance(term, ConditionalTerm):
        return ConditionalTerm(
            negated_term(term.then_term), negated_term(term.else_term), term.condition
        )
    raise TypeError(f"cannot negate {term!r}")


# --------------------------------------------------------------------------
# Formulas

RELATIONS = ("<=", "<", "=", "!=", ">=", ">")


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Comparison:
    lhs: LinearExpr
    rel: str
    rhs: LinearExpr

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class Defined:
    """def(e): shorthand atom for e <= e, removed by desugaring."""

    arg: LinearExpr


@dataclass(frozen=True)
class BoolAtom:
    name: str


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


Formula = Union[Bot, Comparison, Defined, BoolAtom, And, Or, Implies]

BOT = Bot()
TOP = Implies(BOT, BOT)


def Not(phi) -> Implies:
    return Implies(phi, BOT)


def conj(parts) -> Formula:
    """Left-nested conjunction; empty becomes #true."""
    parts = list(parts)
    if not parts:
        return TOP
    return reduce(And, parts)


def disj(parts) -> Formula:
    """Left-nested disjunction; empty becomes #false."""
    parts = list(parts)
    if not parts:
        return BOT
    return reduce(Or, parts)


def conj2(a, b) -> Formula:
    """Conjunction that drops #true operands, to match the usual displayed forms."""
    if a == TOP:
        return b
    if b == TOP:
        return a
    return And(a, b)


def le(lhs: LinearExpr, rhs: LinearExpr) -> Comparison:
    return Comparison(lhs, "<=", rhs)


def defined(e: LinearExpr) -> Comparison:
    """Core form of def(e), the atom e <= e."""
    return le(e, e)


def eq_pair(lhs: LinearExpr, rhs: LinearExpr) -> And:
    """Core form of lhs = rhs, the conjunction (lhs <= rhs) & (rhs <= lhs)."""
    return And(le(lhs, rhs), le(rhs, lhs))


# --------------------------------------------------------------------------
# Assignments, rules, theories


@dataclass(frozen=True)
class Assignment:
    """x := lower .. upper (bounds may coincide, the sugar x := e)."""

    target: str
    lower: LinearExpr
    upper: LinearExpr

    @property
    def point(self) -> bool:
        return self.lower == self.upper


@dataclass(frozen=True)
class LCRule:
    """head_1 ; ... ; head_n  :-  pos_1, ..., pos_m, not neg_1, ..., not neg_k."""

    head: tuple = ()
    pos_body: tuple = ()
    neg_body: tuple = ()


Statement = Union[Formula, LCRule]


@dataclass(frozen=True)
class Theory:
    spec: DomainSpec
    statements: tuple = ()

    def __post_init__(self):
        used, atoms, targets = set(), [], []
        for node in nodes(self):
            if type(node) is Scaled:
                used.add(node.var)
            elif type(node) is BoolAtom:
                used.add(node.name)
                atoms.append(node.name)
            elif type(node) is Assignment:
                used.add(node.target)
                targets.append(node.target)
        undeclared = used - set(self.spec.variables())
        if undeclared:
            raise DomainError(f"undeclared variables: {', '.join(sorted(undeclared))}")
        for name in atoms:
            if not self.spec.is_bool(name):
                raise DomainError(f"{name} is used as an atom but is not Boolean")
        for name in targets:
            if not self.spec.is_int(name):
                raise DomainError(f"assignment target {name} is not an integer variable")

    @property
    def rules(self) -> tuple:
        return tuple(s for s in self.statements if isinstance(s, LCRule))

    @property
    def is_lc_program(self) -> bool:
        """An LC-program: every statement is a rule."""
        return all(isinstance(s, LCRule) for s in self.statements)


def make_theory(spec: DomainSpec, statements) -> Theory:
    """Build a Theory from any iterable of statements."""
    return Theory(spec, tuple(statements))


def _theory(spec: DomainSpec, statements) -> Theory:
    """``make_theory`` without the declaration walk, for checked statements."""
    thy = Theory.__new__(Theory)
    object.__setattr__(thy, "spec", spec)
    object.__setattr__(thy, "statements", tuple(statements))
    return thy


# --------------------------------------------------------------------------
# Traversal: the one place that knows which node holds which children


def _binary(node):
    return (node.lhs, node.rhs)


def _leaf(node):
    return ()


_CHILDREN = {
    Const: _leaf,
    Scaled: _leaf,
    Undefined: _leaf,
    Bot: _leaf,
    BoolAtom: _leaf,
    ConditionalTerm: lambda n: (n.then_term, n.else_term, n.condition),
    AggregateElement: lambda n: (n.term, n.condition),
    Aggregate: lambda n: n.elements,
    LinearExpr: lambda n: n.items,
    Comparison: _binary,
    Defined: lambda n: (n.arg,),
    And: _binary,
    Or: _binary,
    Implies: _binary,
    Assignment: lambda n: (n.lower, n.upper),
    LCRule: lambda n: n.head + n.pos_body + n.neg_body,
    Theory: lambda n: n.statements,
}


def children(node) -> tuple:
    """The immediate subnodes of a syntax node, in source order."""
    try:
        shape = _CHILDREN[type(node)]
    except KeyError:
        raise TypeError(f"not a syntax node: {node!r}") from None
    return shape(node)


def nodes(obj) -> Iterator:
    """Every node of a syntax tree, in preorder and source order."""
    stack = [obj]
    while stack:
        node = stack.pop()
        yield node
        kids = children(node)
        if kids:
            stack.extend(reversed(kids))


def map_exprs(stmt, f, atom=None):
    """Rebuild a formula or rule with every linear expression e replaced by f(e).

    Expressions are comparison sides, def arguments and assignment bounds,
    visited lhs before rhs, lower before upper, and head before positive
    body before negative body; a point assignment's bound is visited once.
    With ``atom``, each rebuilt atom a is then replaced by atom(a).
    """
    tp = type(stmt)
    if tp in (And, Or, Implies):
        return tp(map_exprs(stmt.lhs, f, atom), map_exprs(stmt.rhs, f, atom))
    if tp is LCRule:
        return LCRule(
            tuple(_map_bounds(a, f) for a in stmt.head),
            tuple(map_exprs(b, f, atom) for b in stmt.pos_body),
            tuple(map_exprs(b, f, atom) for b in stmt.neg_body),
        )
    if tp is Comparison:
        stmt = Comparison(f(stmt.lhs), stmt.rel, f(stmt.rhs))
    elif tp is Defined:
        stmt = Defined(f(stmt.arg))
    elif tp is Bot:
        return stmt
    elif tp is not BoolAtom:
        raise TypeError(f"not a formula or rule: {stmt!r}")
    return stmt if atom is None else atom(stmt)


def _map_bounds(a: Assignment, f) -> Assignment:
    lower = f(a.lower)
    return Assignment(a.target, lower, lower if a.point else f(a.upper))


def free_vars(obj) -> set:
    """Variables occurring syntactically in a term, formula, rule or theory."""
    out: set = set()
    for node in nodes(obj):
        if type(node) is Scaled:
            out.add(node.var)
        elif type(node) is BoolAtom:
            out.add(node.name)
        elif type(node) is Assignment:
            out.add(node.target)
    return out


def is_condition_free(obj) -> bool:
    """True when no conditional term (or aggregate, which hides one) occurs
    in a formula or expression."""
    if isinstance(obj, (Theory, LCRule, Assignment, AggregateElement)):
        raise TypeError(f"not a formula or expression: {obj!r}")
    return not any(isinstance(n, (ConditionalTerm, Aggregate)) for n in nodes(obj))


def is_core(obj) -> bool:
    """True when desugared: only <= atoms, Boolean atoms and connectives remain."""
    return not any(
        isinstance(n, (Aggregate, Defined)) or (type(n) is Comparison and n.rel != "<=")
        for n in nodes(obj)
    )


# --------------------------------------------------------------------------
# Fresh names


class FreshNames:
    """Supply of generated names __c<k>, __min<k>, __max<k>, one counter per family.

    Collisions with already-taken names raise; the supply is confined to a
    single transformation pass.
    """

    def __init__(self, taken=()):
        self._taken = set(taken)
        self._counters = {"c": 0, "min": 0, "max": 0}

    def fresh(self, family: str) -> str:
        if family not in self._counters:
            raise ValueError(f"unknown name family {family!r}")
        name = f"__{family}{self._counters[family]}"
        self._counters[family] += 1
        if name in self._taken:
            raise FreshNameError(f"generated name {name} collides with a declared variable")
        self._taken.add(name)
        return name


# --------------------------------------------------------------------------
# Desugaring: comparisons and def


def desugar_comparisons(stmt):
    """Expand <, =, !=, >=, > and def into <= atoms in a formula or rule.

    Conditions inside conditional terms and aggregate elements are expanded
    as well; aggregate structure itself is left alone.
    """
    return map_exprs(stmt, _desugar_expr_conditions, _core_atom)


def _core_atom(atom):
    if type(atom) is Comparison:
        return _expand_relation(atom.lhs, atom.rel, atom.rhs)
    if type(atom) is Defined:
        return defined(atom.arg)
    return atom


def _expand_relation(lhs, rel, rhs):
    if rel == "<=":
        return le(lhs, rhs)
    if rel == "<":
        return And(le(lhs, rhs), Not(le(rhs, lhs)))
    if rel == "=":
        return And(le(lhs, rhs), le(rhs, lhs))
    if rel == "!=":
        return Or(_expand_relation(lhs, "<", rhs), _expand_relation(rhs, "<", lhs))
    if rel == ">=":
        return le(rhs, lhs)
    if rel == ">":
        return _expand_relation(rhs, "<", lhs)
    raise ValueError(rel)


def _desugar_expr_conditions(e: LinearExpr) -> LinearExpr:
    items = []
    for item in e.items:
        if isinstance(item, ConditionalTerm):
            cond = desugar_comparisons(item.condition)
            item = ConditionalTerm(item.then_term, item.else_term, cond)
        elif isinstance(item, Aggregate):
            elements = tuple(
                AggregateElement(el.term, desugar_comparisons(el.condition))
                for el in item.elements
            )
            item = Aggregate(item.func, elements)
        items.append(item)
    return LinearExpr(tuple(items))


# --------------------------------------------------------------------------
# Desugaring: aggregates


def desugar_sum(agg: Aggregate) -> LinearExpr:
    """sum{l_1:f_1, ...} as the sum of conditional terms (l_i | 0 : f_i & def(l_i)).

    The def conjunct keeps undefined element terms out of the multiset
    instead of poisoning the whole sum; #true conditions are dropped so the
    guard is just def(l_i).  The empty sum is the constant 0.
    """
    if agg.func != "sum":
        raise ValueError("desugar_sum expects a sum aggregate")
    if not agg.elements:
        return const_expr(0)
    items = []
    for el in agg.elements:
        guard = conj2(el.condition, Defined(LinearExpr((el.term,))))
        items.append(ConditionalTerm(el.term, Const(0), guard))
    return LinearExpr(tuple(items))


def desugar_count(agg: Aggregate) -> Aggregate:
    """count{f_1, ...} as sum{1:f_1, ...}."""
    if agg.func != "count":
        raise ValueError("desugar_count expects a count aggregate")
    return Aggregate(
        "sum", tuple(AggregateElement(Const(1), el.condition) for el in agg.elements)
    )


def desugar_minmax(agg: Aggregate, fresh: FreshNames):
    """Replace min{s_i:f_i} (or max) by a fresh variable plus defining formulas.

    Returns ``(name, side_formulas)``.  The variable is defined exactly when
    some element is present, no element may be strictly smaller (min) or
    greater (max), and some element must reach it.  The side formulas count
    elements as ``desugar_sum`` reads sum{1:f_1, ...}, so they hold no
    aggregate; they still contain strict comparisons and def atoms.
    """
    if agg.func not in ("min", "max"):
        raise ValueError("desugar_minmax expects a min or max aggregate")
    name = fresh.fresh(agg.func)
    x = var_expr(name)

    def count_atom(rel, bound, element_rel=None):
        elements = []
        for el in agg.elements:
            s = LinearExpr((el.term,))
            if element_rel is None:
                sub = Defined(s)
            else:
                sub = Comparison(s, element_rel, x)
            elements.append(AggregateElement(Const(1), conj2(el.condition, sub)))
        cnt = desugar_sum(Aggregate("sum", tuple(elements)))
        return Comparison(cnt, rel, const_expr(bound))

    nonempty = count_atom(">=", 1)
    if agg.func == "min":
        none_beyond = count_atom("<=", 0, "<")
        some_reaches = count_atom(">=", 1, "<=")
    else:
        none_beyond = count_atom("<=", 0, ">")
        some_reaches = count_atom(">=", 1, ">=")
    side = (
        Implies(Defined(x), nonempty),
        Implies(nonempty, Defined(x)),
        Implies(Defined(x), And(none_beyond, some_reaches)),
    )
    return name, side


def linear_term_range(term: LinearTerm, spec: DomainSpec) -> tuple:
    """Value hull of a linear term over a spec (Boolean variables give (0, 0))."""
    if isinstance(term, Const):
        return (term.value, term.value)
    if isinstance(term, Scaled):
        if term.coeff == 0 or not spec.is_int(term.var):
            return (0, 0)
        lo, hi = spec.interval(term.var)
        a, b = term.coeff * lo, term.coeff * hi
        return (min(a, b), max(a, b))
    raise TypeError(f"not a linear term: {term!r}")


def _aggregate_hull(agg: Aggregate, spec: DomainSpec) -> tuple:
    ranges = [linear_term_range(el.term, spec) for el in agg.elements]
    if not ranges:
        return (0, 0)
    return (min(lo for lo, _ in ranges), max(hi for _, hi in ranges))


# --------------------------------------------------------------------------
# Desugaring: full pass over theories


def desugar_aggregates(thy: Theory) -> Theory:
    """Remove every aggregate, leaving extended relations and def in place.

    sum and count become conditional terms spliced into their expression;
    min/max mint fresh integer variables whose intervals hull the element
    term ranges, with their defining formulas appended after the original
    statements.  Idempotent: a theory without aggregates comes back as it is.
    """
    fresh = FreshNames(thy.spec.variables())
    spec = thy.spec
    sides = []
    found = False

    def replace(e: LinearExpr) -> LinearExpr:
        nonlocal spec, found
        items = []
        for item in e.items:
            if type(item) is not Aggregate:
                items.append(item)
                continue
            found = True
            agg = desugar_count(item) if item.func == "count" else item
            if agg.func == "sum":
                items.extend(desugar_sum(agg).items)
            else:
                lo, hi = _aggregate_hull(agg, spec)
                name, side = desugar_minmax(agg, fresh)
                spec = spec.with_int_var(name, lo, hi)
                sides.extend(side)
                items.append(Scaled(1, name))
        return LinearExpr(tuple(items))

    statements = [map_exprs(s, replace) for s in thy.statements]
    if not found:
        return thy
    return _theory(spec, statements + sides)


def desugar_theory(thy: Theory) -> Theory:
    """Remove aggregates, then extended relations and def, from every statement.

    The result is core: only <= atoms over linear expressions (possibly with
    conditional terms), Boolean atoms and connectives.  Idempotent: a core
    theory comes back as it is.
    """
    if is_core(thy):
        return thy
    thy = desugar_aggregates(thy)
    return _theory(thy.spec, [desugar_comparisons(s) for s in thy.statements])
