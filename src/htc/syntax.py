"""Abstract syntax for theories and rules over conditional linear constraints.

All nodes are immutable values (``_Value``), hashable and freely shareable;
the field-less ``TRUE``, ``U`` and ``BOT`` are singletons.
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
from functools import reduce
from operator import attrgetter, itemgetter
from typing import Iterator, Union

from .errors import BudgetError, DomainError, FreshNameError

# --------------------------------------------------------------------------
# Values

_set = object.__setattr__  # how an ``__init__`` stores a field


class _Value:
    """An immutable value: its fields, ``_fields``, are the ``__slots__`` of
    the nearest class that adds some, stored once through ``_set``.  Equal
    to a value of the same class with equal fields, hashed by its fields,
    printed as ``Class(field=value, ...)`` and pickled as a call of its class."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__dict__.get("__slots__"):  # one adding no slot inherits both
            cls._fields = cls.__slots__
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Constant:
    """A field-less value with one instance, equal only to itself, printed
    as its class's ``_text`` and pickled by its name here, ``_name``."""

    __slots__ = ()

    def __repr__(self):
        return self._text

    def __reduce__(self):
        return self._name


class Truth(_Constant):
    """The Boolean domain value, kept distinct from int to avoid bool/int mixups."""

    __slots__, _text, _name = (), "t", "TRUE"


class Undefined(_Constant):
    """Marker for an undefined term position in a substituted atom."""

    __slots__, _text, _name = (), "u", "U"


TRUE = Truth()
U = Undefined()

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
RESERVED_NAME_RE = re.compile(r"__(?:min|max|c)[0-9]+")

DEFAULT_INTERVAL = (0, 9)


def _check_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


class DomainSpec(_Value):
    """Finite enumeration universe: integer variables with intervals, Boolean variables.

    ``int_vars`` is a name-sorted tuple of ``(name, lo, hi)``; ``bool_vars``
    a name-sorted tuple of names, whatever order they are given in.
    Boolean variables range over {t}.
    """

    __slots__ = ("int_vars", "bool_vars")

    def __init__(self, int_vars=(), bool_vars=()):
        seen = set()
        # a Boolean variable is checked as if over the interval 0..0
        for name, lo, hi in (*int_vars, *((n, 0, 0) for n in bool_vars)):
            if not _NAME_RE.fullmatch(name) or name in KEYWORDS:
                raise DomainError(f"bad variable name {name!r}")
            _check_int(lo, "interval bound")
            _check_int(hi, "interval bound")
            if lo > hi:
                raise DomainError(f"empty interval {lo}..{hi} for {name}")
            if name in seen:
                raise DomainError(f"variable {name} declared twice")
            seen.add(name)
        _set(self, "int_vars", tuple(sorted(int_vars, key=itemgetter(0))))
        _set(self, "bool_vars", tuple(sorted(bool_vars)))

    @classmethod
    def make(cls, ints=None, bools=()) -> "DomainSpec":
        """Build a spec from ``{name: (lo, hi)}`` and an iterable of Boolean names."""
        ints = dict(ints or {}).items()
        return cls(tuple((n, lo, hi) for n, (lo, hi) in ints), tuple(bools))

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
        return DomainSpec(self.int_vars + ((name, lo, hi),), self.bool_vars)

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


class Const(_Value):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", _check_int(value, "constant"))


class Scaled(_Value):
    """coeff * var; Scaled(0, x) is kept distinct from Const(0) on purpose."""

    __slots__ = ("coeff", "var")

    def __init__(self, coeff: int, var: str):
        _set(self, "coeff", _check_int(coeff, "coefficient"))
        _set(self, "var", var)


LinearTerm = Union[Const, Scaled]


class ConditionalTerm(_Value):
    """(then | else : condition); the condition must be condition-free."""

    __slots__ = ("then_term", "else_term", "condition")

    def __init__(self, then_term: LinearTerm, else_term: LinearTerm, condition: "Formula"):
        for kind, t in (("then_term", then_term), ("else_term", else_term)):
            if not isinstance(t, (Const, Scaled)):
                raise TypeError(f"{kind} must be a linear term, got {t!r}")
        if not is_condition_free(condition):
            raise ValueError("nested conditional expressions are not allowed")
        _set(self, "then_term", then_term)
        _set(self, "else_term", else_term)
        _set(self, "condition", condition)


class AggregateElement(_Value):
    __slots__ = ("term", "condition")

    def __init__(self, term: LinearTerm, condition: "Formula"):
        if not isinstance(term, (Const, Scaled)):
            raise TypeError("aggregate element term must be a linear term")
        if not is_condition_free(condition):
            raise ValueError("aggregate element conditions must be condition-free")
        _set(self, "term", term)
        _set(self, "condition", condition)


AGGREGATES = ("sum", "count", "min", "max")
# the words the concrete syntax reserves; no variable may take one as its name
KEYWORDS = ("not", "def") + AGGREGATES


class Aggregate(_Value):
    """Surface aggregate expression; removed entirely by desugaring.

    ``count`` elements carry the implicit term 1.
    """

    __slots__ = ("func", "elements")

    def __init__(self, func: str, elements: tuple):
        if func not in AGGREGATES:
            raise ValueError(f"unknown aggregate function {func!r}")
        if func == "count":
            for el in elements:
                if el.term != Const(1):
                    raise ValueError("count elements carry the implicit term 1")
        _set(self, "func", func)
        _set(self, "elements", elements)


Term = Union[Const, Scaled, ConditionalTerm, Undefined, Aggregate]


class LinearExpr(_Value):
    """Finite ordered sum of terms; order and duplicates are significant."""

    __slots__ = ("items",)

    def __init__(self, items: tuple):
        if not items:
            raise ValueError("linear expressions must be non-empty")
        _set(self, "items", items)


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


class Bot(_Constant):
    """#false; ``BOT`` is its one instance."""

    __slots__, _text, _name = (), "Bot()", "BOT"


class Comparison(_Value):
    __slots__ = ("lhs", "rel", "rhs")

    def __init__(self, lhs: LinearExpr, rel: str, rhs: LinearExpr):
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        _set(self, "lhs", lhs)
        _set(self, "rel", rel)
        _set(self, "rhs", rhs)


class Defined(_Value):
    """def(e): shorthand atom for e <= e, removed by desugaring."""

    __slots__ = ("arg",)

    def __init__(self, arg: LinearExpr):
        _set(self, "arg", arg)


class BoolAtom(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class _Binary(_Value):
    """A connective over two formulas: ``And``, ``Or`` and ``Implies`` add
    no field, and as every value each equals only values of its own class."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: "Formula", rhs: "Formula"):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


Formula = Union[Bot, Comparison, Defined, BoolAtom, And, Or, Implies]

BOT = Bot()
TOP = Implies(BOT, BOT)


def Not(phi) -> Implies:
    return Implies(phi, BOT)


def is_top(phi) -> bool:
    """phi is #true; ``BOT`` is the one Bot, so identity decides."""
    return type(phi) is Implies and phi.lhs is BOT and phi.rhs is BOT


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
    """Conjunction that drops a #true first operand (``b`` is always an atom)."""
    return b if is_top(a) else And(a, b)


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


class Assignment(_Value):
    """x := lower .. upper (bounds may coincide, the sugar x := e)."""

    __slots__ = ("target", "lower", "upper")

    def __init__(self, target: str, lower: LinearExpr, upper: LinearExpr):
        _set(self, "target", target)
        _set(self, "lower", lower)
        _set(self, "upper", upper)

    @property
    def point(self) -> bool:
        return self.lower == self.upper


class LCRule(_Value):
    """head_1 ; ... ; head_n  :-  pos_1, ..., pos_m, not neg_1, ..., not neg_k."""

    __slots__ = ("head", "pos_body", "neg_body")

    def __init__(self, head: tuple = (), pos_body: tuple = (), neg_body: tuple = ()):
        _set(self, "head", head)
        _set(self, "pos_body", pos_body)
        _set(self, "neg_body", neg_body)


Statement = Union[Formula, LCRule]


class Theory(_Value):
    __slots__ = ("spec", "statements")

    def __init__(self, spec: DomainSpec, statements=()):
        _set(self, "spec", spec)
        _set(self, "statements", tuple(statements))
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
        undeclared = used - set(spec.variables())
        if undeclared:
            raise DomainError(f"undeclared variables: {', '.join(sorted(undeclared))}")
        for name in atoms:
            if not spec.is_bool(name):
                raise DomainError(f"{name} is used as an atom but is not Boolean")
        for name in targets:
            if not spec.is_int(name):
                raise DomainError(f"assignment target {name} is not an integer variable")

    @property
    def rules(self) -> tuple:
        return tuple(s for s in self.statements if isinstance(s, LCRule))

    @property
    def is_lc_program(self) -> bool:
        """An LC-program: every statement is a rule."""
        return all(isinstance(s, LCRule) for s in self.statements)


make_theory = Theory  # the older name of the one constructor


def _theory(spec: DomainSpec, statements) -> Theory:
    """``Theory`` without the declaration walk, for checked statements."""
    thy = Theory.__new__(Theory)
    _set(thy, "spec", spec)
    _set(thy, "statements", tuple(statements))
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
    return not any(map(_is_sugar, nodes(obj)))


def _is_sugar(node) -> bool:
    """An aggregate, a def atom or a comparison other than <=."""
    return type(node) in (Aggregate, Defined) or (type(node) is Comparison and node.rel != "<=")


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
        return eq_pair(lhs, rhs)
    if rel == "!=":
        return Or(_expand_relation(lhs, "<", rhs), _expand_relation(rhs, "<", lhs))
    if rel == ">=":
        return le(rhs, lhs)
    return _expand_relation(rhs, "<", lhs)  # > is the one relation left


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
    return Aggregate("sum", agg.elements)  # each element's term is already 1


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
    strict, weak = {"min": ("<", "<="), "max": (">", ">=")}[agg.func]
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
    none_beyond = count_atom("<=", 0, strict)
    some_reaches = count_atom(">=", 1, weak)
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


def terms_hull(terms, spec: DomainSpec) -> tuple:
    """Value hull of several linear terms over a spec; (0, 0) for none."""
    ranges = [linear_term_range(t, spec) for t in terms] or [(0, 0)]
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
    if not any(type(n) is Aggregate for n in nodes(thy)):
        return thy
    fresh = FreshNames(thy.spec.variables())
    spec = thy.spec
    sides = []

    def replace(e: LinearExpr) -> LinearExpr:
        nonlocal spec
        items = []
        for item in e.items:
            if type(item) is not Aggregate:
                items.append(item)
                continue
            agg = desugar_count(item) if item.func == "count" else item
            if agg.func == "sum":
                items.extend(desugar_sum(agg).items)
            else:
                hull = terms_hull([el.term for el in agg.elements], spec)
                name, side = desugar_minmax(agg, fresh)
                spec = spec.with_int_var(name, *hull)
                sides.extend(side)
                items.append(Scaled(1, name))
        return LinearExpr(tuple(items))

    statements = [map_exprs(s, replace) for s in thy.statements]
    return _theory(spec, statements + sides)


def desugar_theory(thy: Theory) -> Theory:
    """Remove aggregates, then extended relations and def, from every statement.

    The result is core: only <= atoms over linear expressions (possibly with
    conditional terms), Boolean atoms and connectives.  Idempotent: a core
    theory comes back as it is.
    """
    sugar = {type(n) for n in nodes(thy) if _is_sugar(n)}
    if not sugar:
        return thy
    if Aggregate in sugar:
        thy = desugar_aggregates(thy)
    return _theory(thy.spec, [desugar_comparisons(s) for s in thy.statements])
