"""Satisfaction and model enumeration over finite domains.

Interpretations are pairs ``<h, t>`` of partial valuations with ``h``
included in ``t``.  A conditional term picks its "then" branch when the
condition holds at ``<h, t>``, its "else" branch when the condition fails at
``<t, t>``, and is undefined otherwise; an atom holds when ``h`` lies in the
denotation of the unfolded, condition-free atom.  Everything else is plain
here-and-there: implications are checked at both worlds, and a stable
(equilibrium) model is a total model ``<t, t>`` with no proper ``h`` below it
that still satisfies the theory.

Every model reader sits on one enumeration core: ``total_models`` yields the
t whose ``<t, t>`` satisfies the formulas, and ``models_below`` yields the h
below one such t with ``<h, t>`` satisfying them.  Reading only the h below
total models loses nothing, by persistence: if ``<h, t>`` satisfies a
formula, so does ``<t, t>``.

The enumeration is exhaustive by design and refuses domain specs whose
interpretation count exceeds a budget (default 10**7).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .syntax import (
    And,
    BoolAtom,
    Bot,
    Comparison,
    Const,
    ConditionalTerm,
    Defined,
    DomainSpec,
    Implies,
    LinearExpr,
    Not,
    Or,
    Scaled,
    Theory,
    TruthConst,
    TRUE,
    U,
    Undefined,
    _desugar_expr_conditions,
    check_budget,
    desugar_theory,
    map_exprs,
)

# --------------------------------------------------------------------------
# Valuations and interpretations


class Valuation:
    """Immutable partial map from variables to domain values.

    Undefined variables are simply absent, so subset comparison is plain
    set inclusion on the defined pairs.
    """

    __slots__ = ("_pairs", "_map", "_hash")

    def __init__(self, pairs=()):
        mapping = dict(pairs)
        self._pairs = tuple(sorted(mapping.items()))
        self._map = mapping
        self._hash = hash(self._pairs)

    def get(self, name):
        """The value of ``name``, or None when undefined."""
        return self._map.get(name)

    def names(self) -> tuple:
        return tuple(n for n, _ in self._pairs)

    def items(self) -> tuple:
        return self._pairs

    def __len__(self):
        return len(self._pairs)

    def __eq__(self, other):
        return isinstance(other, Valuation) and self._pairs == other._pairs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{n}={v!r}" for n, v in self._pairs)
        return "{" + inner + "}"

    def subset_of(self, other: "Valuation") -> bool:
        omap = other._map
        return all(omap.get(n) == v for n, v in self._pairs)

    def project(self, names) -> "Valuation":
        keep = set(names)
        return Valuation((n, v) for n, v in self._pairs if n in keep)

    def to_json(self) -> dict:
        return {n: (True if v == TRUE else v) for n, v in self._pairs}


@dataclass(frozen=True)
class Interpretation:
    h: Valuation
    t: Valuation

    def __post_init__(self):
        if not self.h.subset_of(self.t):
            raise ValueError("h must be a subset of t")

    def to_json(self) -> dict:
        return {"h": self.h.to_json(), "t": self.t.to_json()}


def valuation_key(spec: DomainSpec, v: Valuation) -> tuple:
    """Sort key: variables in name order, values ordered u < lo < .. < hi, u < t."""
    key = []
    for name in spec.variables():
        val = v.get(name)
        if val is None:
            key.append(0)
        elif val == TRUE:
            key.append(1)
        else:
            lo, _ = spec.interval(name)
            key.append(1 + val - lo)
    return tuple(key)


def enumerate_valuations(spec: DomainSpec, budget=None):
    """Every valuation over the spec exactly once, in lexicographic order."""
    check_budget(spec, budget)
    return _iter_valuations(spec)


def _iter_valuations(spec: DomainSpec):
    names = spec.variables()
    choices = [(None,) + spec.domain_values(n) for n in names]
    for combo in itertools.product(*choices):
        yield Valuation(
            (n, v) for n, v in zip(names, combo) if v is not None
        )


def subvaluations(t: Valuation):
    """All h with h included in t, from empty to t itself (2**defined many)."""
    yield from proper_subvaluations(t)
    yield t


def proper_subvaluations(t: Valuation):
    pairs = t.items()
    n = len(pairs)
    for mask in range((1 << n) - 1):
        yield Valuation(pairs[i] for i in range(n) if mask >> i & 1)


# --------------------------------------------------------------------------
# Term and atom evaluation


def eval_term(h: Valuation, t: Valuation, term):
    """Unfold one term at <h, t>: linear terms pass through, conditional terms
    pick then/else/undefined.  Conditions may still carry surface relations."""
    if isinstance(term, (Const, Scaled, Undefined)):
        return term
    if isinstance(term, ConditionalTerm):
        return _unfold(h, t, LinearExpr((term,)))[0].items[0]
    raise TypeError(f"not a term: {term!r}")


def eval_atom(h: Valuation, t: Valuation, atom):
    """Replace every conditional term in the atom by its evaluation at <h, t>."""
    if isinstance(atom, Comparison):
        lhs, rhs = _unfold(h, t, atom.lhs, atom.rhs)
        return Comparison(lhs, atom.rel, rhs)
    if isinstance(atom, Defined):
        return Defined(_unfold(h, t, atom.arg)[0])
    if isinstance(atom, (BoolAtom, TruthConst)):
        return atom
    raise TypeError(f"not a constraint atom: {atom!r}")


def _unfold(h: Valuation, t: Valuation, *exprs) -> list:
    """The expressions with each conditional term replaced by its branch.

    Every condition is desugared once, before any is evaluated, and the
    desugared expressions stay referenced until the evaluator is dropped, so
    its memo never meets a recycled object id.
    """
    exprs = [_desugar_expr_conditions(e) for e in exprs]
    ev = _Eval(h, t)
    return [
        LinearExpr(
            tuple(
                ev.branch(i) if type(i) is ConditionalTerm else i for i in e.items
            )
        )
        for e in exprs
    ]


def eval_linear_expr(v: Valuation, e: LinearExpr):
    """Value of a condition-free expression: the integer sum, or U when any
    subterm is undefined (including t in an arithmetic position)."""
    total = 0
    for item in e.items:
        if isinstance(item, Const):
            total += item.value
        elif isinstance(item, Scaled):
            val = v.get(item.var)
            if not isinstance(val, int):
                return U
            total += item.coeff * val
        elif isinstance(item, Undefined):
            return U
        else:
            raise ValueError(f"expression is not condition-free: {item!r}")
    return total


def denotes(v: Valuation, atom) -> bool:
    """Membership of v in the denotation of a condition-free core atom."""
    if isinstance(atom, Comparison):
        if atom.rel != "<=":
            raise ValueError("denotation is defined on <= atoms; desugar first")
        a = eval_linear_expr(v, atom.lhs)
        b = eval_linear_expr(v, atom.rhs)
        return isinstance(a, int) and isinstance(b, int) and a <= b
    if isinstance(atom, BoolAtom):
        return v.get(atom.name) == TRUE
    if isinstance(atom, TruthConst):
        return atom.value
    raise TypeError(f"not a core constraint atom: {atom!r}")


def expr_value(h: Valuation, t: Valuation, e: LinearExpr):
    """Value under h of the expression unfolded at <h, t>; U when undefined."""
    val = _Eval(h, t)._expr_value(e)
    return U if val is None else val


def substitute_value(atom, name: str, value):
    """Syntactic substitution of a variable by a domain value in a
    condition-free atom.

    A scaled occurrence becomes the product constant when the value is an
    integer and the undefined marker otherwise (t has no arithmetic value);
    a Boolean atom becomes a fixed-truth atom.
    """

    def sub(e: LinearExpr) -> LinearExpr:
        items = []
        for item in e.items:
            if isinstance(item, Scaled) and item.var == name:
                items.append(Const(item.coeff * value) if isinstance(value, int) else U)
            elif isinstance(item, ConditionalTerm):
                raise ValueError("substitution expects a condition-free atom")
            else:
                items.append(item)
        return LinearExpr(tuple(items))

    def sub_atom(a):
        if isinstance(a, BoolAtom) and a.name == name:
            return TruthConst(value == TRUE)
        return a

    return map_exprs(atom, sub, sub_atom)


# --------------------------------------------------------------------------
# Satisfaction


class _Eval:
    """Memoizing satisfaction checker for one fixed pair (h, t).

    The evaluator for <t, t> is shared so that condition checks at the total
    world, and implication checks there, are computed once per t.  The memo
    is keyed on object identity, so every formula handed to ``sat`` must
    outlive the evaluator; callers pass formulas they hold themselves.
    """

    __slots__ = ("h", "t", "total", "_memo")

    def __init__(self, h: Valuation, t: Valuation, total=None):
        self.h = h
        self.t = t
        if h is t or h == t:
            self.total = self
        else:
            self.total = total if total is not None else _Eval(t, t)
        self._memo = {}

    def sat(self, phi) -> bool:
        key = id(phi)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._compute(phi)
            self._memo[key] = hit
        return hit

    def _compute(self, phi) -> bool:
        tp = type(phi)
        if tp is Comparison:
            if phi.rel != "<=":
                raise ValueError("satisfaction requires a desugared formula")
            a = self._expr_value(phi.lhs)
            if a is None:
                return False
            b = self._expr_value(phi.rhs)
            return b is not None and a <= b
        if tp is BoolAtom:
            return self.h.get(phi.name) == TRUE
        if tp is And:
            return self.sat(phi.lhs) and self.sat(phi.rhs)
        if tp is Or:
            return self.sat(phi.lhs) or self.sat(phi.rhs)
        if tp is Implies:
            total = self.total
            if total.sat(phi.lhs) and not total.sat(phi.rhs):
                return False
            return not self.sat(phi.lhs) or self.sat(phi.rhs)
        if tp is Bot:
            return False
        if tp is TruthConst:
            return phi.value
        if tp is Defined:
            raise ValueError("satisfaction requires a desugared formula")
        raise TypeError(f"not a formula: {phi!r}")

    def branch(self, term: ConditionalTerm):
        """The branch a conditional term takes at (h, t): then, else or U."""
        if self.sat(term.condition):
            return term.then_term
        if not self.total.sat(term.condition):
            return term.else_term
        return U

    def _expr_value(self, e: LinearExpr):
        """Integer value under h of e unfolded at (h, t); None when undefined."""
        acc = 0
        h = self.h
        for item in e.items:
            tp = type(item)
            if tp is ConditionalTerm:
                item = self.branch(item)
                tp = type(item)
            if tp is Const:
                acc += item.value
            elif tp is Scaled:
                val = h.get(item.var)
                if not isinstance(val, int):
                    return None
                acc += item.coeff * val
            elif tp is Undefined:
                return None
            else:
                raise ValueError(f"expression is not desugared: {item!r}")
        return acc


def satisfies(interp: Interpretation, phi) -> bool:
    """<h, t> |= phi for a desugared formula."""
    return _Eval(interp.h, interp.t).sat(phi)


# --------------------------------------------------------------------------
# Model enumeration


def total_models(spec: DomainSpec, formulas, start=None, stop=None):
    """Each t in enumeration order (candidates ``start`` to ``stop``) whose
    <t, t> satisfies every formula, as ``(t, ev_t)`` with the evaluator of
    <t, t> that ``models_below`` shares."""
    for t in itertools.islice(_iter_valuations(spec), start, stop):
        ev_t = _Eval(t, t)
        if all(ev_t.sat(f) for f in formulas):
            yield t, ev_t


def models_below(t: Valuation, ev_t: _Eval, formulas, proper=False):
    """Each h included in t, in ``subvaluations`` order, with <h, t>
    satisfying every formula, as ``(h, ev)``; ``proper`` leaves out h = t.

    <t, t> itself must satisfy the formulas, as ``total_models`` ensures.
    """
    for h in proper_subvaluations(t):
        ev = _Eval(h, t, total=ev_t)
        if all(ev.sat(f) for f in formulas):
            yield h, ev
    if not proper:
        yield t, ev_t


def _stable_scan(spec, formulas, start, stop):
    return [
        t
        for t, ev_t in total_models(spec, formulas, start, stop)
        if next(models_below(t, ev_t, formulas, proper=True), None) is None
    ]


def _ht_scan(spec, formulas, start, stop):
    return [
        Interpretation(h, t)
        for t, ev_t in total_models(spec, formulas, start, stop)
        for h, _ in models_below(t, ev_t, formulas)
    ]


def _pool_map(fn, args, jobs):
    """``fn(*a)`` for each tuple ``a`` of ``args``, in order.

    With one job the calls run lazily in this process; otherwise on a pool of
    ``jobs`` workers, all of whose tasks have finished when this returns.
    """
    if jobs <= 1:
        return itertools.starmap(fn, args)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return pool.map(fn, *zip(*args))


def _run(scan, theory: Theory, budget, jobs):
    """``scan(spec, formulas, start, stop)`` over ``jobs`` slices of the
    candidates of the desugared theory, concatenated in candidate order."""
    from .transforms import theory_formulas

    thy = desugar_theory(theory)
    check_budget(thy.spec, budget)
    formulas = theory_formulas(thy)
    spec = thy.spec
    total = math.prod(len(spec.domain_values(n)) + 1 for n in spec.variables())
    chunk = -(-total // max(jobs, 1))
    chunks = [(spec, formulas, a, a + chunk) for a in range(0, total, chunk)]
    return list(itertools.chain.from_iterable(_pool_map(scan, chunks, jobs)))


def stable_models(theory: Theory, budget=None, jobs=1) -> list:
    """All equilibrium valuations t, in lexicographic order.

    Rules are read as their implication form (assignment heads expand to the
    double-negated definedness guard plus the bounding conjunction); the
    theory is desugared first, so min/max aggregates add their auxiliary
    variables to the enumeration alphabet.
    """
    return _run(_stable_scan, theory, budget, jobs)


def ht_models(theory: Theory, budget=None, jobs=1) -> list:
    """All interpretations <h, t> over the spec satisfying every statement."""
    return _run(_ht_scan, theory, budget, jobs)


# --------------------------------------------------------------------------
# Supportedness


def is_supported(t: Valuation, program: Theory) -> bool:
    """Every defined variable of t has a supporting rule.

    A rule supports x when it carries an assignment x := a..b whose bounds
    evaluate (under t) to integers enclosing t(x), no assignment to another
    variable in the same head is satisfied by t, and t satisfies the body.
    """
    from .transforms import assignment_formula, phi

    program = desugar_theory(program)
    # the evaluator's memo is keyed on identity: hold every formula it sees
    rules = [
        (
            [((a.target,), phi(a), assignment_formula(a)) for a in r.head],
            list(r.pos_body) + [Not(b) for b in r.neg_body],
        )
        for r in program.rules
    ]
    ev = _Eval(t, t)
    return all(_supported(x, rules, ev, ev) for x in t.names())


def _supported(x: str, rules, ev_head: _Eval, ev_body: _Eval) -> bool:
    """Some rule supports x.

    A rule is ``(items, body)`` and an item ``(names, condition, formula)``.
    The rule supports x when an item naming x has its condition true at
    ``ev_head``, no item leaving x out has its formula true there, and every
    body formula holds at ``ev_body``.
    """
    return any(
        any(x in names and ev_head.sat(cond) for names, cond, _ in items)
        and not any(x not in names and ev_head.sat(f) for names, _, f in items)
        and all(ev_body.sat(b) for b in body)
        for items, body in rules
    )
