"""Satisfaction and model enumeration over finite domains.

Interpretations are pairs ``<h, t>`` of partial valuations with ``h``
included in ``t``.  A conditional term picks its "then" branch when the
condition holds at ``<h, t>``, its "else" branch when the condition fails at
``<t, t>``, and is undefined otherwise; an atom holds when ``h`` lies in the
denotation of the unfolded, condition-free atom.  Everything else is plain
here-and-there: implications are checked at both worlds, and a stable
(equilibrium) model is a total model ``<t, t>`` with no proper ``h`` below it
that still satisfies the theory.

Inside the engine a world is a tuple of values indexed by the position of
each variable in ``spec.variables()``, with None for undefined.  Each
desugared formula is compiled once per scan into two closures: ``there(t)``
decides ``<t, t>`` and ``here(h, t)`` decides ``<h, t>``.  This is the
package's only evaluator; the then/else/U rule of conditional terms lives
in one place, ``_compile_branch``.

Every model reader sits on one enumeration core over a compiled theory:
``total_models`` yields the t whose ``<t, t>`` satisfies the formulas, and
``models_below`` yields the h below one such t with ``<h, t>`` satisfying
them.  Reading only the h below total models loses nothing, by persistence:
if ``<h, t>`` satisfies a formula, so does ``<t, t>``.

``total_models`` is a depth-first search that assigns the variables in spec
order, each first undefined and then through its domain in order, so it
yields the t in the order of ``enumerate_valuations``.  A formula is checked
at ``<t, t>`` as soon as its last free variable (condition variables
included) is assigned, and a ground formula before any assignment, so a
failing prefix cuts off every candidate that extends it.  ``models_below``
walks the h below t in ``proper_subvaluations`` order.  With several jobs,
``_run`` splits the search into subtrees, one per value prefix of the
leading variables, runs them on one process pool and concatenates the
results in prefix order; the workers compile the formulas themselves.
One scan, ``_ht_scan``, feeds ``ht_models`` and every checker table.

``Valuation`` and ``Interpretation`` objects are built only where models
leave the core: the results of ``stable_models`` and ``ht_models``, the
checker's witnesses, and the Valuation-level helpers ``satisfies``,
``eval_term``, ``eval_atom`` and ``expr_value``: views of the compiled
evaluator that compile their input (``satisfies`` through a cache keyed by
formula value) and evaluate it once.  v is in the denotation of a
condition-free atom when ``satisfies(Interpretation(v, v), atom)``.

The enumeration is exhaustive by design and refuses domain specs whose
interpretation count exceeds a budget (default 10**7).
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

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
    Truth,
    TruthConst,
    TRUE,
    U,
    Undefined,
    _desugar_expr_conditions,
    check_budget,
    desugar_theory,
    free_vars,
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
    names = spec.variables()
    choices = [(None,) + spec.domain_values(n) for n in names]
    return (_valuation(names, combo) for combo in itertools.product(*choices))


def subvaluations(t: Valuation):
    """All h with h included in t, from empty to t itself (2**defined many)."""
    yield from proper_subvaluations(t)
    yield t


def proper_subvaluations(t: Valuation):
    pairs = t.items()
    n = len(pairs)
    for mask in range((1 << n) - 1):
        yield Valuation(pairs[i] for i in range(n) if mask >> i & 1)


def _valuation(names, world) -> Valuation:
    """The Valuation of a value tuple over ``names``."""
    return Valuation((n, v) for n, v in zip(names, world) if v is not None)


def _values(v: Valuation, names) -> list:
    """The values of ``names`` under v, None where undefined."""
    get = v._map.get
    return [get(n) for n in names]


# --------------------------------------------------------------------------
# Term and atom evaluation


def eval_term(h: Valuation, t: Valuation, term):
    """Unfold one term at <h, t>: linear terms pass through, conditional terms
    pick then/else/undefined.  Conditions may still carry surface relations."""
    if isinstance(term, (Const, Scaled, Undefined)):
        return term
    if isinstance(term, ConditionalTerm):
        return _pick_branches(h, t, LinearExpr((term,))).items[0]
    raise TypeError(f"not a term: {term!r}")


def eval_atom(h: Valuation, t: Valuation, atom):
    """Replace every conditional term in the atom by its evaluation at <h, t>."""
    if isinstance(atom, Comparison):
        lhs = _pick_branches(h, t, atom.lhs)
        return Comparison(lhs, atom.rel, _pick_branches(h, t, atom.rhs))
    if isinstance(atom, Defined):
        return Defined(_pick_branches(h, t, atom.arg))
    if isinstance(atom, (BoolAtom, TruthConst)):
        return atom
    raise TypeError(f"not a constraint atom: {atom!r}")


def _pick_branches(h: Valuation, t: Valuation, e: LinearExpr) -> LinearExpr:
    """e with its conditions desugared and each conditional term replaced by
    the branch it takes at <h, t>."""
    items = []
    for item in _desugar_expr_conditions(e).items:
        if type(item) is ConditionalTerm:
            names = tuple(sorted(free_vars(item.condition)))
            _, here = _compile_branch(item, _index(names), item.then_term, item.else_term)
            item = here(_values(h, names), _values(t, names))
            if item is None:
                item = U
        items.append(item)
    return LinearExpr(tuple(items))


def expr_value(h: Valuation, t: Valuation, e: LinearExpr):
    """Value under h of the expression unfolded at <h, t>; U when undefined."""
    names = tuple(sorted(free_vars(e)))
    _, here = _compile_sum([(1, item) for item in e.items], _index(names))
    val = here(_values(h, names), _values(t, names))
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
# Compiled satisfaction

# A world is a sequence of values indexed by variable position, None where
# undefined.  ``there(t)`` decides <t, t>; ``here(h, t)`` decides <h, t>.


def _index(names) -> dict:
    return {n: i for i, n in enumerate(names)}


def _compile(phi, index: dict):
    """(there, here) for a desugared formula over worlds indexed by ``index``."""
    tp = type(phi)
    if tp is Comparison:
        if phi.rel != "<=":
            raise ValueError("satisfaction requires a desugared formula")
        # lhs <= rhs holds when lhs - rhs is defined and at most 0
        sum_there, sum_here = _compile_sum(
            [(1, i) for i in phi.lhs.items] + [(-1, i) for i in phi.rhs.items], index
        )

        def there(t):
            v = sum_there(t)
            return v is not None and v <= 0

        def here(h, t):
            v = sum_here(h, t)
            return v is not None and v <= 0

        return there, here
    if tp is BoolAtom:
        i = index[phi.name]
        return (lambda t: t[i].__class__ is Truth), (lambda h, t: h[i].__class__ is Truth)
    if tp is And or tp is Or or tp is Implies:
        l_there, l_here = _compile(phi.lhs, index)
        r_there, r_here = _compile(phi.rhs, index)
        if tp is And:
            return (
                lambda t: l_there(t) and r_there(t),
                lambda h, t: l_here(h, t) and r_here(h, t),
            )
        if tp is Or:
            return (
                lambda t: l_there(t) or r_there(t),
                lambda h, t: l_here(h, t) or r_here(h, t),
            )
        if type(phi.rhs) is Bot:  # a negation: both worlds must fail the lhs
            return (
                lambda t: not l_there(t),
                lambda h, t: not l_there(t) and not l_here(h, t),
            )
        # the total world first, then the here world
        return (
            lambda t: not l_there(t) or r_there(t),
            lambda h, t: not (l_there(t) and not r_there(t))
            and (not l_here(h, t) or r_here(h, t)),
        )
    if tp is Bot or tp is TruthConst:
        value = tp is TruthConst and phi.value
        return (lambda t: value), (lambda h, t: value)
    if tp is Defined:
        raise ValueError("satisfaction requires a desugared formula")
    raise TypeError(f"not a formula: {phi!r}")


def _term_code(sign: int, term, index: dict):
    """``sign * term`` for a linear term, as (position, factor), the position
    None for a constant, whose value is the factor; None for U."""
    if type(term) is Const:
        return None, sign * term.value
    if type(term) is Scaled:
        return index[term.var], sign * term.coeff
    if type(term) is Undefined:
        return None
    raise ValueError(f"expression is not desugared: {term!r}")


def _compile_branch(term: ConditionalTerm, index: dict, then_, else_):
    """The branch rule of a conditional term as (there, here): ``then_`` when
    the condition holds at the world, ``else_`` when it fails at <t, t>, and
    None (undefined) otherwise."""
    cond_there, cond_here = _compile(term.condition, index)

    def there(t):
        return then_ if cond_there(t) else else_

    def here(h, t):
        if cond_here(h, t):
            return then_
        return None if cond_there(t) else else_

    return there, here


def _compile_sum(signed_items, index: dict):
    """(there, here) for the sum of ``sign * item`` over the (sign, item)
    pairs: its integer value at <t, t>, and under h with each conditional
    term's branch picked at <h, t>; None when some term is undefined."""
    fixed, branches = [], []
    for sign, item in signed_items:
        if type(item) is ConditionalTerm:
            codes = (_term_code(sign, x, index) for x in (item.then_term, item.else_term))
            branches.append(_compile_branch(item, index, *codes))
        else:
            fixed.append(_term_code(sign, item, index))
    fixed = tuple(fixed)

    def value(w, codes=fixed):
        acc = 0
        for code in codes:
            if code is None:
                return None
            pos, k = code
            if pos is not None:
                v = w[pos]
                if v.__class__ is not int:
                    return None
                k *= v
            acc += k
        return acc

    if not branches:
        return value, (lambda h, t: value(h))
    return (
        lambda t: value(t, fixed + tuple(there(t) for there, _ in branches)),
        lambda h, t: value(h, fixed + tuple(here(h, t) for _, here in branches)),
    )


# compiled formulas kept for ``satisfies``, keyed by formula value
FORMULA_CACHE_SIZE = 1024


@lru_cache(maxsize=FORMULA_CACHE_SIZE)
def _compiled_formula(phi) -> tuple:
    """(names, there, here) for a formula over its own variables, in name order."""
    names = tuple(sorted(free_vars(phi)))
    return (names,) + _compile(phi, _index(names))


def satisfies(interp: Interpretation, phi) -> bool:
    """<h, t> |= phi for a desugared formula."""
    names, _, here = _compiled_formula(phi)
    return here(_values(interp.h, names), _values(interp.t, names))


# --------------------------------------------------------------------------
# Model enumeration


class _Core(NamedTuple):
    """Formulas compiled over a spec, each as (level, there, here), where
    ``level`` is the position of its last free variable (-1 when ground)."""

    names: tuple
    index: dict
    choices: tuple  # per position: None, then the domain in order
    formulas: tuple


def _core(spec: DomainSpec, formulas) -> _Core:
    names = spec.variables()
    index = _index(names)
    compiled = tuple(
        (max((index[x] for x in free_vars(f)), default=-1),) + _compile(f, index)
        for f in formulas
    )
    choices = tuple((None,) + spec.domain_values(n) for n in names)
    return _Core(names, index, choices, compiled)


def _holds(core: _Core, h, t) -> bool:
    """<h, t> satisfies every formula of the core."""
    return all(here(h, t) for _, _, here in core.formulas)


def total_models(core: _Core, prefix=()):
    """Each t extending the value ``prefix`` whose <t, t> satisfies every
    formula, in enumeration order.

    Depth-first over positions; a formula is checked once its last free
    variable has a value, so a failing partial t prunes all its extensions.
    """
    n = len(core.names)
    due = [[] for _ in range(n + 1)]  # due[k]: checks once positions < k are set
    for level, there, _ in core.formulas:
        due[level + 1].append(there)
    t = list(prefix) + [None] * (n - len(prefix))

    def extend(k):
        if k == n:
            yield tuple(t)
            return
        for v in core.choices[k]:
            t[k] = v
            if all(there(t) for there in due[k + 1]):
                yield from extend(k + 1)

    if all(there(t) for checks in due[: len(prefix) + 1] for there in checks):
        yield from extend(len(prefix))


def models_below(core: _Core, t: tuple, proper=False):
    """Each h included in t, in ``subvaluations`` order, with <h, t>
    satisfying every formula; ``proper`` leaves out h = t.

    <t, t> itself must satisfy the formulas, as ``total_models`` ensures.
    """
    here = [f for _, _, f in core.formulas]
    # the product varies its last factor fastest: reversed, the lowest position
    spans = [(None,) if v is None else (None, v) for v in reversed(t)]
    count = 1 << sum(v is not None for v in t)
    for backwards in itertools.islice(itertools.product(*spans), count - 1):
        h = backwards[::-1]
        for f in here:
            if not f(h, t):
                break
        else:
            yield h
    if not proper:
        yield t


def _stable_scan(spec, formulas, prefix):
    core = _core(spec, formulas)
    return [
        t
        for t in total_models(core, prefix)
        if next(models_below(core, t, proper=True), None) is None
    ]


def _ht_scan(spec, formulas, prefix):
    """Table rows: each total model t, with the proper h below it as a list."""
    core = _core(spec, formulas)
    return [
        (t, list(models_below(core, t, proper=True)))
        for t in total_models(core, prefix)
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


def _prefixes(spec: DomainSpec, jobs: int) -> list:
    """Value prefixes that split the search into subtrees: the empty prefix
    at one job, else every value combination of the fewest leading variables
    that give at least ``4 * jobs`` of them."""
    if jobs <= 1:
        return [()]
    choices = [(None,) + spec.domain_values(n) for n in spec.variables()]
    width, count = 0, 1
    while width < len(choices) and count < 4 * jobs:
        count *= len(choices[width])
        width += 1
    return list(itertools.product(*choices[:width]))


def _run(scan, theories, budget, jobs) -> list:
    """``scan(spec, formulas, prefix)`` over the search subtrees of every
    desugared theory, all mapped on one pool.

    Each theory's budget is checked, in order, before any scan starts.
    Returns ``(spec, rows)`` per theory, its scan results concatenated in
    prefix order.
    """
    from .transforms import theory_formulas

    thys = [desugar_theory(thy) for thy in theories]
    for thy in thys:
        check_budget(thy.spec, budget)
    owners, tasks = [], []
    for k, thy in enumerate(thys):
        formulas = theory_formulas(thy)
        for prefix in _prefixes(thy.spec, jobs):
            owners.append(k)
            tasks.append((thy.spec, formulas, prefix))
    rows = [[] for _ in thys]
    for k, part in zip(owners, _pool_map(scan, tasks, jobs)):
        rows[k].extend(part)
    return [(thy.spec, r) for thy, r in zip(thys, rows)]


def stable_models(theory: Theory, budget=None, jobs=1) -> list:
    """All equilibrium valuations t, in lexicographic order.

    Rules are read as their implication form (assignment heads expand to the
    double-negated definedness guard plus the bounding conjunction); the
    theory is desugared first, so min/max aggregates add their auxiliary
    variables to the enumeration alphabet.
    """
    [(spec, found)] = _run(_stable_scan, [theory], budget, jobs)
    names = spec.variables()
    return [_valuation(names, t) for t in found]


def ht_models(theory: Theory, budget=None, jobs=1) -> list:
    """All interpretations <h, t> over the spec satisfying every statement."""
    [(spec, rows)] = _run(_ht_scan, [theory], budget, jobs)
    names = spec.variables()
    out = []
    for t, below in rows:
        tv = _valuation(names, t)
        out.extend(Interpretation(_valuation(names, h), tv) for h in below)
        out.append(Interpretation(tv, tv))
    return out


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
    rules = [
        (
            [((a.target,), phi(a), assignment_formula(a)) for a in r.head],
            list(r.pos_body) + [Not(b) for b in r.neg_body],
        )
        for r in program.rules
    ]
    at_t = partial(satisfies, Interpretation(t, t))
    return all(_supported(x, rules, at_t, at_t) for x in t.names())


def _supported(x: str, rules, head, body) -> bool:
    """Some rule supports x.

    A rule is ``(items, body)`` and an item ``(names, condition, formula)``.
    The rule supports x when an item naming x has its condition true by the
    predicate ``head``, no item leaving x out has its formula true by it, and
    every body formula holds by the predicate ``body``.
    """
    return any(
        any(x in names and head(cond) for names, cond, _ in items)
        and not any(x not in names and head(f) for names, _, f in items)
        and all(body(b) for b in lits)
        for items, lits in rules
    )
