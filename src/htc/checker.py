"""Equivalence oracles and property suites.

Two theories are equivalent when they have the same here-and-there models,
stably equivalent when their stable models agree (optionally after
projection), and strongly equivalent for a projection V when the projected
stable models agree under every added context theory over V.  The strong
check is exact, though it quantifies over all contexts: by locality, t is
stable in a theory plus a context over V exactly when <t|V, t|V> satisfies
the context and no H in K(t), the h|V of the proper h below t that satisfy
the theory (a truth table of 2**|V| bits), does.  So the minimal K(t) of the
rows over each T (``_certificates``) decide every context, and where they
differ the context Delta_K that fails exactly at the H of one side's K tells
the sides apart (Eiter, Tompits and Woltran, IJCAI 2005).  With V all the
variables this is HT equivalence (Lifschitz, Pearce and Valverde, 2001).
``strong_equiv_sampled`` reads the same certificates under the empty
context and then under each context of a given family (it stays for the
benchmark's traced names only).  ``_projection`` reads every projection off
the theories as given, before desugaring, so the auxiliaries of min/max are
never compared: it sorts the names, merges repeats and refuses an empty one;
with none given it is the declared variables.

Every check reads both sides' model tables from one call of ``_run``, which
hands over their searches at one job and lists them on one pool of ``jobs``
workers otherwise, as value tuples: ``equivalent`` and the unfolding law
read the tables through ``_ht_difference``, the one HT reader, for the
verdict and for the masks at the first row where they differ; the stable
check compares the projected ``_stable_rows``; the strong checks read
certificates.  ``_pick`` builds the one witness of a difference, for the
first model by ``_order`` that only one side has.  The tables keep only
total models.  A t whose <t, t> fails the theory cannot become stable when a
context is added, since the extended theory still contains the failing one;
and by persistence no h below such a t satisfies the theory either.

The property suites re-run the package's structural laws (persistence,
negation, term persistence, the five denotation conditions, supportedness,
rule unfolding, faithfulness of conditional-term elimination) on seeded
random corpora and report the first counterexample, shrunk to a locally
minimal instance by re-running the same law on smaller candidates.  Each
law runs the compiled evaluator on the worlds of ``total_models``.
Persistence, negation and term persistence check the reduct at t against
t's full mask, which stands for <t, t>: a reduct that some h below t
satisfies holds there too, and the reduct of ``not phi`` holds at h iff
phi's fails there.  The reducts of phi and of def(tau) (tau <= tau, whose
reduct is tau's own) are the rows of their search.
The supportedness laws read rules as (head items, body) pairs: assignment
rules directly, unfolded rules as the clauses ``transforms.clauses``
distributes them into, never by parsing a formula back into a rule.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Callable, NamedTuple, Optional

from .errors import HtcError
from .parser import pretty_print
from .semantics import (
    Interpretation,
    Valuation,
    _Index,
    _certificates,
    _compile,
    _full,
    _holds_at,
    _ht_difference,
    _interpretation,
    _ones,
    _order,
    _pool_map,
    _positions,
    _projected_stable,
    _restrict,
    _run,
    _satisfied,
    _stable_rows,
    _submasks,
    _supported,
    _valuation,
    _values,
    is_supported,
    stable_models,
    total_models,
)
from .syntax import (
    BOT,
    TOP,
    TRUE,
    U,
    _set,
    _Value,
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
    children,
    conj,
    defined,
    desugar_comparisons,
    desugar_theory,
    disj,
    free_vars,
    le,
    make_theory,
    map_exprs,
)
from .transforms import clauses, eliminate_conditionals, unfold_rule, unfold_theory

# --------------------------------------------------------------------------
# Reports


class Witness(_Value):
    """Evidence for a 'different' verdict; re-checkable against both sides."""

    __slots__ = ("side", "interpretation", "valuation", "context")

    def __init__(self, side: str, interpretation: Optional[Interpretation] = None,
                 valuation: Optional[Valuation] = None, context: Optional[tuple] = None):
        _set(self, "side", side)
        _set(self, "interpretation", interpretation)
        _set(self, "valuation", valuation)
        _set(self, "context", context)

    def to_json(self) -> dict:
        out = {"side": self.side}
        if self.interpretation is not None:
            out["interpretation"] = self.interpretation.to_json()
        if self.valuation is not None:
            out["valuation"] = self.valuation.to_json()
        if self.context is not None:
            out["context"] = [pretty_print(f) for f in self.context]
        return out


class EquivReport(_Value):
    __slots__ = ("verdict", "witness", "projection")

    def __init__(self, verdict: str, witness: Optional[Witness] = None,
                 projection: Optional[tuple] = None):
        if (verdict == "different") != (witness is not None):
            raise ValueError("witness present iff verdict is 'different'")
        _set(self, "verdict", verdict)
        _set(self, "witness", witness)
        _set(self, "projection", projection)

    @property
    def equal(self) -> bool:
        return self.verdict == "equal"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict}
        if self.projection is not None:
            out["projection"] = sorted(self.projection)
        out["witness"] = self.witness.to_json() if self.witness else None
        return out


# --------------------------------------------------------------------------
# Model tables

# A table is one theory's entry of ``_run``: a spec and, for each total
# model t (a value tuple, in enumeration order), the reduct of the theory at
# t, whose satisfying masks are the h below t with <h, t> satisfying the
# theory.  HT models, stable models and stable models under added contexts
# are all read off tables without re-evaluating the base theory.


def _ht_interpretation(names, t, m: int) -> Interpretation:
    """<h, t> over ``names`` for t and the mask m of h."""
    return _interpretation(_valuation(names, _restrict(t, m)), _valuation(names, t))


# --------------------------------------------------------------------------
# Equivalence checks


def _pick(sa, sb, build, field="valuation", key=_order, context=None) -> Witness:
    """The witness for the first model by ``key`` that only one side has,
    the left side's on a tie, carrying ``build(model)`` in ``field``."""
    side, model = min(
        [("left-only", m) for m in sa - sb] + [("right-only", m) for m in sb - sa],
        key=lambda pick: (key(pick[1]), pick[0]),
    )
    return Witness(side, context=context, **{field: build(model)})


def equivalent(a: Theory, b: Theory, budget=None, jobs=1) -> EquivReport:
    """Same here-and-there models?  Both theories must share one spec, and
    so must their desugarings: HT models define the min/max auxiliaries."""
    if a.spec != b.spec:
        raise ValueError("theories must share a domain spec")
    declared = set(a.spec.variables())
    a, b = desugar_theory(a), desugar_theory(b)
    if a.spec != b.spec:
        aux = ", ".join(sorted(set(a.spec.variables() + b.spec.variables()) - declared))
        raise ValueError(f"the theories desugar to different min/max auxiliaries ({aux}), "
                         "which HT models define; compare with --stable or --strong")
    (spec, rows_a), (_, rows_b) = _run([a, b], budget, jobs)
    difference = _ht_difference(rows_a, rows_b)
    if difference is None:
        return EquivReport("equal")
    t, ma, mb = difference
    build = partial(_ht_interpretation, spec.variables(), t)
    witness = _pick(ma, mb, build, "interpretation", lambda m: _order(_restrict(t, m)))
    return EquivReport("different", witness)


def _projection(a: Theory, b: Theory, project):
    if project is None:
        if a.spec != b.spec:
            raise ValueError("theories must share a spec unless a projection is given")
        return tuple(a.spec.variables())
    if isinstance(project, str):
        raise TypeError(f"project must be a sequence of names, not the str {project!r}")
    names = tuple(sorted(set(project)))
    if not names:
        raise ValueError("projection names no variable")
    for name in names:
        for spec in (a.spec, b.spec):
            if not spec.is_declared(name):
                raise ValueError(f"projection variable {name} is not declared")
        # compare bounds, never listed values: the budget check has not run yet
        if len({s.is_bool(name) or s.interval(name) for s in (a.spec, b.spec)}) > 1:
            raise ValueError(f"specs disagree on projection variable {name}")
    return names


def stable_equivalent(
    a: Theory, b: Theory, project=None, budget=None, jobs=1
) -> EquivReport:
    """Same stable models, after projecting onto ``project`` when given."""
    names = _projection(a, b, project)
    a, b = desugar_theory(a), desugar_theory(b)
    projection = names if project is not None else None
    projected = []
    for spec, rows in _run([a, b], budget, jobs):
        positions = _positions(spec, names)
        projected.append({tuple([t[p] for p in positions]) for t in _stable_rows(rows)})
    sa, sb = projected
    if sa == sb:
        return EquivReport("equal", projection=projection)
    return EquivReport("different", _pick(sa, sb, partial(_valuation, names)), projection)


def strong_equivalent(
    a: Theory, b: Theory, project=None, budget=None, jobs=1
) -> EquivReport:
    """Same projected stable models under every context over the projection.

    Exact: decided by comparing the families F(T) that ``_certificates``
    reads off both tables.  The empty context comes first, read off the same
    families (T is stable when its family holds the empty set); a difference
    there is reported as ``stable_equivalent`` reports it, with no context
    and a projection only when one was asked for.  Otherwise the witness is
    the first T, by ``_order``, whose families differ, with the
    context Delta_K of ``_separating_context``, under which T is a projected
    stable model of the witness's side only.
    """
    names = _projection(a, b, project)
    a, b = desugar_theory(a), desugar_theory(b)
    fa, fb = (_certificates(table, names) for table in _run([a, b], budget, jobs))
    sa, sb = _projected_stable(fa, names), _projected_stable(fb, names)
    if sa != sb:
        projection = None if project is None else names
        return EquivReport("different", _pick(sa, sb, partial(_valuation, names)), projection)
    none = frozenset()
    differ = [T for T in fa.keys() | fb.keys() if fa.get(T, none) != fb.get(T, none)]
    if not differ:
        return EquivReport("equal", projection=names)
    T = min(differ, key=_order)
    side, context = _separating_context(a.spec, names, T, fa.get(T, none), fb.get(T, none))
    witness = Witness(side, valuation=_valuation(names, T), context=context)
    return EquivReport("different", witness, projection=names)


def _separating_context(spec, names, T, left, right):
    """The side and the context Delta_K for the first set K of one side's
    family at T (left side first) that no set of the other side lies under.

    Delta_K has one implication per H in K, in increasing mask order: the d(x)
    of H's variables imply the d(x) of one of T's other variables, where
    d(x) is ``def(x)`` for an integer and ``x`` for a Boolean.  It holds at
    <T, T> and, among the H below T, fails exactly at those in K; so under
    it T is a projected stable model of K's side and not of the other.
    """

    def d(i):
        x = names[i]
        return BoolAtom(x) if spec.is_bool(x) else Defined(LinearExpr((Scaled(1, x),)))

    def implication(H):
        inside = [d(i) for i in range(len(names)) if H >> i & 1]
        outside = disj(d(i) for i, v in enumerate(T) if v is not None and not H >> i & 1)
        return Implies(conj(inside), outside) if inside else outside

    side, K = next(
        (side, K)
        for side, mine, other in (("left-only", left, right), ("right-only", right, left))
        for K in sorted(mine, key=_ones)
        if not any(k & ~K == 0 for k in other)
    )
    return side, tuple(map(implication, _ones(K)))


def strong_equiv_sampled(
    a: Theory, b: Theory, project=None, *, contexts, budget=None, jobs=1
) -> EquivReport:
    """Projected stable-model equality without context and then under every
    context in the family.

    Contexts are tuples of formulas over the projection variables (another
    variable raises ValueError), read off the certificates of both sides.
    The empty context is always checked first; a difference there is
    reported as ``stable_equivalent`` reports it, with no context and a
    projection only when one was asked for.  A pass means no counterexample
    was found within the family, nothing more.

    The package decides strong equivalence with ``strong_equivalent``; this
    sampled check, ``context_family`` and ``MAX_CONTEXTS`` are kept because
    the traced benchmark (``perfbench/spans.py``) names them, and they go
    with the benchmark change of ROADMAP item 1.
    """
    names = _projection(a, b, project)
    a, b = desugar_theory(a), desugar_theory(b)
    fa, fb = (_certificates(table, names) for table in _run([a, b], budget, jobs))
    for ctx in ((), *contexts):
        ctx = tuple(desugar_comparisons(f) for f in ctx)
        outside = free_vars(conj(ctx)) - set(names)
        if outside:
            raise ValueError(f"context reads {', '.join(sorted(outside))}, outside the projection")
        sa, sb = _projected_stable(fa, names, ctx), _projected_stable(fb, names, ctx)
        if sa != sb:
            w = _pick(sa, sb, partial(_valuation, names), context=ctx or None)
            projection = None if not ctx and project is None else names
            return EquivReport("different", w, projection=projection)
    return EquivReport("equal", projection=names)


MAX_CONTEXTS = 48


def context_family(spec: DomainSpec, names=None):
    """Deterministic family of context theories over the given variables.

    Facts over every atom shape (Boolean atoms; variable-vs-constant bounds
    over a few interval values), rules between Boolean atoms, and all
    pairwise unions, truncated to ``MAX_CONTEXTS``.  Kept, with
    ``strong_equiv_sampled``, for the benchmark's traced names until the
    benchmark change of ROADMAP item 1.
    """
    names = tuple(sorted(set(names if names is not None else spec.variables())))
    bools = [n for n in names if spec.is_bool(n)]
    ints = [n for n in names if spec.is_int(n)]
    singles = []
    for p in bools:
        singles.append(BoolAtom(p))
    for x in ints:
        lo, hi = spec.interval(x)
        values = sorted({lo, (lo + hi) // 2, hi})
        xe = LinearExpr((Scaled(1, x),))
        for d in values:
            de = LinearExpr((Const(d),))
            singles.append(le(xe, de))
            singles.append(le(de, xe))
    for p in bools:
        for q in bools:
            if p != q:
                singles.append(Implies(BoolAtom(p), BoolAtom(q)))
    family = [(f,) for f in singles]
    for i in range(len(singles)):
        for j in range(i + 1, len(singles)):
            family.append((singles[i], singles[j]))
    return family[:MAX_CONTEXTS]


# --------------------------------------------------------------------------
# Random corpora

COEFF_RANGE = (-2, 2)


def _gen_linear_term(rng, spec):
    ints = [n for n, _, _ in spec.int_vars]
    if not ints or rng.random() < 0.3:
        return Const(rng.randint(*COEFF_RANGE))
    return Scaled(rng.randint(*COEFF_RANGE), rng.choice(ints))


def _gen_condition(rng, spec, depth=1):
    """Condition-free formula for use inside conditional terms."""
    if depth > 0 and rng.random() < 0.4:
        kind = rng.choice(["and", "or", "not", "imp"])
        l = _gen_condition(rng, spec, depth - 1)
        r = _gen_condition(rng, spec, depth - 1)
        return {"and": And(l, r), "or": Or(l, r), "not": Not(l), "imp": Implies(l, r)}[
            kind
        ]
    return _gen_atom(rng, spec, conditional_budget=None)


def _gen_expr(rng, spec, conditional_budget):
    items = []
    for _ in range(rng.randint(1, 2)):
        if (
            conditional_budget is not None
            and conditional_budget[0] > 0
            and rng.random() < 0.35
        ):
            conditional_budget[0] -= 1
            items.append(gen_conditional_term(rng, spec))
        else:
            items.append(_gen_linear_term(rng, spec))
    return LinearExpr(tuple(items))


def _gen_atom(rng, spec, conditional_budget):
    bools = list(spec.bool_vars)
    if bools and rng.random() < 0.35:
        return BoolAtom(rng.choice(bools))
    rel = rng.choice(["<=", "<=", "<", "=", "!=", ">=", ">"])
    lhs = _gen_expr(rng, spec, conditional_budget)
    rhs = _gen_expr(rng, spec, conditional_budget)
    return Comparison(lhs, rel, rhs)


def gen_formula(rng, spec, depth=3, conditional_budget=None):
    """Random surface formula; at most ``depth`` connectives on any path."""
    if conditional_budget is None:
        conditional_budget = [2]
    if depth > 0 and rng.random() < 0.55:
        kind = rng.choice(["and", "or", "imp", "not"])
        l = gen_formula(rng, spec, depth - 1, conditional_budget)
        if kind == "not":
            return Not(l)
        r = gen_formula(rng, spec, depth - 1, conditional_budget)
        return {"and": And(l, r), "or": Or(l, r), "imp": Implies(l, r)}[kind]
    return _gen_atom(rng, spec, conditional_budget)


def gen_conditional_term(rng, spec):
    return ConditionalTerm(
        _gen_linear_term(rng, spec),
        _gen_linear_term(rng, spec),
        _gen_condition(rng, spec),
    )


def gen_assignment(rng, spec, conditional_budget=None):
    if conditional_budget is None:
        conditional_budget = [1]
    ints = [n for n, _, _ in spec.int_vars]
    target = rng.choice(ints)
    lower = _gen_expr(rng, spec, conditional_budget)
    if rng.random() < 0.3:
        return Assignment(target, lower, _gen_expr(rng, spec, conditional_budget))
    return Assignment(target, lower, lower)


def gen_lc_rule(rng, spec):
    """Random rule with up to two head assignments and two body literals."""
    budget = [2]
    head = tuple(gen_assignment(rng, spec, budget) for _ in range(rng.randint(0, 2)))
    pos, neg = [], []
    for _ in range(rng.randint(0, 2)):
        atom = _gen_atom(rng, spec, budget)
        (neg if rng.random() < 0.3 else pos).append(atom)
    return LCRule(head, tuple(pos), tuple(neg))


def gen_program(rng, spec, max_rules=3):
    rules = [gen_lc_rule(rng, spec) for _ in range(rng.randint(1, max_rules))]
    return make_theory(spec, rules)


def gen_theory_one_conditional(rng, spec):
    """A theory with exactly one conditional-term occurrence, also after
    desugaring (the carrying atom uses <=, which never duplicates terms)."""
    tau = gen_conditional_term(rng, spec)
    carrier = LinearExpr(
        (tau,) + tuple(_gen_linear_term(rng, spec) for _ in range(rng.randint(0, 1)))
    )
    other = _gen_expr(rng, spec, conditional_budget=None)
    atom = le(carrier, other) if rng.random() < 0.5 else le(other, carrier)
    shape = rng.random()
    if shape < 0.3:
        main = atom
    elif shape < 0.5:
        main = Not(atom)
    elif shape < 0.75:
        main = Implies(atom, gen_formula(rng, spec, depth=1, conditional_budget=[0]))
    else:
        main = Implies(gen_formula(rng, spec, depth=1, conditional_budget=[0]), atom)
    extras = [
        gen_formula(rng, spec, depth=1, conditional_budget=[0])
        for _ in range(rng.randint(0, 2))
    ]
    return make_theory(spec, [main] + extras)


DEFAULT_SUITE_SPEC = DomainSpec.make({"x": (0, 2), "y": (0, 2)}, ["p"])


# --------------------------------------------------------------------------
# Property suites


class SuiteReport(_Value):
    __slots__ = ("suite", "seed", "count", "checked", "violations", "counterexample")

    def __init__(self, suite: str, seed: int, count: int, checked: int, violations: int,
                 counterexample: Optional[dict] = None):
        _set(self, "suite", suite)
        _set(self, "seed", seed)
        _set(self, "count", count)
        _set(self, "checked", checked)
        _set(self, "violations", violations)
        _set(self, "counterexample", counterexample)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_json(self) -> dict:
        return {n: getattr(self, n) for n in self.__slots__}


def _gen_core_formula(rng, spec):
    return desugar_comparisons(gen_formula(rng, spec))


def _unpersistent(spec, rows):
    """The detail of the first pair (m, t) of the rows ``(t, reduct)`` over
    the spec whose m satisfies the reduct while t's full mask does not;
    None when there is none."""
    for t, reduct in rows:
        full = _full(t)
        if not _satisfied(reduct, full):
            for m in _submasks(full):
                if _satisfied(reduct, m):
                    return _ht_interpretation(spec.variables(), t, m).to_json()
    return None


def _persistence_law(phi, spec):
    detail = _unpersistent(spec, total_models(spec, (phi,)))
    return detail and {"formula": pretty_print(phi), "detail": detail}


def _negation_law(phi, spec):
    index = _Index(spec.variables())
    at, neg_at = _compile(phi, index)[0], _compile(Not(phi), index)[0]
    for t, _ in total_models(spec, ()):
        neg, fails = neg_at(t), not _satisfied(at(t), _full(t))
        for m in _submasks(_full(t)):
            if _satisfied(neg, m) != fails:
                detail = _ht_interpretation(spec.variables(), t, m).to_json()
                return {"formula": pretty_print(phi), "detail": detail}
    return None


def _gen_core_term(rng, spec):
    tau = gen_conditional_term(rng, spec)
    return ConditionalTerm(
        tau.then_term, tau.else_term, desugar_comparisons(tau.condition)
    )


def _term_persistence_law(tau, spec):
    term = LinearExpr((tau,))
    detail = _unpersistent(spec, total_models(spec, (defined(term),)))
    return detail and {"term": pretty_print(term), "detail": detail}


def _gen_denotation_atoms(rng, spec):
    """A core atom, an atom with a conditional term, and a linear term."""
    atom = _gen_core_atom(rng, spec)
    cond_atom = _gen_conditional_atom(rng, spec)
    return atom, cond_atom, _gen_linear_term(rng, spec)


def _denotation_law(atoms, spec):
    """The five HT_C denotation conditions, on the compiled evaluator: v is
    in the denotation of a condition-free atom when <v, v> satisfies it."""
    atom, cond_atom, s2 = atoms
    names = spec.variables()
    index, worlds = _Index(names), [t for t, _ in total_models(spec, ())]

    def member(a):
        at, _ = _compile(a, index)
        return lambda v: at(v) is not False

    def violation(a, law, v):
        detail = _valuation(names, v).to_json()
        return {"atom": pretty_print(a), "law": law, "detail": detail}

    holds = member(atom)
    # condition 1: monotonicity
    for t in worlds:
        for v in (_restrict(t, m) for m in _submasks(_full(t))):
            if holds(v) and not holds(t):
                return violation(atom, 1, v)
    # condition 2: substituting a variable by its value
    relevant = sorted(free_vars(atom))
    substituted = {
        (x, value): member(_substitute(atom, x, value))
        for x in relevant
        for value in (None,) + spec.domain_values(x)
    }
    for v in worlds:
        if holds(v) and not all(substituted[x, v[index[x]]](v) for x in relevant):
            return violation(atom, 2, v)
    # condition 3: only vars(c) matters
    seen = {}
    for v in worlds:
        key = tuple(v[index[x]] for x in relevant)
        if seen.setdefault(key, holds(v)) != holds(v):
            return violation(atom, 3, v)
    # condition 4: undefined positions only weaken an atom
    subs = [tuple(map(member, triple)) for triple in _conditional_substitutions(cond_atom)]
    for v in worlds:
        if any(u(v) and not (then_(v) and else_(v)) for u, then_, else_ in subs):
            return violation(cond_atom, 4, v)
    # condition 5: equal subexpressions are interchangeable
    swaps = []  # per occurrence s: s <= s2, s2 <= s, and the atom with s2 for s
    for k, s in _term_occurrences(atom):
        se, s2e = LinearExpr((s,)), LinearExpr((s2,))
        swapped = _replace_occurrence(atom, k, s2)
        swaps.append(tuple(map(member, (le(se, s2e), le(s2e, se), swapped))))
    for v in worlds:
        if any(le1(v) and le2(v) and holds(v) != other(v) for le1, le2, other in swaps):
            return violation(atom, 5, v)
    return None


def _gen_core_atom(rng, spec):
    e1, e2 = _gen_expr(rng, spec, None), _gen_expr(rng, spec, None)
    if spec.bool_vars and rng.random() < 0.2:
        return BoolAtom(rng.choice(list(spec.bool_vars)))
    return le(e1, e2)


def _gen_conditional_atom(rng, spec):
    items = (gen_conditional_term(rng, spec), _gen_linear_term(rng, spec))
    return le(LinearExpr(items), LinearExpr((_gen_linear_term(rng, spec),)))


def _conditional_substitutions(atom):
    """(with U, with then, with else) for each conditional term of the atom."""
    return [
        tuple(_replace_occurrence(atom, k, s) for s in (U, item.then_term, item.else_term))
        for k, item in _term_occurrences(atom, conditional=True)
    ]


def _term_occurrences(atom, conditional=False):
    """(k, term) for each linear (or conditional) term of an atom, numbered
    across both sides of a comparison."""
    want = ConditionalTerm if conditional else (Const, Scaled)
    terms = [item for e in children(atom) for item in e.items]
    return [(k, item) for k, item in enumerate(terms) if isinstance(item, want)]


def _replace_occurrence(atom, k, new_item):
    """The atom with its k-th term replaced by ``new_item``."""
    position = itertools.count()

    def replace(e):
        return LinearExpr(tuple(new_item if next(position) == k else i for i in e.items))

    return map_exprs(atom, replace)


def _substitute(atom, x, value):
    """A condition-free atom with the variable x replaced by its value: each
    k*x by the constant k*v, or by U when v is not an integer; the Boolean
    atom x by #true when v is t and by #false when it is undefined."""
    if atom == BoolAtom(x):
        return TOP if value == TRUE else BOT
    for k, s in _term_occurrences(atom):
        if isinstance(s, Scaled) and s.var == x:
            s2 = Const(s.coeff * value) if isinstance(value, int) else U
            atom = _replace_occurrence(atom, k, s2)
    return atom


def _supportedness_law(core, spec):
    models = stable_models(core)
    for t in models:
        if not is_supported(t, core):
            return _unsupported(core, t, "lc-supported")
    if not models:
        return None
    # the unfolded rules as clauses; a head atom names its free variables
    rules = [
        ([(free_vars(c), TOP, c) for c in atoms], lits)
        for rule in core.rules
        for psi in unfold_rule(rule, distribute=False)
        for atoms, lits in clauses(psi)
    ]
    names = core.spec.variables()
    index = _Index(names)
    for t in models:
        world = _values(t, names)
        full, holds = _full(world), _holds_at(index, world)
        for x in t.names():
            if not _supported(x, rules, holds, holds):
                return _unsupported(core, t, "htc-supported")
        # undefining x must leave a rule for x whose body still holds
        for x in t.names():
            below = full & ~(1 << index[x])

            def body(f):
                return _satisfied(_compile(f, index)[0](world), below)

            if not _supported(x, rules, holds, body):
                return _unsupported(core, t, "htc-supported-sharp")
    return None


def _unsupported(core, t, law):
    return {"theory": pretty_print(core), "detail": {"model": t.to_json(), "law": law}}


def _unfolding_law(core, spec):
    theories = [core] + [unfold_theory(core, d) for d in (False, True)]
    (_, base), *unfolded = _run(theories, None, 1)
    base = list(base)  # read once per unfolding
    for distribute, (_, rows) in zip((False, True), unfolded):
        if _ht_difference(base, rows) is not None:
            return {"theory": pretty_print(core), "detail": {"distribute": distribute}}
    return None


def _delta_law(thy, spec):
    translated = eliminate_conditionals(thy).theory()
    report = strong_equivalent(thy, translated, thy.spec.variables())
    if report.equal:
        return None
    context = [pretty_print(f) for f in report.witness.context or ()]
    return {"theory": pretty_print(thy), "detail": {"context": context}}


def _suite_corpus_item(suite: str, seed: int, i: int, spec: DomainSpec):
    return _SUITES[suite].generate(random.Random(seed * 1_000_003 + i), spec)


def _suite_item(suite: str, seed: int, i: int, spec: DomainSpec):
    return _SUITES[suite].law(_suite_corpus_item(suite, seed, i, spec), spec)


def run_property_suite(
    suite: str, seed: int = 0, count: int = 50, jobs: int = 1
) -> SuiteReport:
    """Run one suite over ``count`` seeded random instances over
    ``DEFAULT_SUITE_SPEC``.

    Deterministic for a fixed (suite, seed, count): corpus items are
    independent, so with ``jobs`` they run in parallel and the lowest failing
    index is reported either way.  The first violation is shrunk before being
    reported.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {', '.join(SUITE_NAMES)}")
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    spec = DEFAULT_SUITE_SPEC
    items = [(suite, seed, i, spec) for i in range(count)]
    violations = _pool_map(_suite_item, items, jobs)
    first = next(((i, v) for i, v in enumerate(violations) if v is not None), None)
    if first is None:
        return SuiteReport(suite, seed, count, count, 0)
    i, violation = first
    _, law, shrink = _SUITES[suite]
    if shrink is not None:
        item = shrink(
            _suite_corpus_item(suite, seed, i, spec),
            lambda cand: _still_fails(law, cand, spec),
        )
        violation = law(item, spec)
    violation["item"] = i
    return SuiteReport(suite, seed, count, i + 1, 1, violation)


def _still_fails(law, item, spec) -> bool:
    """The law is still violated on a shrink candidate.  A candidate the
    package rejects does not count; any other exception propagates."""
    try:
        return law(item, spec) is not None
    except HtcError:
        return False


def _shrink(item, smaller, fails):
    """Replace the item by the first of its ``smaller(item)`` candidates on
    which the violation persists, until none does."""
    while (cand := next(filter(fails, smaller(item)), None)) is not None:
        item = cand
    return item


def _shrink_theory(thy: Theory, fails) -> Theory:
    """Drop statements, then unused variables, while the violation persists."""

    def drops(t):
        s = t.statements
        return (make_theory(t.spec, s[:i] + s[i + 1 :]) for i in range(len(s)))

    thy = _shrink(thy, drops, fails)
    used = free_vars(thy)
    ints = tuple(v for v in thy.spec.int_vars if v[0] in used)
    bools = tuple(used.intersection(thy.spec.bool_vars))
    cand = make_theory(DomainSpec(ints, bools), thy.statements)
    return cand if fails(cand) else thy


def _shrink_formula(phi, fails):
    """Descend into subformulas while the violation persists."""
    connective = (And, Or, Implies)
    return _shrink(phi, lambda f: children(f) if isinstance(f, connective) else (), fails)


class _Suite(NamedTuple):
    """A law over generated corpus items, and how to shrink a failing item."""

    generate: Callable  # (rng, spec) -> item
    law: Callable  # (item, spec) -> violation dict of printable values, or None
    shrink: Optional[Callable] = None  # (item, still_fails) -> smaller item


_SUITES = {
    "persistence": _Suite(_gen_core_formula, _persistence_law, _shrink_formula),
    "negation": _Suite(_gen_core_formula, _negation_law, _shrink_formula),
    "term-persistence": _Suite(_gen_core_term, _term_persistence_law),
    "denotation-laws": _Suite(_gen_denotation_atoms, _denotation_law),
    "supportedness": _Suite(
        lambda rng, spec: desugar_theory(gen_program(rng, spec)),
        _supportedness_law,
        _shrink_theory,
    ),
    "unfolding": _Suite(
        lambda rng, spec: desugar_theory(make_theory(spec, [gen_lc_rule(rng, spec)])),
        _unfolding_law,
        _shrink_theory,
    ),
    "delta-faithfulness": _Suite(
        lambda rng, spec: desugar_theory(gen_theory_one_conditional(rng, spec)),
        _delta_law,
        _shrink_theory,
    ),
}

SUITE_NAMES = tuple(sorted(_SUITES))

