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
each variable in ``spec.variables()``, with None for undefined, and an h
below t is the bitmask m of the positions of t it defines (bit i for
position i; h is t restricted to m).  Each desugared formula is compiled
into one closure, ``at(t)``: the reduct of the formula at t, a condition on
m that holds exactly when ``<h, t>`` satisfies the formula (Ferraris, LPNMR
2005, carried to HT_C as in Cabalar, Kaminski, Ostrowski and Schaub, IJCAI
2016); ``at(t) is False`` means that ``<t, t>`` fails it.  Compiling also
gathers the positions the formula reads, on which alone its reduct depends,
and a subformula that several formulas share is compiled once per search.
A reduct is a pair ``(need, rest)``: m has every bit of the mask ``need``
(its facts ``(0, (mask,))``, ORed into one int), and for each clause
``(body, heads)`` of ``rest``, when m has every bit of ``body`` it has every
bit of some mask in ``heads`` (no heads: never).  At a fixed t each piece
of the formula becomes:

- False, when ``<t, t>`` fails it; by persistence so does every ``<h, t>``;
- for a comparison: the need of every position it reads, counting the
  branch each conditional term takes at t, and for each conditional whose
  condition holds at t, the reduct of that condition.  The value under h
  is then the value at t, so no arithmetic is done per h;
- for a Boolean atom: the need of its bit;
- for ``and``: the needs ORed, the rests concatenated;
- for ``or``, ``->``: the disjunction, the classical implication, clause by
  clause, with the facts of the result folded into its need (an
  antecedent false at t makes the implication ``(0, ())``, always true);
- for a negation: ``(0, ())`` when the negated formula's reduct is False.

This is the package's only evaluator; the then/else/U rule of conditional
terms lives in one place, ``_compile_le``, which compiles each comparison.

The engine takes desugared theories only.  Each entry point desugars its
input once: ``stable_models``, ``ht_models`` and ``is_supported`` here,
``equivalent``, ``stable_equivalent``, ``strong_equivalent`` and
``strong_equiv_sampled`` in the checker.  Nothing below them desugars
again, and a surface formula that reaches ``_compile`` makes it raise.

Every model reader sits on one enumeration core, ``total_models(spec,
formulas, prefix=())``: it compiles the formulas over the spec's positions
and yields each t whose ``<t, t>`` satisfies them (no formulas: every t)
with the join of their reducts at t, which gives the h below it.  That is
every model, by persistence: if ``<h, t>`` satisfies them, so does ``<t, t>``.

``total_models`` is a depth-first search that assigns the variables in spec
order, each first undefined and then through its domain in order, so it
yields the t in the order of ``enumerate_valuations``.  A formula's ``at``
runs as soon as the last position it reads (condition variables included)
is assigned, a ground formula's before any assignment: False cuts off every
candidate that extends the prefix, and a reduct joins the need and the
clauses carried down to each t.  When the formula does not read some
earlier position, the search comes back to it with the values it reads
unchanged; such a formula keeps its reduct per value of those positions
and runs once per value.

Those pairs are the rows ``(t, reduct)`` of a model table, and at one job
``_run`` hands each reader the search itself: no table is held, and a
reader that stops early stops it.  With several jobs the workers list the
subtrees, one per value prefix of the leading variables, on one process
pool (``_scan``) and ``_run`` concatenates them in prefix order.  Four
readers answer every question from the rows, each in one forward pass:
``_below(reduct, t)`` lists the masks of the proper h below t that
satisfy the reduct, for ``ht_models``;
``_ht_difference(rows_a, rows_b)``, the one HT reader, gives the checker's
HT verdict and witness: two tables of one spec have the same HT models when
they list the same t in order and, at each t, either the same reduct or
the same ``_below`` masks, and otherwise it returns each side's masks at
the first t where they differ, a table that ends first lacking that t;
``_stable_rows(rows)`` lists the t with no proper submask that satisfies
their reduct, for ``stable_models`` and the checker's stable comparison;
and ``_certificates(table, names)`` reads the masks below each t projected
onto ``names``, for the checker's strong comparisons (Eiter, Tompits and
Woltran, IJCAI 2005), which read stability under any context over
``names`` off them alone, with ``_projected_stable``.

Below t, every model of a reduct contains its need and the least fixpoint
of its clauses with one head, run from the need.  t is stable when the
need is t's full mask, with no fixpoint run (every row of ``x := 0..2``),
or else when the fixpoint is.  Otherwise, when every clause has at most
one head (the reduct is Horn), the fixpoint is itself a proper model and t
is not stable; only a reduct with disjunctive heads (as in
``a := 1 ; b := 1``) makes the stability test walk the proper submasks
above the fixpoint, stopping at the first that satisfies it, while
``_below`` walks them all.  The walk tests only the clauses open above
the fixpoint, those with no head inside it (``_open``), and no mask when
none is left.  Masks are walked in increasing order
(``m = (m - full) & full``).  ``_certificates`` walks only the rows with
an open clause: above the fixpoint of any other row every proper submask
is a model, so its certificate has a closed form.

Models stay value tuples through the readers and the checker, ordered by
``_order``: per position, undefined first, then the domain in order, which
is the order ``total_models`` yields them in.  ``Valuation`` and
``Interpretation`` objects are built only where models leave the library:
the results of ``stable_models`` and ``ht_models``, the witness a check
reports, the detail of a property violation, and ``satisfies``, a view of
the compiled evaluator that compiles its formula over its own variables on
every call, with no cache, and evaluates it once.  v is in the denotation of a condition-free
atom when ``satisfies(Interpretation(v, v), atom)``.  A Valuation holds
only its defined (name, value) pairs, in name order; ``_valuation`` builds
one in a single pass from a value tuple, whose positions are already in
name order, and ``ht_models`` takes each h's pairs from its t's by mask
and pairs the two without re-checking that h is included in t, which
holds by construction.

The enumeration is exhaustive by design and refuses domain specs whose
interpretation count exceeds a budget (default 10**7).
"""

from __future__ import annotations

import itertools
from operator import itemgetter

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
    Not,
    Or,
    Scaled,
    Theory,
    Truth,
    Undefined,
    _set,
    _Value,
    _check_int,
    check_budget,
    conj,
    desugar_theory,
    free_vars,
)
from .transforms import assignment_formula, phi, theory_formulas

# --------------------------------------------------------------------------
# Valuations and interpretations


class Valuation(_Value):
    """Immutable partial map from variables to domain values, kept as the
    (name, value) pairs of its defined variables in name order; undefined
    variables are simply absent.  A value is ``TRUE`` or an int, not a bool."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs=()):
        pairs = tuple(sorted(dict(pairs).items()))
        for name, v in pairs:
            if v.__class__ is not Truth:
                _check_int(v, f"the value of {name}, when not TRUE,")
        _set(self, "_pairs", pairs)

    @classmethod
    def _sorted(cls, pairs: tuple) -> "Valuation":
        """The Valuation of ``pairs``, already in name order, no name twice."""
        v = cls.__new__(cls)
        _set(v, "_pairs", pairs)
        return v

    def get(self, name):
        """The value of ``name``, or None when undefined."""
        return dict(self._pairs).get(name)

    def names(self) -> tuple:
        return tuple(n for n, _ in self._pairs)

    def items(self) -> tuple:
        return self._pairs

    def __len__(self):
        return len(self._pairs)

    def __repr__(self):
        inner = ", ".join(f"{n}={v!r}" for n, v in self._pairs)
        return "{" + inner + "}"

    def project(self, names) -> "Valuation":
        """The pairs whose name is in ``names``."""
        keep = set(names)
        return Valuation._sorted(tuple([p for p in self._pairs if p[0] in keep]))

    def to_json(self) -> dict:
        return {n: (True if v.__class__ is Truth else v) for n, v in self._pairs}


class Interpretation(_Value):
    __slots__ = ("h", "t")

    def __init__(self, h: Valuation, t: Valuation):
        if not set(h._pairs) <= set(t._pairs):
            raise ValueError("h must be a subset of t")
        _set(self, "h", h)
        _set(self, "t", t)

    def to_json(self) -> dict:
        return {"h": self.h.to_json(), "t": self.t.to_json()}


def _order(world) -> tuple:
    """Sort key of a value tuple: per position, undefined first, then the
    domain in order, as ``total_models`` assigns values."""
    return tuple([(v is not None, v) for v in world])


def valuation_key(spec: DomainSpec, v: Valuation) -> tuple:
    """Sort key: ``_order`` of v's values over the spec's variables."""
    return _order(_values(v, spec.variables()))


def enumerate_valuations(spec: DomainSpec, budget=None):
    """Every valuation over the spec exactly once, in lexicographic order.

    A plain product on purpose: the reference semantics of the tests draws
    its candidates from it, and built on ``total_models`` that oracle would
    share the search it checks."""
    check_budget(spec, budget)
    names = spec.variables()
    choices = [(None,) + spec.domain_values(n) for n in names]
    return (_valuation(names, combo) for combo in itertools.product(*choices))


def _valuation(names, world) -> Valuation:
    """The Valuation of a value tuple over ``names``, which are sorted, as
    ``spec.variables()`` is, so its pairs come out in name order."""
    return Valuation._sorted(tuple([(n, v) for n, v in zip(names, world) if v is not None]))


def _interpretation(h: Valuation, t: Valuation) -> Interpretation:
    """<h, t> for an h built below t, so included in it by construction."""
    i = Interpretation.__new__(Interpretation)
    _set(i, "h", h)
    _set(i, "t", t)
    return i


def _values(v: Valuation, names) -> list:
    """The values of ``names`` under v, None where undefined."""
    get = dict(v._pairs).get
    return [get(n) for n in names]


def _full(t) -> int:
    """The positions a value tuple defines, as a bitmask."""
    return sum([1 << i for i, v in enumerate(t) if v is not None])


def _restrict(t, m: int) -> tuple:
    """The value tuple t restricted to the positions of mask m."""
    return tuple(v if m >> i & 1 else None for i, v in enumerate(t))


def _submasks(full: int):
    """Every submask of ``full``, in increasing order, ``full`` last."""
    m = 0
    while m != full:
        yield m
        m = (m - full) & full
    yield full


# --------------------------------------------------------------------------
# Compiled satisfaction and the reduct

# h is t restricted to a bitmask m of positions (bit i for position i).  A
# reduct (need, rest) holds at m when m has every bit of ``need`` and every
# clause (body, heads) of ``rest`` holds: m has some head or misses a bit of
# the body (no heads is a constraint).  ``at(t)`` is False when <t, t> fails.


class _Index(dict):
    """Variable name -> position in a world, with the memo of ``_compile``:
    ``compiled`` maps the id of each formula object compiled over these
    positions to the object, kept alive so that its id is not reused, and
    its result."""

    __slots__ = ("compiled",)

    def __init__(self, names):
        super().__init__((n, i) for i, n in enumerate(names))
        self.compiled = {}


def _clauses(reduct) -> tuple:
    """The reduct's clauses, its need as the fact (0, (need,))."""
    need, rest = reduct
    return ((0, (need,)),) + rest if need else rest


def _or(a, b):
    """a or b, clause by clause: (b1 -> H1) or (b2 -> H2) is (b1 | b2) -> H1 or
    H2.  A head inside the body makes the clause hold, so it goes; the
    facts of the result fold back into its need."""
    need, rest = 0, {}
    for b1, h1 in _clauses(a):
        for b2, h2 in _clauses(b):
            body = b1 | b2
            heads = tuple(dict.fromkeys(h & ~body for h in h1 + h2))
            if not body and len(heads) == 1:
                need |= heads[0]
            elif 0 not in heads:
                rest[body, heads] = None
    return need, tuple(rest)


def _implies(a, b):
    """a -> b as (not a) or b, where not (body -> H) is body and no mask of H."""
    for body, heads in _clauses(a):
        b = _or((body, tuple((h, ()) for h in heads)), b)
    return b


def _satisfied(reduct, m: int) -> bool:
    """m satisfies the reduct; never when the reduct is False."""
    if reduct is False:
        return False
    need, rest = reduct
    if need & m != need:
        return False
    for body, heads in rest:
        if body & m == body and not any(h & m == h for h in heads):
            return False
    return True


def _compile(phi, index: _Index):
    """(at, reads) for a desugared formula over worlds indexed by ``index``:
    ``at(t)`` is the reduct of the formula at t, False when <t, t> fails it,
    and depends on t only at the positions of the mask ``reads``.  Each
    formula object is compiled once per index.  The memo is keyed by object:
    a key by value would hash the whole subtree, recursively, at every node,
    which costs time and halves the nesting depth the evaluator takes."""
    seen = index.compiled.get(id(phi))
    if seen is not None:
        return seen[1]
    tp = type(phi)
    if tp is Defined or tp is Comparison and phi.rel != "<=":
        raise ValueError("satisfaction requires a desugared formula")
    if tp is Comparison:
        items = [(1, i) for i in phi.lhs.items] + [(-1, i) for i in phi.rhs.items]
        found = _compile_le(items, index)
    elif tp is BoolAtom:
        i = index[phi.name]
        need = (1 << i, ())
        found = (lambda t: need if t[i].__class__ is Truth else False), 1 << i
    elif tp is Implies and type(phi.rhs) is Bot:  # a negation: a constant at t
        l_at, reads = _compile(phi.lhs, index)
        found = (lambda t: (0, ()) if l_at(t) is False else False), reads
    elif tp is And or tp is Or or tp is Implies:
        l_at, l_reads = _compile(phi.lhs, index)
        r_at, r_reads = _compile(phi.rhs, index)
        if tp is And:

            def at(t):
                a = l_at(t)
                if a is False:
                    return False
                b = r_at(t)
                return False if b is False else (a[0] | b[0], a[1] + b[1])

        elif tp is Or:

            def at(t):
                a = l_at(t)
                if a is False:
                    return r_at(t)
                if a == (0, ()):  # true at every m
                    return a
                b = r_at(t)
                return a if b is False else _or(a, b)

        else:

            def at(t):
                a = l_at(t)
                if a is False:  # the lhs fails at t, so at every h below it
                    return (0, ())
                b = r_at(t)
                return False if b is False else _implies(a, b)

        found = at, l_reads | r_reads
    elif tp is Bot:
        found = (lambda t: False), 0
    else:
        raise TypeError(f"not a formula: {phi!r}")
    index.compiled[id(phi)] = phi, found
    return found


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


def _code_mask(codes) -> int:
    """The positions the term codes read, as a mask."""
    mask = 0
    for code in codes:
        if code is not None and code[0] is not None:
            mask |= 1 << code[0]
    return mask


def _compile_le(signed_items, index: _Index):
    """(at, reads) for ``sum(sign * item) <= 0`` over the (sign, item) pairs.
    ``at(t)`` is False when a term is undefined at <t, t> or the sum is above
    0, else the reduct: the need of the positions the terms read at t and the
    reduct of each condition that holds at <t, t>; under an h outside it the
    sum is undefined.  The one place of the then/else/U rule: a conditional
    term takes its then-branch at <h, t> when its condition holds there, its
    else-branch when the condition fails at <t, t>, and is undefined
    otherwise.  ``reads`` masks every position the reduct depends on."""
    fixed, branches, reads = [], [], 0
    for sign, item in signed_items:
        if type(item) is ConditionalTerm:
            codes = [_term_code(sign, x, index) for x in (item.then_term, item.else_term)]
            cond_at, cond_reads = _compile(item.condition, index)
            branches.append((cond_at, *codes))
            reads |= cond_reads | _code_mask(codes)
        else:
            fixed.append(_term_code(sign, item, index))
    fixed_mask = _code_mask(fixed)
    reads |= fixed_mask
    if None in fixed:  # a U term: undefined at every t
        return (lambda t: False), reads
    const = sum(k for pos, k in fixed if pos is None)
    terms = tuple(code for code in fixed if code[0] is not None)
    need = fixed_mask, ()

    def at(t):
        acc = const
        for pos, k in terms:
            v = t[pos]
            if v.__class__ is not int:
                return False
            acc += k * v
        if not branches:
            return False if acc > 0 else need
        mask, conds = fixed_mask, ()
        for cond_at, then_, else_ in branches:
            reduct = cond_at(t)
            if reduct is False:
                pos, k = else_
            else:
                pos, k = then_
                mask, conds = mask | reduct[0], conds + reduct[1]
            if pos is not None:
                v = t[pos]
                if v.__class__ is not int:
                    return False
                k *= v
                mask |= 1 << pos
            acc += k
        return False if acc > 0 else (mask, conds)

    return at, reads


def satisfies(interp: Interpretation, phi) -> bool:
    """<h, t> |= phi for a desugared formula, compiled over its own variables."""
    names = tuple(sorted(free_vars(phi)))
    at, _ = _compile(phi, _Index(names))
    return _satisfied(at(_values(interp.t, names)), _full(_values(interp.h, names)))


# --------------------------------------------------------------------------
# Model enumeration


def _reducts_kept(at, reads: int):
    """``at`` evaluated once per value of t at the positions of ``reads``,
    on which alone its reduct depends."""
    key = itemgetter(*[i for i in range(reads.bit_length()) if reads >> i & 1])
    seen = {}

    def kept(t):
        k = key(t)
        reduct = seen.get(k)
        if reduct is None:
            reduct = seen[k] = at(t)
        return reduct

    return kept


def total_models(spec: DomainSpec, formulas, prefix=()):
    """A generator of (t, the join of the formulas' reducts at t) for each t
    over the spec extending the value ``prefix`` whose <t, t> satisfies
    every formula, in enumeration order; the formulas compile before it is
    returned.  Depth-first: a formula's reduct is taken once the last
    position it reads is set (its level); False prunes every extension of
    the partial t, and a need and clauses join those carried down."""
    names = spec.variables()
    index, start = _Index(names), len(prefix)
    due = [[] for _ in range(len(names) + 1)]  # due[k]: evaluated once positions < k are set
    for f in formulas:
        at, reads = _compile(f, index)
        level = reads.bit_length() - 1
        if reads != (1 << level + 1) - 1:
            # a position below the level that the formula does not read:
            # the search reaches the level again with the same values read
            at = _reducts_kept(at, reads)
        due[max(level + 1, start)].append(at)
    choices = [(None,) + spec.domain_values(x) for x in names]
    t = list(prefix) + [None] * (len(names) - start)
    return _extend(due, choices, t, start, 0, ())


def _extend(due, choices, t, k, need, rest):
    """The search below the partial t whose positions < k are set; not a
    closure over itself, whose cycle would keep a dropped search alive."""
    for at in due[k]:
        reduct = at(t)
        if reduct is False:
            return
        need |= reduct[0]
        rest += reduct[1]
    if k == len(t):
        yield tuple(t), (need, rest)
        return
    for v in choices[k]:
        t[k] = v
        yield from _extend(due, choices, t, k + 1, need, rest)


def _least_model(reduct) -> int:
    """The least mask with the reduct's need, closed under its Horn clauses."""
    low, rest = reduct
    rules = [(body, heads[0]) for body, heads in rest if len(heads) == 1]
    grew = True
    while grew:
        grew = False
        for body, head in rules:
            if body & low == body and head & low != head:
                low |= head
                grew = True
    return low


def _open(reduct, low: int) -> tuple:
    """The clauses of the reduct with no head inside ``low``, its least
    model; every mask above ``low`` has the need and the other clauses."""
    return tuple([c for c in reduct[1] if all(h & ~low for h in c[1])])


def _submodels(clauses, full: int, low: int):
    """The proper submasks of ``full`` above ``low`` that satisfy the open
    ``clauses`` of a reduct whose least model is ``low``, in increasing
    order; with no clause left, every one of them, untested."""
    free = full & ~low
    if not clauses:
        return (low | s for s in _submasks(free) if s != free)
    kept = 0, clauses
    return (low | s for s in _submasks(free) if s != free and _satisfied(kept, low | s))


def _proper_model(reduct, full: int):
    """A proper submask of ``full`` that satisfies the reduct, which ``full``
    satisfies; None when there is none, that is when ``full`` is minimal."""
    # the facts alone may define all of t, with no fixpoint to run
    if reduct[0] == full or (low := _least_model(reduct)) == full:
        return None
    if all(len(heads) < 2 for _, heads in reduct[1]):
        return low  # Horn: low is its least model
    return next(_submodels(_open(reduct, low), full, low), None)


def _below(reduct, t):
    """The masks of the proper h below t that satisfy the reduct, in
    increasing order."""
    low = _least_model(reduct)
    return _submodels(_open(reduct, low), _full(t), low)


def _ht_difference(rows_a, rows_b):
    """None when two tables of one spec have the same HT models: the same t
    in order, below each the same masks (listed only where the reducts
    differ).  Else the first t, by ``_order``, where they differ, and the
    masks of each side's models <h, t>, t's own included; none without t."""
    for (ta, ra), (tb, rb) in itertools.zip_longest(rows_a, rows_b, fillvalue=(None, None)):
        if ta != tb or ra != rb and list(_below(ra, ta)) != list(_below(rb, tb)):
            t = min([u for u in (ta, tb) if u is not None], key=_order)
            rows = (ta, ra), (tb, rb)
            return t, *[{*_below(r, t), _full(t)} if u == t else set() for u, r in rows]
    return None


def _certificates(table, names) -> dict:
    """T -> F(T) for the tabled theory and the projection ``names``.

    T is a row's value tuple t|V over ``names`` (sorted, all in the table's
    spec), and H a mask over ``names`` (bit i for ``names[i]``).  K(t) is
    the set of h|V for the proper h below t that satisfy t's reduct, and
    F(T) the minimal sets, by inclusion, among the K(t) of the rows with
    t|V = T.  A row with T itself in K(t) is stable under no context over V
    and is dropped.

    With ``low`` the least model of t's reduct and ``free`` the positions
    of t outside it, a reduct with no clause open above ``low`` holds at
    every proper submask above ``low``.  Such a row is dropped when
    ``free`` leaves V, since ``low`` joined with the part of ``free`` in V
    gives T; otherwise K(t) is {low|V | s : s a proper submask of free}.
    Every other row walks its models and stops at the first over T.
    """
    spec, rows = table
    positions = _positions(spec, names)
    keep = sum(1 << p for p in positions)
    runs = {}  # p - i -> the positions p of names[i], a run of consecutive ones
    for i, p in enumerate(positions):
        runs[p - i] = runs.get(p - i, 0) | 1 << p
    runs = tuple(runs.items())

    def over_names(m):
        bits = 0
        for shift, run in runs:
            bits |= (m & run) >> shift
        return bits

    found = {}

    def add(t, K):
        found.setdefault(tuple([t[p] for p in positions]), set()).add(frozenset(K))

    for t, reduct in rows:
        full, low = _full(t), _least_model(reduct)
        free, clauses = full & ~low, _open(reduct, low)
        if clauses:  # the walk
            K, top = set(), full & keep
            for m in _submodels(clauses, full, low):
                if m & keep == top:
                    break
                K.add(m & keep)
            else:
                add(t, map(over_names, K))
        elif not free & ~keep:  # the closed form
            base, free = over_names(low), over_names(free)
            add(t, [base | s for s in _submasks(free) if s != free])
    families = {}
    for T, sets in found.items():
        minimal = []
        for K in sorted(sets, key=len):
            if not any(k <= K for k in minimal):
                minimal.append(K)
        families[T] = frozenset(minimal)
    return families


def _positions(spec: DomainSpec, names) -> list:
    """The position of each of ``names`` in the spec's value tuples."""
    return [spec.variables().index(n) for n in names]


def _projected_stable(families, names, context=()) -> set:
    """The projected stable models, as value tuples over ``names``, of the
    theory whose certificates over ``names`` are ``families`` with the
    desugared ``context`` formulas over ``names`` added: the T whose <T, T>
    satisfies the context and whose F(T) has some K at every H of which the
    context's reduct at T fails."""
    at, _ = _compile(conj(context), _Index(names))
    out = set()
    for T, family in families.items():
        reduct = at(T)
        if reduct is not False and any(all(not _satisfied(reduct, H) for H in K) for K in family):
            out.add(T)
    return out


def _stable_rows(rows) -> list:
    """The stable models of a table's rows, in table order: the t whose full
    mask is minimal for their reduct."""
    return [t for t, reduct in rows if _proper_model(reduct, _full(t)) is None]


def _scan(spec, formulas, prefix):
    """The pool worker: ``total_models`` of one search subtree, as a list."""
    return list(total_models(spec, formulas, prefix))


def _pool_map(fn, args, jobs):
    """``fn(*a)`` for each tuple ``a`` of ``args``, in order.

    With one job the calls run lazily in this process; otherwise on a pool of
    ``jobs`` workers, all of whose tasks have finished when this returns.
    The pool module is imported only here, so a serial run never loads
    ``multiprocessing``.
    """
    if jobs <= 1:
        return itertools.starmap(fn, args)
    from concurrent.futures import ProcessPoolExecutor

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


def _run(theories, budget, jobs) -> list:
    """The model table ``(spec, rows)`` of every desugared theory (``_compile``
    raises on a surface formula), each budget checked, in order, before any
    search starts.  Every reader takes the rows in one forward pass: at one
    job they are the search, ``total_models``; with several, the ``_scan``
    lists of the subtrees, all mapped on one pool, in prefix order."""
    for thy in theories:
        check_budget(thy.spec, budget)
    if jobs <= 1:
        return [(thy.spec, total_models(thy.spec, theory_formulas(thy))) for thy in theories]
    tasks = [
        [(thy.spec, formulas, p) for p in _prefixes(thy.spec, jobs)]
        for thy, formulas in zip(theories, map(theory_formulas, theories))
    ]
    parts = _pool_map(_scan, itertools.chain(*tasks), jobs)
    return [(thy.spec, [r for _ in own for r in next(parts)]) for thy, own in zip(theories, tasks)]


def stable_models(theory: Theory, budget=None, jobs=1) -> list:
    """All equilibrium valuations t, in lexicographic order.

    Rules are read as their implication form (assignment heads expand to the
    double-negated definedness guard plus the bounding conjunction); the
    theory is desugared first, so min/max aggregates add their auxiliary
    variables to the enumeration alphabet.
    """
    [(spec, rows)] = _run([desugar_theory(theory)], budget, jobs)
    names = spec.variables()
    return [_valuation(names, t) for t in _stable_rows(rows)]


def ht_models(theory: Theory, budget=None, jobs=1) -> list:
    """All interpretations <h, t> over the spec satisfying every statement."""
    [(spec, rows)] = _run([desugar_theory(theory)], budget, jobs)
    names = spec.variables()
    out = []
    for t, reduct in rows:
        tv = _valuation(names, t)
        bits = [1 << i for i, v in enumerate(t) if v is not None]  # one per pair of tv
        for m in _below(reduct, t):
            h = Valuation._sorted(tuple(itertools.compress(tv._pairs, map(m.__and__, bits))))
            out.append(_interpretation(h, tv))
        out.append(_interpretation(tv, tv))
    return out


# --------------------------------------------------------------------------
# Supportedness


def is_supported(t: Valuation, program: Theory) -> bool:
    """Every variable the program declares and t defines has a supporting
    rule; the min/max auxiliaries of its desugaring need none.

    A rule supports x when it carries an assignment x := a..b whose bounds
    evaluate (under t) to integers enclosing t(x), no assignment to another
    variable in the same head is satisfied by t, and t satisfies the body.
    """
    declared = program.spec.variables()
    program = desugar_theory(program)
    rules = [
        (
            [((a.target,), phi(a), assignment_formula(a)) for a in r.head],
            list(r.pos_body) + [Not(b) for b in r.neg_body],
        )
        for r in program.rules
    ]
    names = program.spec.variables()
    holds = _holds_at(_Index(names), _values(t, names))
    return all(_supported(x, rules, holds, holds) for x in t.names() if x in declared)


def _holds_at(index: _Index, world):
    """The test "<t, t> satisfies f" for desugared f, t the value tuple
    ``world`` over ``index``; f is compiled when first tested, once per index."""
    return lambda f: _compile(f, index)[0](world) is not False


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
