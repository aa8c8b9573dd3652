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
At a fixed t each piece of the formula becomes:

- False, when ``<t, t>`` fails it; by persistence so does every ``<h, t>``;
- for a comparison: every position it reads, counting the branch each
  conditional term takes at t, is in m, and for each conditional whose
  condition holds at t, the reduct of that condition holds at m.  The value
  under h is then the value at t, so no arithmetic is done per h;
- for a Boolean atom: its bit is in m;
- for ``and``, ``or``: the conjunction, disjunction of the two reducts;
- for an implication that holds at t: the classical implication between
  the reducts (an antecedent false at t makes it true);
- for a negation: true when the negated formula's reduct is False.

A reduct is kept as clauses ``(body, heads)``: when m has every bit of
``body`` it has every bit of some mask in ``heads`` (no heads: never).
This is the package's only evaluator; the then/else/U rule of conditional
terms lives in one place, ``_compile_branch``.

The engine takes desugared theories only.  Each entry point desugars its
input once: ``stable_models``, ``ht_models`` and ``is_supported`` here,
``equivalent``, ``stable_equivalent``, ``strong_equivalent`` and
``strong_equiv_sampled`` in the checker.  Nothing below them desugars
again, and a surface formula that reaches ``_compile`` makes it raise.

Every model reader sits on one enumeration core over a compiled theory:
``total_models`` yields the t whose ``<t, t>`` satisfies the formulas, each
with the clauses of their reducts at t, which give the h below it.  Reading
only the h below total models loses nothing, by persistence: if ``<h, t>``
satisfies a formula, so does ``<t, t>``.

``total_models`` is a depth-first search that assigns the variables in spec
order, each first undefined and then through its domain in order, so it
yields the t in the order of ``enumerate_valuations``.  A formula's ``at``
runs as soon as the last position it reads (condition variables included)
is assigned, a ground formula's before any assignment: False cuts off every
candidate that extends the prefix, and a reduct joins the clauses carried
down to each t.  When the formula does not read some earlier position, the
search comes back to it with the values it reads unchanged; such a formula
keeps its reduct per value of those positions and runs once per value.

One scan, ``_scan``, lists those pairs as the rows ``(t, reduct)`` of a
model table; with several jobs, ``_run`` splits the search into subtrees,
one per value prefix of the leading variables, maps them on one process
pool (the workers compile the formulas themselves) and concatenates the
rows in prefix order.  Three readers answer every question from the rows:
``_below(reduct, t)`` lists the masks of the proper h below t that satisfy
the reduct, for ``ht_models`` and the checker's HT comparisons;
``_stable_rows(table)`` lists the t with no proper submask that satisfies
their reduct, for ``stable_models`` and the checker's stable comparison;
and ``_certificates(table, names)`` reads ``_below`` projected onto
``names``, for the checker's strong comparisons (Eiter, Tompits and
Woltran, IJCAI 2005), which read stability under any context over
``names`` off them alone, with ``_projected_stable``.

Below t, every model of a reduct contains the least fixpoint of its clauses
with one head.  t is stable when that fixpoint is t's full mask.
Otherwise, when every clause has at most one head (the reduct is Horn), the
fixpoint is itself a proper model and t is not stable; only a reduct with
disjunctive heads (as in ``a := 1 ; b := 1``) makes the stability test walk
the proper submasks above the fixpoint, stopping at the first that
satisfies it, while ``_below`` walks them all.  Masks are walked in
increasing order (``m = (m - full) & full``).

``Valuation`` and ``Interpretation`` objects are built only where models
leave the core: the results of ``stable_models`` and ``ht_models``, the
checker's witnesses, and ``satisfies``, a view of the compiled evaluator
that compiles its formula over its own variables on every call, with no
cache, and evaluates it once.  v is in the denotation of a condition-free
atom when ``satisfies(Interpretation(v, v), atom)``.  ``_valuation`` builds a
Valuation in one pass from a value tuple, whose positions are already in
name order, and ``ht_models`` pairs each h with its t without re-checking
that h is included in t, which holds by construction.
``Valuation.project`` returns the valuation itself when it drops no
defined name, so ``solve`` on a spec that desugaring did not extend prints
the rows as they come: distinct, and in ``valuation_key`` order.

The enumeration is exhaustive by design and refuses domain specs whose
interpretation count exceeds a budget (default 10**7).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
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
    Not,
    Or,
    Scaled,
    Theory,
    Truth,
    TRUE,
    Undefined,
    check_budget,
    conj,
    desugar_theory,
    free_vars,
)
from .transforms import assignment_formula, phi, theory_formulas

# --------------------------------------------------------------------------
# Valuations and interpretations


class Valuation:
    """Immutable partial map from variables to domain values.

    Undefined variables are simply absent, so subset comparison is plain
    set inclusion on the defined pairs.
    """

    __slots__ = ("_pairs", "_map", "_hash")

    def __init__(self, pairs=()):
        self._set(tuple(sorted(dict(pairs).items())))

    @classmethod
    def _sorted(cls, pairs: tuple) -> "Valuation":
        """The Valuation of ``pairs``, already in name order, no name twice."""
        v = cls.__new__(cls)
        v._set(pairs)
        return v

    def _set(self, pairs: tuple):
        self._pairs = pairs
        self._map = dict(pairs)
        self._hash = hash(pairs)

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
        """The pairs whose name is in ``names``; self when none is dropped."""
        keep = set(names)
        pairs = tuple([p for p in self._pairs if p[0] in keep])
        return self if len(pairs) == len(self._pairs) else Valuation._sorted(pairs)

    def to_json(self) -> dict:
        return {n: (True if v.__class__ is Truth else v) for n, v in self._pairs}


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


def _valuation(names, world) -> Valuation:
    """The Valuation of a value tuple over ``names``, which are sorted, as
    ``spec.variables()`` is, so its pairs come out in name order."""
    return Valuation._sorted(tuple([(n, v) for n, v in zip(names, world) if v is not None]))


def _interpretation(h: Valuation, t: Valuation) -> Interpretation:
    """<h, t> for an h built below t, so included in it by construction."""
    i = Interpretation.__new__(Interpretation)
    object.__setattr__(i, "h", h)
    object.__setattr__(i, "t", t)
    return i


def _values(v: Valuation, names) -> list:
    """The values of ``names`` under v, None where undefined."""
    get = v._map.get
    return [get(n) for n in names]


def _full(t) -> int:
    """The positions a value tuple defines, as a bitmask."""
    return sum(1 << i for i, v in enumerate(t) if v is not None)


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

# A world is a sequence of values indexed by variable position, None where
# undefined, and h is t restricted to a bitmask m of positions (bit i for
# position i).  A reduct is a tuple of clauses (body, heads) over m: when m
# has every bit of ``body``, it has every bit of some mask in ``heads``;
# no heads is a constraint.  ``at(t)`` is False when <t, t> fails.


class _Index(dict):
    """Variable name -> position in a world, with the memo of ``_compile``:
    ``compiled`` maps the id of each formula object compiled over these
    positions to the object, kept alive so that its id is not reused, and
    its result."""

    __slots__ = ("compiled",)

    def __init__(self, names):
        super().__init__((n, i) for i, n in enumerate(names))
        self.compiled = {}


def _need(mask: int) -> tuple:
    """The reduct that asks for every bit of ``mask``."""
    return ((0, (mask,)),) if mask else ()


def _or(a: tuple, b: tuple) -> tuple:
    """a or b, clause by clause: (b1 -> H1) or (b2 -> H2) is (b1 | b2) -> H1 or
    H2.  A head inside the body makes the clause hold, so it goes."""
    out = []
    for b1, h1 in a:
        for b2, h2 in b:
            body = b1 | b2
            heads = tuple(dict.fromkeys(h & ~body for h in h1 + h2))
            if 0 not in heads:
                out.append((body, heads))
    return tuple(dict.fromkeys(out))


def _implies(a: tuple, b: tuple) -> tuple:
    """a -> b as (not a) or b, where not (body -> H) is body and no mask of H."""
    for body, heads in a:
        b = _or(_need(body) + tuple((h, ()) for h in heads), b)
    return b


def _satisfied(reduct, m: int) -> bool:
    """m satisfies the reduct; never when the reduct is False."""
    if reduct is False:
        return False
    for body, heads in reduct:
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
    if tp is Comparison:
        if phi.rel != "<=":
            raise ValueError("satisfaction requires a desugared formula")
        # lhs <= rhs holds when lhs - rhs is defined and at most 0
        sum_at, reads = _compile_sum(
            [(1, i) for i in phi.lhs.items] + [(-1, i) for i in phi.rhs.items], index
        )

        def at(t):
            r = sum_at(t)
            return False if r is None or r[0] > 0 else r[1]

        found = at, reads
    elif tp is BoolAtom:
        i = index[phi.name]
        need = _need(1 << i)
        found = (lambda t: need if t[i].__class__ is Truth else False), 1 << i
    elif tp is Implies and type(phi.rhs) is Bot:  # a negation: a constant at t
        l_at, reads = _compile(phi.lhs, index)
        found = (lambda t: () if l_at(t) is False else False), reads
    elif tp is And or tp is Or or tp is Implies:
        l_at, l_reads = _compile(phi.lhs, index)
        r_at, r_reads = _compile(phi.rhs, index)
        if tp is And:

            def at(t):
                a = l_at(t)
                if a is False:
                    return False
                b = r_at(t)
                return False if b is False else a + b

        elif tp is Or:

            def at(t):
                a = l_at(t)
                if a is False:
                    return r_at(t)
                if not a:  # true at every m
                    return a
                b = r_at(t)
                return a if b is False else _or(a, b)

        else:

            def at(t):
                a = l_at(t)
                if a is False:  # the lhs fails at t, so at every h below it
                    return ()
                b = r_at(t)
                return False if b is False else _implies(a, b)

        found = at, l_reads | r_reads
    elif tp is Bot:
        found = (lambda t: False), 0
    elif tp is Defined:
        raise ValueError("satisfaction requires a desugared formula")
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


def _compile_branch(term: ConditionalTerm, index: _Index, then_, else_):
    """The branch rule of a conditional term as (at, reads): ``at(t)`` is
    (``then_``, the condition's reduct at t) when the condition holds at
    <t, t>, else (``else_``, ()), and ``reads`` masks the condition's
    positions.  At <h, t> the term takes ``then_`` when m satisfies that
    reduct, else it is undefined, and ``else_`` when the condition fails
    at t."""
    cond_at, reads = _compile(term.condition, index)

    def at(t):
        reduct = cond_at(t)
        return (else_, ()) if reduct is False else (then_, reduct)

    return at, reads


def _compile_sum(signed_items, index: _Index):
    """(at, reads) for the sum of ``sign * item`` over the (sign, item)
    pairs.  ``at(t)`` is None when some term is undefined at <t, t>, else
    (value, reduct): its integer value at <t, t>, which it keeps under h
    when m satisfies the reduct (the positions it reads, and the condition
    of every then-branch taken at t); under any other h it is undefined.
    ``reads`` masks every position the value or the reduct depends on."""
    fixed, branches, reads = [], [], 0
    for sign, item in signed_items:
        if type(item) is ConditionalTerm:
            codes = [_term_code(sign, x, index) for x in (item.then_term, item.else_term)]
            b_at, b_reads = _compile_branch(item, index, *codes)
            branches.append(b_at)
            reads |= b_reads | _code_mask(codes)
        else:
            fixed.append(_term_code(sign, item, index))
    fixed_mask = _code_mask(fixed)
    reads |= fixed_mask
    if None in fixed:  # a U term: undefined at every t
        return (lambda t: None), reads
    const = sum(k for pos, k in fixed if pos is None)
    terms = tuple(code for code in fixed if code[0] is not None)
    need = _need(fixed_mask)

    def fixed_at(t):
        acc = const
        for pos, k in terms:
            v = t[pos]
            if v.__class__ is not int:
                return None
            acc += k * v
        return acc, need

    if not branches:
        return fixed_at, reads

    def at(t):
        r = fixed_at(t)
        if r is None:
            return None
        acc, mask, conds = r[0], fixed_mask, ()
        for b_at in branches:
            code, cond = b_at(t)
            if code is None:
                return None
            pos, k = code
            if pos is not None:
                v = t[pos]
                if v.__class__ is not int:
                    return None
                k *= v
                mask |= 1 << pos
            acc += k
            conds += cond
        return acc, _need(mask) + conds

    return at, reads


def satisfies(interp: Interpretation, phi) -> bool:
    """<h, t> |= phi for a desugared formula, compiled over its own variables."""
    names = tuple(sorted(free_vars(phi)))
    at, _ = _compile(phi, _Index(names))
    return _satisfied(at(_values(interp.t, names)), _full(_values(interp.h, names)))


# --------------------------------------------------------------------------
# Model enumeration


class _Core(NamedTuple):
    """Formulas compiled over a spec, each as (level, at), where ``level``
    is the last position the formula reads (-1 when ground)."""

    names: tuple
    index: _Index
    choices: tuple  # per position: None, then the domain in order
    formulas: tuple


def _core(spec: DomainSpec, formulas) -> _Core:
    names = spec.variables()
    index = _Index(names)
    compiled = []
    for f in formulas:
        at, reads = _compile(f, index)
        level = reads.bit_length() - 1
        if reads != (1 << level + 1) - 1:
            # a position below the level that the formula does not read:
            # the search reaches the level again with the same values read
            at = _reducts_kept(at, reads)
        compiled.append((level, at))
    choices = tuple((None,) + spec.domain_values(n) for n in names)
    return _Core(names, index, choices, tuple(compiled))


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


def total_models(core: _Core, prefix=()):
    """(t, the clauses of every formula's reduct at t) for each t extending
    the value ``prefix`` whose <t, t> satisfies every formula, in enumeration
    order.  Depth-first; a formula's reduct is taken once the last position
    it reads has a value (its level): False prunes every extension of the
    partial t, and clauses join those carried down."""
    n, start = len(core.names), len(prefix)
    due = [[] for _ in range(n + 1)]  # due[k]: evaluated once positions < k are set
    for level, at in core.formulas:
        due[max(level + 1, start)].append(at)
    t = list(prefix) + [None] * (n - start)

    def extend(k, clauses):
        for at in due[k]:
            reduct = at(t)
            if reduct is False:
                return
            clauses += reduct
        if k == n:
            yield tuple(t), clauses
            return
        for v in core.choices[k]:
            t[k] = v
            yield from extend(k + 1, clauses)

    yield from extend(start, ())


def _least_model(reduct) -> int:
    """The least mask closed under the reduct's clauses with one head."""
    rules = [(body, heads[0]) for body, heads in reduct if len(heads) == 1]
    low, grew = 0, True
    while grew:
        grew = False
        for body, head in rules:
            if body & low == body and head & low != head:
                low |= head
                grew = True
    return low


def _submodels(reduct, full: int, low: int):
    """The proper submasks of ``full`` that contain ``low`` and satisfy the
    reduct, in increasing order."""
    free = full & ~low
    return (low | s for s in _submasks(free) if s != free and _satisfied(reduct, low | s))


def _proper_model(reduct, full: int):
    """A proper submask of ``full`` that satisfies the reduct, which ``full``
    satisfies; None when there is none, that is when ``full`` is minimal."""
    low = _least_model(reduct)
    if low == full:
        return None
    if all(len(heads) < 2 for _, heads in reduct):
        return low  # Horn: low is its least model
    return next(_submodels(reduct, full, low), None)


def _below(reduct, t):
    """The masks of the proper h below t that satisfy the reduct, in
    increasing order."""
    return _submodels(reduct, _full(t), _least_model(reduct))


def _certificates(table, names) -> dict:
    """T -> F(T) for the tabled theory and the projection ``names``.

    T is a row's value tuple t|V over ``names`` (sorted, all in the table's
    spec), and H a mask over ``names`` (bit i for ``names[i]``).  K(t) is
    the set of h|V for the proper h below t that satisfy t's reduct, and
    F(T) the minimal sets, by inclusion, among the K(t) of the rows with
    t|V = T.  A row with T itself in K(t) is stable under no context over V:
    its walk stops there and the row is dropped.
    """
    spec, rows = table
    index = _Index(spec.variables())
    positions = [index[n] for n in names]
    keep = sum(1 << p for p in positions)

    def over_names(m):
        return sum(1 << i for i, p in enumerate(positions) if m >> p & 1)

    found = {}
    for t, reduct in rows:
        top = _full(t) & keep
        K = set()
        for m in _below(reduct, t):
            if m & keep == top:
                break
            K.add(m & keep)
        else:
            T = tuple(t[p] for p in positions)
            found.setdefault(T, set()).add(frozenset(map(over_names, K)))
    families = {}
    for T, sets in found.items():
        minimal = []
        for K in sorted(sets, key=len):
            if not any(k <= K for k in minimal):
                minimal.append(K)
        families[T] = frozenset(minimal)
    return families


def _projected_stable(families, names, context=()) -> set:
    """The projected stable models, as Valuations over ``names``, of the
    theory whose certificates over ``names`` are ``families`` with the
    desugared ``context`` formulas over ``names`` added: the T whose <T, T>
    satisfies the context and whose F(T) has some K at every H of which the
    context's reduct at T fails."""
    at, _ = _compile(conj(context), _Index(names))
    out = set()
    for T, family in families.items():
        reduct = at(T)
        if reduct is not False and any(all(not _satisfied(reduct, H) for H in K) for K in family):
            out.add(_valuation(names, T))
    return out


def _stable_rows(table) -> list:
    """The table's stable models, as Valuations in table order: the t of the
    rows whose full mask is minimal for their reduct."""
    spec, rows = table
    names = spec.variables()
    return [_valuation(names, t) for t, reduct in rows if _proper_model(reduct, _full(t)) is None]


def _scan(spec, formulas, prefix):
    """Table rows: (t, reduct) for each total model t of the formulas that
    extends the value ``prefix``, in enumeration order."""
    return list(total_models(_core(spec, formulas), prefix))


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
    """The model table of every theory: ``_scan`` over the search subtrees
    of each, all mapped on one pool.

    The theories must be desugared already; ``_compile`` raises on a surface
    formula.  Each theory's budget is checked, in order, before any scan
    starts.  Returns ``(spec, rows)`` per theory, its rows concatenated in
    prefix order.
    """
    for thy in theories:
        check_budget(thy.spec, budget)
    owners, tasks = [], []
    for k, thy in enumerate(theories):
        formulas = theory_formulas(thy)
        for prefix in _prefixes(thy.spec, jobs):
            owners.append(k)
            tasks.append((thy.spec, formulas, prefix))
    rows = [[] for _ in theories]
    for k, part in zip(owners, _pool_map(_scan, tasks, jobs)):
        rows[k].extend(part)
    return [(thy.spec, r) for thy, r in zip(theories, rows)]


def stable_models(theory: Theory, budget=None, jobs=1) -> list:
    """All equilibrium valuations t, in lexicographic order.

    Rules are read as their implication form (assignment heads expand to the
    double-negated definedness guard plus the bounding conjunction); the
    theory is desugared first, so min/max aggregates add their auxiliary
    variables to the enumeration alphabet.
    """
    [table] = _run([desugar_theory(theory)], budget, jobs)
    return _stable_rows(table)


def ht_models(theory: Theory, budget=None, jobs=1) -> list:
    """All interpretations <h, t> over the spec satisfying every statement."""
    [(spec, rows)] = _run([desugar_theory(theory)], budget, jobs)
    names = spec.variables()
    out = []
    for t, reduct in rows:
        tv = _valuation(names, t)
        below = _below(reduct, t)
        out.extend(_interpretation(_valuation(names, _restrict(t, m)), tv) for m in below)
        out.append(_interpretation(tv, tv))
    return out


# --------------------------------------------------------------------------
# Supportedness


def is_supported(t: Valuation, program: Theory) -> bool:
    """Every defined variable of t has a supporting rule.

    A rule supports x when it carries an assignment x := a..b whose bounds
    evaluate (under t) to integers enclosing t(x), no assignment to another
    variable in the same head is satisfied by t, and t satisfies the body.
    """
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
    return all(_supported(x, rules, holds, holds) for x in t.names())


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
