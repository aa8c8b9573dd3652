"""Valuation-level helpers that only the tests use.

The engine works on value tuples and definedness masks and builds
``Valuation`` objects only where models leave it.  The helpers below read
single terms, atoms and expressions at an interpretation ``<h, t>`` of
Valuations, list the h below a t, bring a linear constraint to its normal
form (constant right-hand side), test HT validity, read certificates by
walking every row's models below t, and compare HT models as sets of
(mask, t) pairs; the test modules import them from here.  ``eval_term``,
``eval_atom`` and ``expr_value`` apply the then/else/U rule of conditional
terms and sum the picked terms under h themselves, so a test of them
against the engine checks that rule.  Each condition, its own conditional
terms desugared away, is read with ``satisfies``, which compiles it through
the engine's comparison compiler: the views are independent of the engine
in the branch rule and the summing, not in reading conditions.
"""

from htc.errors import TransformError
from htc.semantics import (
    Interpretation,
    Valuation,
    _below,
    _full,
    _order,
    _positions,
    _restrict,
    ht_models,
    satisfies,
)
from htc.syntax import (
    And,
    BoolAtom,
    Comparison,
    Const,
    ConditionalTerm,
    Defined,
    Implies,
    LinearExpr,
    Not,
    Or,
    Scaled,
    U,
    Undefined,
    _desugar_expr_conditions,
    const_expr,
    make_theory,
    negated_term,
)

# --------------------------------------------------------------------------
# The h below a t


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
# Terms, atoms and expressions at <h, t>


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
    if isinstance(atom, BoolAtom):
        return atom
    raise TypeError(f"not a constraint atom: {atom!r}")


def _pick_branches(h: Valuation, t: Valuation, e: LinearExpr) -> LinearExpr:
    """e with its conditions desugared and each conditional term replaced by
    the branch it takes at <h, t>: then when its condition holds at <h, t>,
    U when it holds only at <t, t>, else otherwise."""
    items = []
    for item in _desugar_expr_conditions(e).items:
        if type(item) is ConditionalTerm:
            cond = item.condition
            if satisfies(Interpretation(h, t), cond):
                item = item.then_term
            elif satisfies(Interpretation(t, t), cond):
                item = U
            else:
                item = item.else_term
        items.append(item)
    return LinearExpr(tuple(items))


def expr_value(h: Valuation, t: Valuation, e: LinearExpr):
    """Value under h of the expression unfolded at <h, t>, the sum of the
    terms its conditional terms pick there; U when some term is undefined."""
    total = 0
    for item in _pick_branches(h, t, e).items:
        if type(item) is Const:
            total += item.value
        elif type(item) is Scaled and type(h.get(item.var)) is int:
            total += item.coeff * h.get(item.var)
        else:
            return U
    return total


# --------------------------------------------------------------------------
# The normal form of a linear constraint (constant right-hand side)


def normalize_constraint(atom: Comparison) -> Comparison:
    """Move non-constant terms left (negated when crossing), constants right.

    Atoms whose right-hand side is already a single constant are returned
    unchanged.  Conditional terms move branch-wise, so definedness behaviour
    is identical before and after.
    """
    if atom.rel != "<=":
        raise TransformError("normal form is defined for <= atoms")
    if len(atom.rhs.items) == 1 and isinstance(atom.rhs.items[0], Const):
        return atom
    lhs_terms, lhs_const = _split_constants(atom.lhs)
    rhs_terms, rhs_const = _split_constants(atom.rhs)
    items = lhs_terms + [negated_term(t) for t in rhs_terms]
    new_lhs = LinearExpr(tuple(items)) if items else const_expr(0)
    return Comparison(new_lhs, "<=", const_expr(rhs_const - lhs_const))


def normalize_equality(lhs: LinearExpr, rhs: LinearExpr):
    """The pair of normal-form constraints equivalent to lhs = rhs.

    Written with every term on the left: first the negated right-hand side
    followed by the left-hand side (<= 0), then the same sum negated.
    """
    gamma = tuple(negated_term(t) for t in rhs.items) + lhs.items
    neg_gamma = tuple(negated_term(t) for t in gamma)
    zero = const_expr(0)
    return (
        Comparison(LinearExpr(gamma), "<=", zero),
        Comparison(LinearExpr(neg_gamma), "<=", zero),
    )


def _split_constants(e: LinearExpr):
    terms, const = [], 0
    for item in e.items:
        if isinstance(item, Const):
            const += item.value
        else:
            terms.append(item)
    return terms, const


# --------------------------------------------------------------------------
# Here-and-there tautology schemata (substitution instances stay tautologies)


def _iff(a, b):
    return And(Implies(a, b), Implies(b, a))


def ht_tautology_schemata():
    """Named builders for valid schemata; instantiating their metavariables
    with arbitrary formulas must yield tautologies."""

    def negneg_intro(g, f, s):
        return Implies(f, Not(Not(f)))

    def orimp(g, f, s):
        return _iff(
            Or(g, Implies(f, s)),
            And(Implies(f, Or(s, g)), Implies(Not(s), Or(Not(f), g))),
        )

    def nest_impl(g, f, s):
        return _iff(Implies(f, Implies(s, g)), Implies(And(f, s), g))

    def andimp(g, f, s):
        return _iff(Implies(f, And(s, g)), And(Implies(f, s), Implies(f, g)))

    def negneg(g, f, s):
        return _iff(Or(g, Not(Not(f))), Implies(Not(f), g))

    def df(g, f, s):
        return _iff(
            Or(g, And(Not(Not(f)), Implies(f, s))),
            And(Implies(f, Or(s, g)), And(Implies(Not(s), g), Implies(Not(f), g))),
        )

    return [
        ("negneg-intro", negneg_intro),
        ("orimp", orimp),
        ("nest-impl", nest_impl),
        ("andimp", andimp),
        ("negneg", negneg),
        ("df", df),
    ]


def is_ht_tautology(phi, spec, budget=None) -> bool:
    """Every interpretation over the spec satisfies phi."""
    thy = make_theory(spec, [phi])
    return len(ht_models(thy, budget=budget)) == spec.interpretation_count()


# --------------------------------------------------------------------------
# Certificates by the walk of every row


def certificates(table, names) -> dict:
    """T -> F(T) for the tabled theory and the projection ``names``, read
    by walking each row's models below t up to the first over T.

    T is a row's value tuple t|V over ``names`` (sorted, all in the table's
    spec), and H a mask over ``names`` (bit i for ``names[i]``).  K(t) is
    the set of h|V for the proper h below t that satisfy t's reduct, and
    F(T) the minimal sets, by inclusion, among the K(t) of the rows with
    t|V = T.  A row with T itself in K(t) is stable under no context over V:
    its walk stops there and the row is dropped.
    """
    spec, rows = table
    positions = _positions(spec, names)
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


# --------------------------------------------------------------------------
# HT models as (mask, t) pair sets, compared whole


def ht_pairs(rows) -> set:
    """The (mask, t) pairs of a table's rows, each <t, t> included."""
    return {(m, t) for t, reduct in rows for m in (*_below(reduct, t), _full(t))}


def first_pair_only(rows_a, rows_b):
    """(side, mask, t) for the first pair, by t and then h, that only one
    table's pair set has, the left side's on a tie; None when they agree."""
    pa, pb = ht_pairs(rows_a), ht_pairs(rows_b)
    only = [("left-only", p) for p in pa - pb] + [("right-only", p) for p in pb - pa]
    if not only:
        return None

    def key(pick):  # t, then h, then the side
        side, (m, t) = pick
        return _order(t), _order(_restrict(t, m)), side

    side, (m, t) = min(only, key=key)
    return side, m, t
