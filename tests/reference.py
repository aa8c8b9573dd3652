"""The tests' one brute-force oracle, and the other helpers only the tests use.

``ref_sat`` reads a desugared formula at an interpretation <h, t> of
Valuations straight from the definitions, with no sharing, no memoization
and nothing of the engine's evaluator, so a bug in the engine's shortcuts
cannot hide in both; ``ref_branch`` is the one place of the then/else/U rule.
On them stand a theory's HT models, stable models, projected stable models
under a context, supportedness and model table, by enumerating every <h, t>,
and the views ``eval_term``, ``eval_atom`` and ``expr_value``, which desugar
the conditions they read.  The rest brings a linear constraint to its normal
form, tests HT validity, reads certificates by walking every row's models
below t (``decoded`` reads the engine's truth tables as the same sets), and
compares HT models as sets of (mask, t) pairs.
"""

from htc import transforms
from htc.errors import TransformError
from htc.semantics import (
    Interpretation,
    Valuation,
    _order,
    _positions,
    _restrict,
    _submasks,
    enumerate_valuations,
    ht_models,
)
from htc.syntax import (
    TRUE,
    And,
    BoolAtom,
    Bot,
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
    const_expr,
    desugar_comparisons,
    desugar_theory,
    make_theory,
    negated_term,
)
from htc.transforms import theory_formulas

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


def walked_below(reduct, full):
    """The proper submasks of ``full`` that satisfy the reduct (the need,
    and a head of each clause whose body they have), tested one at a time
    in increasing order, with no fixpoint and no truth table."""
    need, rest = reduct

    def holds(m):
        clauses = (body & ~m or any(h & ~m == 0 for h in heads) for body, heads in rest)
        return need & ~m == 0 and all(clauses)

    return (m for m in _submasks(full) if m != full and holds(m))


# --------------------------------------------------------------------------
# Desugared formulas, conditional terms and expressions at <h, t>


def ref_sat(h: Valuation, t: Valuation, phi) -> bool:
    """<h, t> satisfies the desugared formula phi."""
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, BoolAtom):
        return h.get(phi.name) == TRUE
    if isinstance(phi, Comparison):
        assert phi.rel == "<="
        a = ref_expr_value(h, t, phi.lhs)
        b = ref_expr_value(h, t, phi.rhs)
        return a is not U and b is not U and a <= b
    if isinstance(phi, And):
        return ref_sat(h, t, phi.lhs) and ref_sat(h, t, phi.rhs)
    if isinstance(phi, Or):
        return ref_sat(h, t, phi.lhs) or ref_sat(h, t, phi.rhs)
    if isinstance(phi, Implies):
        for w in (h, t):
            if ref_sat(w, t, phi.lhs) and not ref_sat(w, t, phi.rhs):
                return False
        return True
    raise TypeError(phi)


def ref_branch(h: Valuation, t: Valuation, term: ConditionalTerm):
    """The branch a conditional term with a desugared condition takes at
    <h, t>: then when its condition holds at <h, t>, U when it holds only at
    <t, t>, else otherwise."""
    if ref_sat(h, t, term.condition):
        return term.then_term
    if ref_sat(t, t, term.condition):
        return U
    return term.else_term


def ref_expr_value(h: Valuation, t: Valuation, e: LinearExpr):
    """Value under h of the expression, its conditions desugared, unfolded
    at <h, t>; U when some term it picks is undefined."""
    total = 0
    for item in e.items:
        if type(item) is ConditionalTerm:
            item = ref_branch(h, t, item)
        if type(item) is Const:
            total += item.value
        elif type(item) is Scaled and type(x := h.get(item.var)) is int:
            total += item.coeff * x
        else:
            return U
    return total


# --------------------------------------------------------------------------
# Models, supportedness and tables by enumerating every <h, t>


def _holds(formulas, h, t) -> bool:
    return all(ref_sat(h, t, f) for f in formulas)


def ref_ht_models(theory):
    """Every pair <h, t> over the spec, h included in t, that satisfies the
    theory, in enumeration order of t and then h."""
    theory = desugar_theory(theory)
    formulas = theory_formulas(theory)
    return [
        Interpretation(h, t)
        for t in enumerate_valuations(theory.spec)
        for h in subvaluations(t)
        if _holds(formulas, h, t)
    ]


def ref_stable_models(theory):
    """Every total t over the spec that satisfies the theory and has no
    proper h below it that does, in enumeration order."""
    theory = desugar_theory(theory)
    formulas = theory_formulas(theory)
    return [
        t
        for t in enumerate_valuations(theory.spec)
        if _holds(formulas, t, t)
        and not any(_holds(formulas, h, t) for h in proper_subvaluations(t))
    ]


def ref_projected_stable(theory, names, context=()) -> set:
    """The stable models of the theory with the formulas ``context`` added,
    each as the tuple of its values of ``names``, None where undefined."""
    extended = make_theory(theory.spec, theory.statements + tuple(context))
    return {tuple(v.get(x) for x in names) for v in ref_stable_models(extended)}


def ref_table(theory):
    """Each total t over the whole product, with the proper h below it."""
    theory = desugar_theory(theory)
    formulas = theory_formulas(theory)
    return [
        (t, {h for h in proper_subvaluations(t) if _holds(formulas, h, t)})
        for t in enumerate_valuations(theory.spec)
        if _holds(formulas, t, t)
    ]


def ref_is_supported(t: Valuation, program) -> bool:
    """Every variable the program declares and t defines has a rule with an
    assignment to it whose bounds enclose its value, no satisfied assignment
    to another variable in the same head, and a body that t satisfies."""
    declared = set(program.spec.variables())
    program = desugar_theory(program)

    def holds(phi):
        return ref_sat(t, t, phi)

    def supports(rule, a, x):
        lo = ref_expr_value(t, t, a.lower)
        hi = ref_expr_value(t, t, a.upper)
        d = t.get(x)
        return (
            a.target == x
            and isinstance(d, int)
            and lo is not U
            and hi is not U
            and lo <= d <= hi
            and not any(holds(transforms.assignment_formula(o)) for o in rule.head if o.target != x)
            and all(holds(b) for b in rule.pos_body)
            and not any(holds(b) for b in rule.neg_body)
        )

    return all(
        any(supports(rule, a, x) for rule in program.rules for a in rule.head)
        for x in t.names()
        if x in declared
    )


def projections(names):
    """Every non-empty subset of ``names``, in name order."""
    return [
        tuple(n for j, n in enumerate(names) if k >> j & 1) for k in range(1, 1 << len(names))
    ]


# --------------------------------------------------------------------------
# Views: terms, atoms and expressions whose conditions may carry surface
# relations, at <h, t>


def eval_term(h: Valuation, t: Valuation, term):
    """Unfold one term at <h, t>: linear terms pass through, a conditional
    term, its condition desugared, takes the branch ``ref_branch`` gives."""
    if isinstance(term, (Const, Scaled, Undefined)):
        return term
    if isinstance(term, ConditionalTerm):
        cond = desugar_comparisons(term.condition)
        return ref_branch(h, t, ConditionalTerm(term.then_term, term.else_term, cond))
    raise TypeError(f"not a term: {term!r}")


def _unfold(h: Valuation, t: Valuation, e: LinearExpr) -> LinearExpr:
    return LinearExpr(tuple(eval_term(h, t, item) for item in e.items))


def eval_atom(h: Valuation, t: Valuation, atom):
    """Replace every conditional term in the atom by its evaluation at <h, t>."""
    if isinstance(atom, Comparison):
        return Comparison(_unfold(h, t, atom.lhs), atom.rel, _unfold(h, t, atom.rhs))
    if isinstance(atom, Defined):
        return Defined(_unfold(h, t, atom.arg))
    if isinstance(atom, BoolAtom):
        return atom
    raise TypeError(f"not a constraint atom: {atom!r}")


def expr_value(h: Valuation, t: Valuation, e: LinearExpr):
    """Value under h of the expression unfolded at <h, t>, the sum of the
    terms its conditional terms pick there; U when some term is undefined."""
    return ref_expr_value(h, t, _unfold(h, t, e))


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


def decoded(families) -> dict:
    """The engine's certificates as ``certificates`` gives them: each K,
    a truth table with bit H set for each mask H in it, as the set of its H."""
    return {
        T: frozenset(frozenset(H for H in range(K.bit_length()) if K >> H & 1) for K in family)
        for T, family in families.items()
    }


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
    for t, full, reduct in rows:
        top = full & keep
        K = set()
        for m in walked_below(reduct, full):
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
    return {(m, t) for t, full, reduct in rows for m in (*walked_below(reduct, full), full)}


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
