"""Source-to-source transformations.

* assignment expansion: an assignment head ``x := a..b`` stands for the
  formula ``not not (def(a) & def(b)) & (def(a) & def(b) -> a <= x & x <= b)``;
  its non-directional reading is just the bounding conjunction;
* rule unfolding: a rule with assignment heads is equivalent to one
  implication per subset of its head, and those implications distribute
  further into rules whose heads are disjunctions of atoms and whose bodies
  are conjunctions of literals;
* elimination of conditional terms: each occurrence is replaced by a fresh
  variable pinned down by five defining implications.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import TransformError
from .syntax import (
    And,
    Assignment,
    BOT,
    BoolAtom,
    Bot,
    Comparison,
    ConditionalTerm,
    Implies,
    LCRule,
    LinearExpr,
    Not,
    Or,
    Scaled,
    TOP,
    Theory,
    _set,
    _theory,
    _Value,
    check_budget,
    conj,
    defined,
    desugar_aggregates,
    desugar_comparisons,
    disj,
    eq_pair,
    FreshNames,
    is_top,
    le,
    map_exprs,
    terms_hull,
    var_expr,
)

# --------------------------------------------------------------------------
# Assignments

# entries kept per cache; a rule's readings are rebuilt when evicted
ASSIGNMENT_CACHE_SIZE = 1024


@lru_cache(maxsize=ASSIGNMENT_CACHE_SIZE)
def phi(a: Assignment):
    """Non-directional version of an assignment: (lower <= x) & (x <= upper)."""
    x = var_expr(a.target)
    return And(le(a.lower, x), le(x, a.upper))


@lru_cache(maxsize=ASSIGNMENT_CACHE_SIZE)
def def_of(a: Assignment):
    """def(lower) & def(upper), collapsing to one conjunct for x := e."""
    if a.point:
        return defined(a.lower)
    return And(defined(a.lower), defined(a.upper))


@lru_cache(maxsize=ASSIGNMENT_CACHE_SIZE)
def assignment_formula(a: Assignment):
    """The directional reading: not not def(A) & (def(A) -> bounds hold)."""
    d = def_of(a)
    return And(Not(Not(d)), Implies(d, phi(a)))


def rule_formula(r: LCRule):
    """Implication form of a rule; facts collapse to their head."""
    head = disj(assignment_formula(a) for a in r.head)
    body_parts = list(r.pos_body) + [Not(b) for b in r.neg_body]
    if not body_parts:
        return head
    return Implies(conj(body_parts), head)


def theory_formulas(thy: Theory) -> tuple:
    """All statements as formulas, rules through their implication form."""
    return tuple(
        rule_formula(s) if isinstance(s, LCRule) else s for s in thy.statements
    )


# --------------------------------------------------------------------------
# Rule unfolding

UNFOLD_HEAD_LIMIT = 10


def unfold_rule(r: LCRule, distribute: bool = True):
    """Unfold a rule into implications free of assignment heads.

    One implication is produced per subset D of the head: the non-directional
    readings of D disjoined, guarded by the body, by def of every member of D
    and by the negated readings of the rest.  With ``distribute`` the
    implications are further split until heads are disjunctions of atoms and
    bodies conjunctions of literals.
    """
    heads = r.head
    if len(heads) > UNFOLD_HEAD_LIMIT:
        raise TransformError(
            f"refusing to unfold a rule with {len(heads)} head assignments"
        )
    base_body = list(r.pos_body) + [Not(b) for b in r.neg_body]
    psis = []
    for mask in range((1 << len(heads)) - 1, -1, -1):
        chosen = [a for i, a in enumerate(heads) if mask >> i & 1]
        rest = [a for i, a in enumerate(heads) if not mask >> i & 1]
        body_parts = base_body + [def_of(a) for a in chosen] + [Not(phi(a)) for a in rest]
        head = disj(phi(a) for a in chosen)
        psis.append(Implies(conj(body_parts), head) if body_parts else head)
    if not distribute:
        return psis
    out = []
    for psi in psis:
        out.extend(distribute_implication(psi))
    return out


def unfold_theory(thy: Theory, distribute: bool) -> Theory:
    """The theory with every rule unfolded by ``unfold_rule`` and every other
    statement kept, in statement order."""
    statements = []
    for stmt in thy.statements:
        if isinstance(stmt, LCRule):
            statements.extend(unfold_rule(stmt, distribute=distribute))
        else:
            statements.append(stmt)
    return _theory(thy.spec, statements)


def clauses(psi) -> list:
    """The rules one implication distributes into, as (head atoms, body
    literals) pairs: the head's atoms are read disjunctively, the body's
    literals conjunctively.  A constraint has no head atoms."""
    if isinstance(psi, Implies):
        body, head = psi.lhs, psi.rhs
    else:
        body, head = TOP, psi
    heads = _head_cnf(head)
    bodies = _body_dnf(body)
    return [(atoms, lits) for atoms in heads for lits in bodies]


def distribute_implication(psi):
    """Split one implication into rules: atom-disjunction heads, literal bodies."""
    return [
        Implies(conj(lits), disj(atoms)) if lits else disj(atoms)
        for atoms, lits in clauses(psi)
    ]


def _is_atom(phi):
    return isinstance(phi, (Comparison, BoolAtom))


def _head_cnf(phi):
    if isinstance(phi, Bot):
        return [[]]
    if _is_atom(phi):
        return [[phi]]
    if isinstance(phi, And):
        return _head_cnf(phi.lhs) + _head_cnf(phi.rhs)
    if isinstance(phi, Or):
        return [a + b for a in _head_cnf(phi.lhs) for b in _head_cnf(phi.rhs)]
    raise TransformError(f"cannot distribute head {phi!r}")


def _body_dnf(phi, wrap=lambda atom: atom):
    """Disjunctive normal form of a body, each atom ``a`` as ``wrap(a)``."""
    if is_top(phi):
        return [[]]
    if isinstance(phi, Bot):
        return []
    if _is_atom(phi):
        return [[wrap(phi)]]
    if isinstance(phi, And):
        return [a + b for a in _body_dnf(phi.lhs, wrap) for b in _body_dnf(phi.rhs, wrap)]
    if isinstance(phi, Or):
        return _body_dnf(phi.lhs, wrap) + _body_dnf(phi.rhs, wrap)
    if isinstance(phi, Implies) and phi.rhs == BOT:
        return _negated_dnf(phi.lhs)
    raise TransformError(f"cannot distribute body part {phi!r}")


def _doubly_negated(atom):
    return Not(Not(atom))


def _negated_dnf(phi):
    """Disjunctive normal form of ``not phi``, pushing negation inward.

    Uses the equivalences valid in here-and-there: both De Morgan laws,
    distribution of double negation over & and |, collapse of triple
    negation, and not (a -> b) == not not a & not b.  The form of
    ``not not a`` is the body form of ``a`` with each atom doubly negated.
    """
    if is_top(phi):
        return []
    if isinstance(phi, Bot):
        return [[]]
    if _is_atom(phi):
        return [[Not(phi)]]
    if isinstance(phi, And):
        return _negated_dnf(phi.lhs) + _negated_dnf(phi.rhs)
    if isinstance(phi, Or):
        return [a + b for a in _negated_dnf(phi.lhs) for b in _negated_dnf(phi.rhs)]
    if isinstance(phi, Implies):
        if phi.rhs == BOT:
            return _body_dnf(phi.lhs, _doubly_negated)
        return [
            a + b
            for a in _body_dnf(phi.lhs, _doubly_negated)
            for b in _negated_dnf(phi.rhs)
        ]
    raise TransformError(f"cannot negate body part {phi!r}")


# --------------------------------------------------------------------------
# Elimination of conditional terms


def delta(tau: ConditionalTerm, x_name: str) -> tuple:
    """The five implications pinning a fresh variable to a conditional term.

    In order: the two value implications (condition and definedness of the
    branch force the variable to equal it), the two reverse implications
    (definedness of the variable forces the equality), and the totality
    guard (a defined variable needs the condition decided).  Equalities are
    emitted as <= pairs.
    """
    x = var_expr(x_name)
    s = LinearExpr((tau.then_term,))
    s_else = LinearExpr((tau.else_term,))
    cond = desugar_comparisons(tau.condition)
    eq_then = eq_pair(x, s)
    eq_else = eq_pair(x, s_else)
    dx = defined(x)
    return (
        Implies(And(cond, defined(s)), eq_then),
        Implies(And(Not(cond), defined(s_else)), eq_else),
        Implies(And(cond, dx), eq_then),
        Implies(And(Not(cond), dx), eq_else),
        Implies(dx, Or(cond, Not(cond))),
    )


class DeltaResult(_Value):
    """Outcome of eliminating conditional terms from a theory.

    ``rewritten`` holds the input with every conditional occurrence replaced
    by its fresh variable (declared in the extended spec); ``side`` the
    defining implications, one batch of five per occurrence; ``mapping`` the
    occurrences in replacement order.
    """

    __slots__ = ("rewritten", "side", "mapping")

    def __init__(self, rewritten: Theory, side: tuple, mapping: tuple):
        _set(self, "rewritten", rewritten)
        _set(self, "side", side)
        _set(self, "mapping", mapping)

    def theory(self) -> Theory:
        """Rewritten statements plus side formulas, ready to solve."""
        return _theory(self.rewritten.spec, self.rewritten.statements + self.side)


def eliminate_conditionals(theory: Theory, budget=None) -> DeltaResult:
    """Replace every conditional-term occurrence by a fresh variable.

    Aggregates are desugared first; occurrences are then replaced left to
    right in the surface statements (so an equality atom counts as one
    occurrence, not two), each with its own variable ``__c<k>`` whose
    interval hulls the two branch ranges.  Structural duplicates still get
    distinct variables.  Both the rewritten theory and the side formulas
    come out fully desugared and condition-free.
    """
    thy = desugar_aggregates(theory)
    fresh = FreshNames(thy.spec.variables())
    spec = thy.spec
    mapping = []
    side = []

    def replace(e: LinearExpr) -> LinearExpr:
        nonlocal spec
        items = []
        for item in e.items:
            if type(item) is ConditionalTerm:
                name = fresh.fresh("c")
                hull = terms_hull((item.then_term, item.else_term), spec)
                spec = spec.with_int_var(name, *hull)
                mapping.append((item, name))
                side.extend(delta(item, name))
                items.append(Scaled(1, name))
            else:
                items.append(item)
        return LinearExpr(tuple(items))

    statements = [desugar_comparisons(map_exprs(s, replace)) for s in thy.statements]
    rewritten = _theory(spec, statements)
    check_budget(spec, budget)
    return DeltaResult(rewritten, tuple(side), tuple(mapping))
