"""Solver laboratory for here-and-there logic with conditional linear constraints.

Parse theories and rule programs over finite integer and Boolean domains,
enumerate HT and stable (equilibrium) models by brute force, apply the
standard transformations (aggregate desugaring, assignment unfolding,
elimination of conditional terms), and cross-check them with equivalence
oracles and property suites.
"""

from .checker import (
    EquivReport,
    SuiteReport,
    Witness,
    context_family,
    equivalent,
    run_property_suite,
    stable_equivalent,
    strong_equiv_sampled,
    strong_equivalent,
)
from .errors import (
    BudgetError,
    DomainError,
    FreshNameError,
    HtcError,
    ParseError,
    TransformError,
)
from .parser import parse_theory, pretty_print
from .semantics import (
    Interpretation,
    Valuation,
    enumerate_valuations,
    ht_models,
    is_supported,
    satisfies,
    stable_models,
)
from .syntax import (
    Aggregate,
    AggregateElement,
    And,
    Assignment,
    BOT,
    BoolAtom,
    Bot,
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
    TOP,
    TRUE,
    Theory,
    U,
    children,
    desugar_comparisons,
    desugar_count,
    desugar_minmax,
    desugar_sum,
    desugar_theory,
    free_vars,
    make_theory,
    map_exprs,
    nodes,
)
from .transforms import (
    DeltaResult,
    assignment_formula,
    def_of,
    delta,
    eliminate_conditionals,
    phi,
    rule_formula,
    unfold_rule,
)

__version__ = "0.1.0"
