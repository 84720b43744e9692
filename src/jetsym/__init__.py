"""jetsym: jet-space prolongation calculus and symmetry verification.

The library implements expressions with exact rational arithmetic and a
canonical form (``expr``, ``parsing``), jet-space geometry with total
derivatives and vector fields (``jets``), the standard and deformed
prolongations of point vector fields (``prolong``), symmetry verdicts
for differential equations in solved form (``symmetry``), the structure
theory of the deforming form (``gauge``), and a batch CLI (``cli``).
"""

from .backend import BACKEND
from .errors import JetsymError
from .expr import (
    DEFAULT_SEED,
    Check,
    Expr,
    Verdict,
    as_expr,
    constant_value,
    eval_expr,
    exp,
    expr_prod,
    expr_sum,
    free_variables,
    is_polynomial,
    pdiff,
    rational,
    substitute,
    to_string,
    variable,
    zero_verdict,
)
from .gauge import (
    GaugeFunction,
    darboux_derivative,
    maurer_cartan_check,
    scalar_potential,
    verify_gauge_equivalence_scalar,
)
from .jets import (
    JetSpec,
    JetVectorField,
    MuForm,
    total_derivative,
)
from .parsing import parse
from .problemfile import ProblemFile, load_problem
from .prolong import (
    PointVectorField,
    characteristic,
    difference_terms,
    lambda_form,
    lift,
)
from .symmetry import (
    DifferentialEquation,
    check_symmetry,
    coincide_on_invariant_set,
    invariant_set_relations,
    restrict_to_solution_manifold,
)

__all__ = [
    "BACKEND",
    "Check",
    "DEFAULT_SEED",
    "DifferentialEquation",
    "Expr",
    "GaugeFunction",
    "JetSpec",
    "JetVectorField",
    "JetsymError",
    "MuForm",
    "PointVectorField",
    "ProblemFile",
    "Verdict",
    "as_expr",
    "characteristic",
    "check_symmetry",
    "coincide_on_invariant_set",
    "constant_value",
    "darboux_derivative",
    "difference_terms",
    "eval_expr",
    "exp",
    "expr_prod",
    "expr_sum",
    "free_variables",
    "invariant_set_relations",
    "is_polynomial",
    "lambda_form",
    "lift",
    "load_problem",
    "maurer_cartan_check",
    "parse",
    "pdiff",
    "rational",
    "restrict_to_solution_manifold",
    "scalar_potential",
    "substitute",
    "to_string",
    "total_derivative",
    "variable",
    "verify_gauge_equivalence_scalar",
    "zero_verdict",
]
