"""Exact toolkit for reductions of polynomial ideals: Groebner engine,
length and multiplicity functions of power quotients, colon-chain
stabilization, and filtration tables, with a session-file CLI.

Everything is computed over exact fields and reported exactly; all
local statements refer to the localization at the ideal generated by
the variables.
"""

from .asymptotics import EventualPolynomial, fit_eventual_polynomial
from .errors import (
    ContainmentError,
    ExponentOverflowError,
    LengthCertificationError,
    NotStabilizedError,
    ParseError,
    PreconditionError,
    ReeslabError,
    ResourceBudgetError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .filtrations import (
    ExplicitFiltration,
    MultiReductionReport,
    NormalizedLimit,
    PowerFiltrationFamily,
    explicit_filtration_table,
    multi_reduction_test,
    normalized_limit_estimate,
    product_power_length,
    product_power_table,
)
from .groebner import (
    BUDGET,
    GroebnerBasis,
    Ideal,
    ResourceBudget,
    buchberger,
    colon,
    divide,
    eliminate,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    radical_membership,
    unit_ideal,
    zero_ideal,
)
from .lengths import (
    FunctionTable,
    colength,
    maximal_ideal,
    subquotient_length,
)
from .multiplicity import (
    MultiplicityReport,
    module_multiplicity,
    multiplicity_function,
)
from .reduction import (
    CriterionReport,
    DSequenceReport,
    RadicalColonReport,
    ReductionVerdict,
    analytic_spread,
    d_sequence_check,
    depth_positive,
    grade_cm,
    local_dimension,
    radical_colon_stability,
    radical_contains_variables,
    reduction_test,
    rees_criterion,
    rees_function,
)
from .ring import (
    DEFAULT_ORDER,
    NEG_INF,
    BlockElimination,
    GrevLex,
    Lex,
    PolyRing,
    Polynomial,
    PrimeField,
    RationalField,
    leading_term,
    poly_str,
    total_degree,
)
from .runner import REPORT_SCHEMA, run_session, run_task
from .session import Session, Task, parse_session

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
