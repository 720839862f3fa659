"""lgw: multi-branch Lambert W, exponential-linear fixed points, and a
quadratic-field class-number survey.

The library has four layers. `wfunc` evaluates every branch W_k(z) of the
Lambert W function. `solver` inverts z = A + B*exp(C*z) in closed form and
builds the fixed-point roots attached to field units. `fields` does exact
quadratic-field arithmetic (fundamental units, class numbers two ways).
`survey` scans discriminant ranges and tabulates the class-number-one
correspondence with full residual audits. The `lgw` command exposes all of
it; see README.md.
"""

from .errors import (
    BranchPointSingularity,
    BranchSingularity,
    DegenerateCoefficients,
    DegenerateD,
    DomainError,
    LgwDomainError,
    LgwError,
    LgwNumericalError,
    NoConvergence,
    NonFinite,
    NotFundamental,
    NotImaginary,
    NotSquarefree,
    OddDegree,
    PrecisionLoss,
    SquareDiscriminant,
    TermLimitExceeded,
    UsageError,
    ZeroLogUnit,
)
from .fields import (
    BinaryQuadraticForm,
    FundamentalUnit,
    QuadraticFieldDescriptor,
    RootsOfUnity,
    class_number,
    class_number_analytic,
    describe_field,
    discriminant_of_radicand,
    fundamental_discriminants,
    fundamental_unit,
    is_fundamental_discriminant,
    is_squarefree,
    kronecker_symbol,
    radicand_of_discriminant,
    reduce_form,
    roots_of_unity,
    unit_rank,
)
from .solver import (
    Case,
    ExpLinearEquation,
    FixedPointReport,
    Pairing,
    UnitInput,
    alpha_complex_case,
    alpha_real_case,
    solve_exp_linear,
    unit_log,
    verify_fixed_point,
)
from .survey import (
    SurveyRow,
    SurveySummary,
    correspondence_table,
    iter_summary_json,
    records_to_csv,
    row_records,
    scan_imaginary,
    scan_real,
    summary_to_json,
)
from .wfunc import (
    BRANCH_POINT_Z,
    OMEGA,
    WEvaluation,
    lambert_w,
    lambert_w_real,
    w_derivative,
    w_series,
)

__version__ = "0.1.0"
