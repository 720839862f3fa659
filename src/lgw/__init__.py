"""lgw: multi-branch Lambert W, exponential-linear fixed points, and a
quadratic-field class-number survey.

The library has four layers. `wfunc` evaluates every branch W_k(z) of the
Lambert W function. `solver` inverts z = A + B*exp(C*z) in closed form and
builds the fixed-point roots attached to field units. `fields` does exact
quadratic-field arithmetic (fundamental units, class numbers two ways).
`survey` scans discriminant ranges and tabulates the class-number-one
correspondence with full residual audits. The `lgw` command exposes all of
it; see README.md.

Every public name of the layers is importable from `lgw` itself, but
`import lgw` loads only `lgw.errors`: a layer is imported the first time
one of its names, or the layer itself (`lgw.survey`), is looked up here
(PEP 562). So `from lgw import lambert_w` never loads `fields` or `survey`,
and `from lgw import *` loads all four.
"""

import importlib

# Every layer raises these, so deferring the module would save nothing.
from . import errors

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "errors": (
        "BranchPointSingularity",
        "BranchSingularity",
        "DegenerateCoefficients",
        "DegenerateD",
        "DomainError",
        "LgwDomainError",
        "LgwError",
        "LgwNumericalError",
        "NoConvergence",
        "NonFinite",
        "NotFundamental",
        "NotImaginary",
        "NotSquarefree",
        "OddDegree",
        "PrecisionLoss",
        "SquareDiscriminant",
        "TermLimitExceeded",
        "UsageError",
        "ZeroLogUnit",
    ),
    "fields": (
        "FundamentalUnit",
        "QuadraticFieldDescriptor",
        "RootsOfUnity",
        "class_number",
        "class_number_analytic",
        "describe_field",
        "discriminant_of_radicand",
        "fundamental_discriminants",
        "fundamental_unit",
        "is_fundamental_discriminant",
        "is_squarefree",
        "kronecker_symbol",
        "radicand_of_discriminant",
        "roots_of_unity",
        "unit_rank",
    ),
    "solver": (
        "Case",
        "ExpLinearEquation",
        "FixedPointReport",
        "Pairing",
        "UnitInput",
        "alpha_complex_case",
        "alpha_real_case",
        "solve_exp_linear",
        "unit_log",
        "verify_fixed_point",
    ),
    "survey": (
        "SurveySummary",
        "correspondence_table",
        "iter_summary_json",
        "records_to_csv",
        "scan_imaginary",
        "scan_real",
        "summary_to_json",
    ),
    "wfunc": (
        "BRANCH_POINT_Z",
        "OMEGA",
        "WEvaluation",
        "lambert_w",
        "lambert_w_real",
        "w_derivative",
        "w_series",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
