"""Exception taxonomy shared by every lgw module.

Two failure families matter to callers (and to the CLI exit codes):
``LgwDomainError`` means the *input* was outside an operation's domain,
``LgwNumericalError`` means a numerical procedure failed on a valid input.
"""


class LgwError(Exception):
    """Base class for all lgw errors."""


class LgwDomainError(LgwError):
    """Input outside the documented domain of an operation."""


class LgwNumericalError(LgwError):
    """A numerical procedure failed; usually indicates a bug upstream."""


# -- Lambert W layer ---------------------------------------------------------

class NonFinite(LgwDomainError):
    """NaN or Inf reached a public operation boundary."""


class BranchSingularity(LgwDomainError):
    """W_k(0) requested for k != 0, where the branch diverges."""


class BranchPointSingularity(LgwDomainError):
    """Evaluation at (or too close to) the branch point z = -1/e."""


class DomainError(LgwDomainError):
    """Real argument outside the real domain of the requested branch."""


class TermLimitExceeded(LgwDomainError):
    """Series order or expansion length outside the supported range."""


class NoConvergence(LgwNumericalError):
    """Halley iteration failed to converge; signals a seed-selection bug."""


# -- exponential-linear solver layer -----------------------------------------

class DegenerateCoefficients(LgwDomainError):
    """z = A + B*exp(C*z) with B*C = 0 has no Lambert W closed form."""


class ZeroLogUnit(LgwDomainError):
    """log(epsilon) = 0 under the chosen log branch (epsilon = 1)."""


# -- quadratic field layer ----------------------------------------------------

class NotSquarefree(LgwDomainError):
    """Radicand has a square factor."""


class DegenerateD(LgwDomainError):
    """Radicand 0 or 1 does not define a quadratic field."""


class OddDegree(LgwDomainError):
    """Signature bookkeeping requires an even field degree >= 2."""


class NotImaginary(LgwDomainError):
    """Operation defined only for negative (imaginary) discriminants."""


class NotFundamental(LgwDomainError):
    """Discriminant is not a fundamental discriminant."""


class SquareDiscriminant(LgwDomainError):
    """Perfect-square discriminant (split algebra, not a field)."""


class PrecisionLoss(LgwNumericalError):
    """Analytic class-number sum did not round cleanly to an integer."""


# -- CLI ----------------------------------------------------------------------

class UsageError(LgwError):
    """Command line could not be parsed; maps to exit code 64."""
