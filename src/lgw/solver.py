"""Closed-form roots of z = A + B*exp(C*z) and the unit fixed-point layer.

The scalar equation is solved by z = A - W_k(-B*C*exp(A*C))/C, one root per
branch k. On top of that sit the two fixed-point families tied to a unit
epsilon of a quadratic field:

  complex case:  i*alpha = exp(2*pi*i*alpha) * log(eps)
  real case:     alpha   = cos(2*pi*alpha)   * log(eps)

The real-case equation is attacked by splitting cos into its two exponential
halves, solving each half on a Lambert branch, and summing the split roots.
Every result is returned with measured residuals of the equations it claims
to solve; the summed-equation residual is reported but never asserted,
because nothing forces the sum of the split roots to satisfy it.

Under conjugate-branch pairing the second split root needs no second Lambert
evaluation: W_-j(2*pi*i*L) is the conjugate of W_j(-2*pi*i*L), bit for bit
(see wfunc), since +-2*pi*i*L with L > 0 never lies on a cut. Nor does its
split residual need a second exp: it equals the first, bit for bit. The
sum alpha is then real, and its two residuals take one real cosine.

The records are immutable named tuples. ExpLinearEquation checks its
coefficients when built, and every UnitInput, whichever constructor builds
it, passes one rule (_unit). Each defining equation has one residual, which
the root finders and verify_fixed_point share.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import NamedTuple

from .errors import DegenerateCoefficients, DomainError, NonFinite, ZeroLogUnit
from .wfunc import _TINY_Z, _integer, _lambert_w_log, _require_finite, lambert_w

__all__ = [
    "Case",
    "Pairing",
    "ExpLinearEquation",
    "UnitInput",
    "FixedPointReport",
    "solve_exp_linear",
    "alpha_complex_case",
    "alpha_real_case",
    "verify_fixed_point",
    "unit_log",
]

_TWO_PI = 2.0 * math.pi
_TWO_PI_I = 2j * math.pi

# The per-query paths build their reports with every field given, in
# declaration order, through tuple.__new__: FixedPointReport.__new__ would
# only add a Python frame and keyword matching. Enum members are read
# through _value_ for the same reason (.value is a Python-level property),
# and cmath.exp is bound once.
_tuple_new = tuple.__new__
_cexp = cmath.exp


class Case(str, Enum):
    COMPLEX = "complex"
    REAL = "real"


class Pairing(str, Enum):
    """Branch bookkeeping for the two split roots of the real case.

    CONJUGATE pairs branch j with -j, which makes the second split root the
    conjugate of the first and the sum real. SAME applies branch j to both
    halves (the literal formula), generally yielding a non-real sum.
    """

    SAME_BRANCH = "same-branch"
    CONJUGATE_BRANCH = "conjugate-branch"


# Each Case.REAL is a class attribute lookup through the enum metaclass;
# the per-query paths compare against these instead.
_REAL, _COMPLEX = Case.REAL, Case.COMPLEX
_SAME_BRANCH, _CONJUGATE_BRANCH = Pairing.SAME_BRANCH, Pairing.CONJUGATE_BRANCH


def _member(kind: type[Enum], value, name: str):
    """The member of the enum kind (Case or Pairing) that value is or names; else DomainError."""
    try:
        return kind(value)
    except ValueError:
        raise DomainError(f"{name} must be one of {', '.join(m._value_ for m in kind)}, got {value!r}") from None


def _coefficients(a: complex, b: complex, c: complex) -> tuple[complex, complex, complex]:
    """A, B, C of z = A + B*exp(C*z) as complex numbers, checked finite with B*C != 0."""
    a, b, c = complex(a), complex(b), complex(c)
    if not cmath.isfinite(a + b + c):
        # A non-finite part, or finite parts whose sum overflows: check
        # each coefficient, so the first non-finite one is named.
        a, b, c = _require_finite(a, "A"), _require_finite(b, "B"), _require_finite(c, "C")
    if b * c == 0:
        raise DegenerateCoefficients("B*C must be nonzero")
    return a, b, c


class _ExpLinearFields(NamedTuple):
    a: complex
    b: complex
    c: complex


class ExpLinearEquation(_ExpLinearFields):
    """Coefficients of z = A + B*exp(C*z); requires B*C != 0."""

    __slots__ = ()

    def __new__(cls, a: complex, b: complex, c: complex) -> "ExpLinearEquation":
        return tuple.__new__(cls, _coefficients(a, b, c))

    @classmethod
    def _make(cls, iterable) -> "ExpLinearEquation":  # _replace builds through it too
        return cls(*iterable)

    def residual(self, z: complex) -> float:
        """|z - A - B*exp(C*z)|, the defining-equation residual."""
        try:
            return abs(z - self.a - self.b * _cexp(self.c * z))
        except (OverflowError, ValueError):
            what = f"residual at z = {z!r}"
        try:  # B*exp(C*z) past the float range, or the residual itself
            return abs(z - self.a - _exp_of_sum_with_log(self.c * z, self.b, what))
        except OverflowError:
            raise NonFinite(f"{what} overflows") from None


class _UnitFields(NamedTuple):
    epsilon: complex | None
    log_branch: int
    case: Case
    log_value: complex | None


class UnitInput(_UnitFields):
    """A unit epsilon together with the log convention used on it.

    log(eps) means Log(eps) + 2*pi*i*log_branch with the principal Log
    (arg in (-pi, pi]). For units a float64 cannot hold (real quadratic
    fundamental units grow exponentially, and a unit within 1e-16 of 1
    rounds to 1), epsilon may be None and log_value carries the log
    directly.
    """

    __slots__ = ()

    def __new__(
        cls,
        epsilon: complex | None,
        log_branch: int = 0,
        case: Case = Case.COMPLEX,
        log_value: complex | None = None,
    ) -> "UnitInput":
        return _unit(cls, epsilon, log_branch, case, log_value)

    @classmethod
    def _make(cls, iterable) -> "UnitInput":  # _replace builds through it too
        return cls(*iterable)

    @classmethod
    def complex_unit(cls, epsilon: complex, log_branch: int = 0) -> "UnitInput":
        return _unit(cls, epsilon, log_branch, _COMPLEX, None)

    @classmethod
    def real_unit(cls, epsilon: float) -> "UnitInput":
        return _unit(cls, epsilon, 0, _REAL, None)

    @classmethod
    def from_log(cls, log_value: complex, case: Case = Case.COMPLEX) -> "UnitInput":
        """A synthetic unit known by its log alone: epsilon is None, and no exp is formed."""
        return _unit(cls, None, 0, case, log_value)


def _unit(cls, epsilon, log_branch, case, log_value) -> UnitInput:
    """The one rule of a UnitInput, which every constructor builds through.

    The log branch is integral; epsilon or log_value is given, and each one
    given is finite; the case is a Case or its value; a complex-case epsilon
    is not 0; a real-case epsilon is real and above 1, its log_value real and
    above 0 (1 and 0 raise ZeroLogUnit), and its log branch 0. Positional,
    built through tuple.__new__, and with no call for a Case member, so the
    per-query constructors stay lean.
    """
    if type(log_branch) is not int:
        log_branch = _integer(log_branch, "log_branch")
    if epsilon is not None:
        epsilon = _require_finite(epsilon, "epsilon")
    elif log_value is None:
        raise DomainError("need epsilon or log_value")
    if log_value is not None:
        log_value = _require_finite(log_value, "log_value")
    if case is not _REAL and case is not _COMPLEX:
        case = _member(Case, case, "case")
    if case is _REAL:
        if log_branch:
            raise DomainError(f"a real-case unit has log branch 0, got {log_branch}")
        for value, one, name in ((epsilon, 1.0, "epsilon"), (log_value, 0.0, "log_value")):
            if value is not None and not (value.imag == 0.0 and value.real > one):
                if value == one:
                    raise ZeroLogUnit(f"real case: {name} = {one:g}, so log(epsilon) = 0")
                raise DomainError(f"real case needs a real {name} above {one:g}, got {value!r}")
    elif epsilon == 0:
        raise DomainError("complex case needs |epsilon| > 0")
    return _tuple_new(cls, (epsilon, log_branch, case, log_value))


def unit_log(u: UnitInput) -> complex:
    """log_value, or else Log(epsilon), plus 2*pi*i*log_branch; raises
    ZeroLogUnit when it is 0."""
    epsilon, log_branch, _, log_value = u
    value = (cmath.log(epsilon) if log_value is None else log_value) + _TWO_PI_I * log_branch
    if value == 0:
        raise ZeroLogUnit("log(epsilon) = 0 under the chosen branch (epsilon = 1?)")
    return value


class _FixedPointFields(NamedTuple):
    alpha: complex
    branch: int
    beta: float
    residual_defining: float
    residual_split_1: float | None
    residual_split_2: float | None
    residual_sum_equation: float | None
    conventions: dict


class FixedPointReport(_FixedPointFields):
    """A root alpha with the residuals of every equation it touches.

    residual_defining measures the case's defining equation. The split and
    summed-equation residuals apply to the real case only and are None for
    the complex case. residual_sum_equation is informational: it is recorded
    for audit and never asserted anywhere in this package. conventions
    defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(
        cls,
        alpha: complex,
        branch: int,
        beta: float = 0.0,
        residual_defining: float = 0.0,
        residual_split_1: float | None = None,
        residual_split_2: float | None = None,
        residual_sum_equation: float | None = None,
        conventions: dict | None = None,
    ) -> "FixedPointReport":
        if conventions is None:
            conventions = {}
        return tuple.__new__(cls, (
            alpha, branch, beta, residual_defining, residual_split_1, residual_split_2,
            residual_sum_equation, conventions,
        ))


def solve_exp_linear(eq: ExpLinearEquation, k: int = 0) -> complex:
    """Root of z = A + B*exp(C*z) on Lambert branch k.

    z = A - W_k(-B*C*exp(A*C))/C; the returned root satisfies the equation
    with residual <= 1e-10*(1+|z|). A k that is not integral raises
    DomainError.
    """
    if type(k) is not int:
        k = _integer(k, "branch index k")
    return _exp_linear_root(eq.a, eq.b, eq.c, k)


def _exp_of_sum_with_log(x: complex, y: complex, what: str) -> complex:
    """y*exp(x) formed as exp(x + log(y)), for an exp(x) beyond float range
    times a small y; NonFinite naming `what` when that overflows too (or y is 0)."""
    try:
        return _cexp(x + cmath.log(y))
    except (OverflowError, ValueError):
        raise NonFinite(f"{what} overflows") from None


def _complex_residual(alpha: complex, log_eps: complex) -> float:
    """|i*alpha - exp(2*pi*i*alpha)*log(eps)|, the complex case's defining residual."""
    try:
        return abs(1j * alpha - _cexp(_TWO_PI_I * alpha) * log_eps)
    except (OverflowError, ValueError):  # exp(2*pi*i*alpha) beyond float range: a tiny log(eps), or a huge Im alpha
        return abs(1j * alpha - _exp_of_sum_with_log(_TWO_PI_I * alpha, log_eps, f"residual at alpha = {alpha!r}"))


def _exp_linear_root(a: complex, b: complex, c: complex, k: int) -> complex:
    """z = A - W_k(-B*C*exp(A*C))/C for finite complex A, B, C with B*C != 0."""
    try:
        arg = -b * c * _cexp(a * c)
    except (OverflowError, ValueError):  # exp of a huge or an infinite A*C
        arg = _exp_of_sum_with_log(a * c, -b * c, f"Lambert argument -B*C*exp(A*C) at A*C = {a * c!r}")
    # |arg| is taken only where Re arg is tiny, so it cannot pass the float range
    if k and -_TINY_Z < arg.real < _TINY_Z and abs(arg) < _TINY_Z:
        # A subnormal argument keeps only a few digits: pass its log instead.
        t = cmath.log(-b) + cmath.log(c) + a * c
        if not cmath.isfinite(t):  # A*C itself overflowed
            raise NonFinite(f"log of the Lambert argument overflows: A*C = {a * c!r}")
        if not -math.pi < t.imag <= math.pi:
            # Into (-pi, pi], as lambert_w reads its input: a negative real
            # argument, of either zero sign, lies on the cut from above.
            t -= _TWO_PI_I * math.ceil(t.imag / _TWO_PI - 0.5)
        if t.imag == math.pi and ((-b / abs(b)) * (c / abs(c)) * _cexp(1j * (a * c).imag)).imag < 0:
            # An angle within rounding of the cut: the direction of the
            # argument tells a point strictly below it (B = 1 + 1e-20j
            # against 1 + 0j), whose angle rounds to -pi all the same.
            t = complex(t.real, -math.pi)
        return a - _lambert_w_log(k, t)[0] / c
    return a - lambert_w(k, arg).value / c


def alpha_complex_case(u: UnitInput, j: int = 0, beta: float = 0.0) -> FixedPointReport:
    """Root of i*alpha = exp(2*pi*i*alpha)*log(eps) on branch j.

    Computed through the exponential-linear form with A = beta,
    B = log(eps)*exp(-2*pi*beta), C = 2*pi; the auxiliary constant beta
    cancels in the Lambert argument, so alpha is independent of it.
    """
    if u.case is not _COMPLEX:
        raise DomainError("alpha_complex_case needs a complex-case unit")
    if type(j) is not int:
        j = _integer(j, "branch index j")
    beta = float(beta)
    log_eps = unit_log(u)
    try:
        scale = math.exp(-_TWO_PI * beta)
    except OverflowError:
        raise NonFinite(
            f"Lambert argument -B*C*exp(A*C) overflows: B = log(eps)*exp(-2*pi*beta), beta = {beta!r}"
        ) from None
    z = _exp_linear_root(*_coefficients(beta, log_eps * scale, _TWO_PI), j)
    alpha = (z - beta) / 1j
    return _tuple_new(FixedPointReport, (
        alpha, j, beta, _complex_residual(alpha, log_eps), None, None, None,
        {"log_branch": u.log_branch, "case": u.case._value_},
    ))


def alpha_real_case(
    u: UnitInput, j: int = 0, pairing: Pairing = Pairing.CONJUGATE_BRANCH
) -> FixedPointReport:
    """Split roots of alpha = cos(2*pi*alpha)*log(eps) for a real unit > 1.

    The two split equations

        alpha = log(eps)*exp(+2*pi*i*alpha)
        alpha = log(eps)*exp(-2*pi*i*alpha)

    are solved on branches j and m (m = j for SAME_BRANCH, m = -j for
    CONJUGATE_BRANCH) and summed. Each split residual is asserted by the
    caller's contract (<= 1e-10); the summed-equation residual
    |2a - log(eps)*(e^{2pi i a} + e^{-2pi i a})| is only recorded.
    """
    if u.case is not _REAL:
        raise DomainError("alpha_real_case needs a real-case unit")
    if type(j) is not int:
        j = _integer(j, "branch index j")
    if pairing is not _CONJUGATE_BRANCH and pairing is not _SAME_BRANCH:
        pairing = _member(Pairing, pairing, "pairing")
    alpha, r_def, r1, r2, r_sum = _alpha_real(unit_log(u).real, j, pairing is _SAME_BRANCH)
    return _tuple_new(FixedPointReport, (
        alpha, j, 0.0, r_def, r1, r2, r_sum,
        {"log_branch": 0, "pairing": pairing._value_, "case": u.case._value_},
    ))


def _alpha_real(L: float, j: int, same_branch: bool) -> tuple[complex, float, float, float, float]:
    """alpha_real_case's alpha and residuals (defining, split 1, split 2, sum) at log(eps) = L > 0."""
    # alpha1 = -W_j(-2*pi*i*L)/(2*pi*i); alpha2 = +W_m(+2*pi*i*L)/(2*pi*i)
    if j and _TWO_PI * L < _TINY_Z:
        # +-2*pi*i*L is subnormal: pass its log, as _exp_linear_root does
        t = math.log(_TWO_PI) + math.log(L)
        w1 = _lambert_w_log(j, complex(t, -0.5 * math.pi))[0]
        w2 = _lambert_w_log(j, complex(t, 0.5 * math.pi))[0] if same_branch else w1.conjugate()
    else:
        w1 = lambert_w(j, -_TWO_PI_I * L).value
        # m = -j: W_-j(conj z) = conj W_j(z) off the cut
        w2 = lambert_w(j, _TWO_PI_I * L).value if same_branch else w1.conjugate()
    alpha1 = -w1 / _TWO_PI_I
    alpha2 = w2 / _TWO_PI_I
    alpha = alpha1 + alpha2

    try:
        r1 = abs(alpha1 - L * _cexp(_TWO_PI_I * alpha1))
        if same_branch:
            r2 = abs(alpha2 - L * _cexp(-_TWO_PI_I * alpha2))
            r_sum = abs(2.0 * alpha - L * _cexp(_TWO_PI_I * alpha) - L * _cexp(-_TWO_PI_I * alpha))
            r_def = abs(alpha - cmath.cos(_TWO_PI * alpha) * L)
        else:
            # m = -j: alpha2 = conj(alpha1) bit for bit (the division by
            # 2*pi*i, the products and exp commute with conjugation), so
            # r2 = r1 and alpha = a + 0j. Then exp(+-2*pi*i*alpha) is
            # cos(2*pi*a) +- i*sin(2*pi*a), whose sine parts cancel in the
            # sum residual, and cos(2*pi*alpha) is cos(2*pi*a): the same bits
            # as the four complex exponentials, from one real cosine.
            a = alpha.real
            c = math.cos(_TWO_PI * a)
            r2, r_sum, r_def = r1, abs(2.0 * a - L * c - L * c), abs(a - c * L)
    except OverflowError:  # a tiny L puts exp(+-2*pi*i*alpha) beyond float range
        # each L*exp(x) as exp(x + log L); cos(2*pi*alpha)*L as the mean of two
        x, what = _TWO_PI_I * alpha, f"residual at alpha = {alpha!r}"
        p1, p2, p, q = (_exp_of_sum_with_log(y, L, what) for y in (_TWO_PI_I * alpha1, -_TWO_PI_I * alpha2, x, -x))
        r1, r2 = abs(alpha1 - p1), abs(alpha2 - p2)
        r_sum, r_def = abs(2.0 * alpha - p - q), abs(alpha - (p + q) / 2)
    return alpha, r_def, r1, r2, r_sum


def verify_fixed_point(alpha: complex, u: UnitInput) -> float:
    """Residual of the case-appropriate defining equation at alpha.

    Complex case: |i*alpha - exp(2*pi*i*alpha)*log(eps)|.
    Real case:    |alpha - cos(2*pi*alpha)*log(eps)|.
    """
    alpha = _require_finite(alpha, "alpha")
    log_eps = unit_log(u)
    try:
        if u.case is _COMPLEX:
            return _complex_residual(alpha, log_eps)
        return abs(alpha - cmath.cos(_TWO_PI * alpha) * log_eps.real)
    except (OverflowError, ValueError):  # cos of a huge Im alpha, or a residual past the float range
        raise NonFinite(f"residual overflows at alpha = {alpha!r}") from None
