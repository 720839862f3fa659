"""Multi-branch Lambert W function on the complex plane.

W_k(z) is the k-th branch of the multivalued inverse of w -> w*exp(w).
Branch indexing follows the standard convention (Corless, Gonnet, Hare,
Jeffrey & Knuth, Adv. Comput. Math. 5, 1996): W_0 is the principal branch,
real on [-1/e, inf); Im W_k(z) lives in horizontal strips indexed by k,
and values on the cuts are continuous from above. A zero Im z of either
sign lies on the cut: lambert_w adds 0j to its input, which turns a -0.0
part into +0.0 and changes no other bit, so every seed and cmath.log see
the negative real axis from above, as mpmath does.

Both entry points share one seed table (_initial_guess) and one Halley
loop (_halley); lambert_w runs them in complex arithmetic, lambert_w_real
in floats. The seed regions, first match wins (a branch with |k| >= 2
goes straight to the last):

- |z + 1/e| <= 0.3: the branch-point series in p = sqrt(2(e*z+1)), with
  +p for W_0 and -p for W_-1 (Im z >= 0) and W_+1 (Im z < 0);
- k = 0 in the box -1 < Re z < 1.5, |Im z| < 1, Re z > -2.5|Im z| - 0.2:
  the Pade [3/2] approximant of the Maclaurin series;
- k = 0, |z| <= 2: the three-term L1 - L2 + L2/L1 with L1 = log z,
  L2 = log L1; more terms of the series pull Halley onto W_{+-1} there;
- k = -1 on the real segment [-1/e, 0): L1 - log(-L1) with L1 = log(-z);
- otherwise: the asymptotic series in L2/L1 through its 1/L1^3 terms,
  with L1 = log z + 2*pi*i*k.

Halley stops when its step falls below 1e-15 relative, or before a step
when w e^w - z is exactly 0 (an exact root keeps its w, zero signs too) or
the update's denominator is. It also stops when it stalls at rounding
level, as it does near the branch point: a step below 1e-13 relative that
did not shrink from the one before. At w = -1 exactly, where the update
divides by 2(w + 1) = 0, it moves w by 1e-8 and counts that as a step. If
it stalled or has not converged after 64 steps, either entry point raises
NoConvergence unless the residual |w e^w - z| / (1 + |z|) is already
<= 1e-12; lambert_w also raises it for a larger residual after a step that
did fall below tolerance.

For k != 0 and |z| below the smallest normal float, e^w at the root is
subnormal, so w e^w = z no longer pins w down. There every caller passes
Log z, with Im in (-pi, pi], to _lambert_w_log, which runs Newton on the
logarithm of the equation: w + log(-w) = Log z + 2*pi*i*k - i*pi*sign(k),
with log(-w) free of cuts near the root (Re w < -700). It raises
NoConvergence if the step does not fall below tolerance within 64 steps.
By the rule above, Im Log z = pi means on or above the cut, and -pi strictly
below it.

Off the real axis W_{-k}(conj z) = conj W_k(z), and lambert_w keeps that
symmetry bit for bit: conjugation commutes with complex +, -, *, / and with
cmath's exp, log and sqrt, and the seed regions are mirror images in Im z
there. solver.alpha_real_case relies on it: its conjugate-branch pair
W_j(-2*pi*i*L), W_-j(+2*pi*i*L) costs one evaluation.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from .errors import (
    BranchPointSingularity,
    BranchSingularity,
    DomainError,
    NoConvergence,
    NonFinite,
    TermLimitExceeded,
)

__all__ = [
    "BRANCH_POINT_Z",
    "OMEGA",
    "WEvaluation",
    "lambert_w",
    "lambert_w_real",
    "w_derivative",
    "w_series",
]

# z = -1/e, where branches 0 and -1 meet and dW/dz is singular.
BRANCH_POINT_Z = -1.0 / math.e

# W_0(1), fixed point of exp(-x).
OMEGA = 0.5671432904097838

_TWO_PI = 2.0 * math.pi
_TWO_PI_I = 2j * math.pi
_PI_I = 1j * math.pi
_MAX_ITER = 64
_STEP_TOL = 1e-15
_STALL_TOL = 1e-13
_RESIDUAL_TOL = 1e-12
# |1 + W| within which w_derivative calls dW/dz singular: near the branch
# point 1 + W ~ sqrt(2e(z + 1/e)), so this is |z + 1/e| <= 1e-12 there.
_SINGULAR_W = math.sqrt(2.0 * math.e * 1e-12)

# Below this |z|, the smallest normal float, e^w at W_k(z) for k != 0 is
# subnormal, and Halley on w*e^w = z degrades fast: relative error 7e-15 at
# |z| = 7e-310, 1e-10 at 1e-314 and 0.01 at 5e-324 (3.6e-16 at most above
# the bound), so _lambert_w_log solves the logarithm of the equation there.
_TINY_Z = sys.float_info.min

# Bound once: lambert_w is called per query and per scan row, lambert_w_real
# per query. lambert_w builds its WEvaluation through tuple.__new__, without
# the Python frame of the named tuple's own __new__.
_cexp, _clog, _csqrt, _cisfinite = cmath.exp, cmath.log, cmath.sqrt, cmath.isfinite
_exp, _log, _sqrt, _isfinite = math.exp, math.log, math.sqrt, math.isfinite
_tuple_new = tuple.__new__


class WEvaluation(NamedTuple):
    """One converged branch evaluation (an immutable named tuple).

    residual is |w*exp(w) - z| / (1 + |z|); success guarantees <= 1e-12.
    """

    value: complex
    branch: int
    residual: float
    iterations: int


def _require_finite(z: complex, what: str) -> complex:
    """z as a complex number; NonFinite naming it as `what` unless finite."""
    z = complex(z)
    if not _cisfinite(z):
        raise NonFinite(f"non-finite {what} {z!r}")
    return z


def _integer(k, what: str) -> int:
    """k as an int; DomainError naming it as `what` unless k is integral: the
    rule of a branch index and of a count (a scan's sizes, w_series' terms).

    Bools, numpy integers and integral floats are; 1.5, nan, inf and "1"
    are not. The per-query callers test type(k) is not int first, so an int
    costs them no call.
    """
    try:
        i = int(k)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != k:
        raise DomainError(f"{what} must be an integer; got {k!r}")
    return i


def _residual(w: complex, z: complex) -> float:
    """Normalized defining-equation residual |w e^w - z| / (1 + |z|)."""
    if w.real <= 500.0:
        return abs(w * cmath.exp(w) - z) / (1.0 + abs(z))
    # Avoid overflow in exp for extreme arguments: compare in log space.
    # w*e^w/z = exp(w + log w - log z) up to a multiple of 2*pi*i.
    t = w + cmath.log(w) - cmath.log(z)
    t -= _TWO_PI_I * round(t.imag / _TWO_PI)
    return abs(cmath.exp(t) - 1.0) * abs(z) / (1.0 + abs(z))


def _asymptotic_seed(l1: complex, log, full: bool = True) -> complex:
    # l1 = log z + 2*pi*i*k; k = 0 adds no imaginary shift, so a real z
    # keeps a real seed.
    l2 = log(l1)
    r = l2 / l1
    if not full:
        return l1 - l2 + r  # the three-term seed
    # First terms of the standard asymptotic expansion in l2/l1.
    return l1 - l2 + r * (1.0 + (l2 - 2.0) / (2.0 * l1) + (2.0 * l2 * l2 - 9.0 * l2 + 6.0) / (6.0 * l1 * l1))


def _initial_guess(k: int, z: complex, sqrt, log) -> complex:
    """The seed table; sqrt and log are cmath's for complex z, math's for real z."""
    if k > 1 or k < -1:  # most branches have one region: test them first
        return _asymptotic_seed(log(z) + _TWO_PI_I * k, log)
    # Branches -1 and +1 pinch onto the -1 - p cluster at the branch point:
    # W_-1 owns it for Im z >= 0 (cut values continuous from above), W_+1
    # for Im z < 0; on the other side both run in their asymptotic strips.
    # The branch test comes first: it is cheaper than the distance.
    if (k == 0 or (k == -1 and z.imag >= 0.0) or (k == 1 and z.imag < 0.0)) and abs(
        z - BRANCH_POINT_Z
    ) <= 0.3:
        # Series of W in p = +/-sqrt(2(e*z+1)) about the branch point.
        p = sqrt(2.0 * (math.e * z + 1.0))
        p = -p if k else p
        return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))
    if k == 0:
        # Pade [3/2] of the Maclaurin series, only away from the cut, where
        # it stays on-branch; good well beyond |z| = 1/e.
        x, y = z.real, abs(z.imag)
        if -1.0 < x < 1.5 and y < 1.0 and x > -2.5 * y - 0.2:
            num = 1.0 + z * (1.9 + 0.2833333333333333 * z)
            den = 1.0 + z * (2.9 + 1.6833333333333333 * z)
            return z * num / den
        # Near |z| ~ 1-2 the higher terms pull Halley onto W_{+-1}.
        return _asymptotic_seed(log(z), log, abs(z) > 2.0)
    if k == -1 and z.imag == 0.0 and BRANCH_POINT_Z <= z.real < 0.0:
        # Real branch segment; keep the iteration on the real line.
        l1 = log(-z.real)
        return l1 - log(-l1)
    return _asymptotic_seed(log(z) + _TWO_PI_I * k, log)


def _halley(z: complex, w: complex, exp) -> tuple[complex, int, bool]:
    """Polish a seed; returns (w, iterations, converged-by-step-size).

    exp is cmath.exp for complex z and w, math.exp for real ones. A step
    below _STALL_TOL relative that is no smaller than the one before is
    rounding noise: the loop stops there too, unconverged, and the caller's
    residual check decides. At w = -1 the update divides by 2(w + 1) = 0:
    w moves by 1e-8 and the step counts. A zero denominator of the update
    stops the loop, as does f = 0, which keeps an exact root's w as it is.
    """
    it = 0
    last = math.inf
    while it < _MAX_ITER:  # cheaper than a range() per call on the real path
        it += 1
        wp1 = w + 1.0
        try:
            if w.real > 0.0:
                # Rearranged update avoids overflow in exp(w) for large Re w.
                f = w - z * exp(-w)
                denom = wp1 - (w + 2.0) * f / (2.0 * wp1)
            else:
                ew = exp(w)
                f = w * ew - z
                denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
            if f == 0.0:
                return w, it, True
            dw = f / denom
        except ZeroDivisionError:
            if wp1 == 0.0:
                w += 1e-8
                continue
            return w, it, True
        w -= dw
        step = abs(dw)
        scale = 1.0 + abs(w)
        if step < _STALL_TOL * scale:
            if step < _STEP_TOL * scale:
                return w, it, True
            if step >= last:
                return w, it, False
        last = step
    return w, _MAX_ITER, False


def lambert_w(k: int, z: complex) -> WEvaluation:
    """Evaluate the k-th branch of the Lambert W function at complex z.

    Parameters
    ----------
    k : int
        Branch index; any integer, |k| <= 64 exercised routinely. An
        integral float, bool or numpy integer is taken as its int; any other
        k raises DomainError.
    z : complex
        Finite evaluation point. z = 0 is only valid on the principal
        branch (W_k(0) diverges for k != 0).

    Returns
    -------
    WEvaluation with a value w satisfying w*exp(w) = z to relative
    residual <= 1e-12.

    Raises
    ------
    NonFinite, DomainError, BranchSingularity, NoConvergence
    """
    # _require_finite and the common branch of _residual, inlined: this is
    # the per-query path, and each saved call is a measurable share of it.
    # + 0j turns Im z = -0.0 into +0.0: the cut is taken from above.
    z = complex(z) + 0j
    if not _cisfinite(z):
        raise NonFinite(f"non-finite argument {z!r}")
    if type(k) is not int:
        k = _integer(k, "branch index k")
    try:
        r = abs(z)  # 0 only at z = 0
    except OverflowError:  # finite parts whose modulus is past the float range
        raise NonFinite(f"the modulus of the argument {z!r} is past the float range") from None
    if r == 0.0:
        if k == 0:
            return WEvaluation(0j, 0, 0.0, 0)
        raise BranchSingularity(f"W_{k}(0) diverges")
    if k and r < _TINY_Z:
        w, iterations = _lambert_w_log(k, _clog(z))
        stepped = True
    else:
        w, iterations, stepped = _halley(z, _initial_guess(k, z, _csqrt, _clog), _cexp)
    if w.real <= 500.0:
        res = abs(w * _cexp(w) - z) / (1.0 + r)
    else:
        res = _residual(w, z)
    if res > _RESIDUAL_TOL:
        if not stepped:
            raise NoConvergence(
                f"Halley failed for W_{k}({z!r}): residual {res:.3e} after {iterations} iterations"
            )
        raise NoConvergence(f"W_{k}({z!r}) converged to residual {res:.3e} > 1e-12")
    return _tuple_new(WEvaluation, (w, k, res, iterations))


def _lambert_w_log(k: int, t: complex) -> tuple[complex, int]:
    """W_k(z) and its Newton steps for k != 0 and |z| < _TINY_Z, from
    t = Log z (Im t in (-pi, pi]).

    Im W_k has the sign of k, or is 0 (the real W_-1 on its cut), so
    log w = log(-w) + i*pi*sign(k), and log(-w) has no cut near w. Im t = pi
    puts z on or above the negative real axis, where W_-1 starts from a real
    seed, so its root on the cut stays real.
    """
    if k == -1 and t.imag == math.pi:
        w = t.real - _clog(-t.real)  # _initial_guess's real seed
    else:
        w = _asymptotic_seed(t + _TWO_PI_I * k, _clog)
    t = t + _TWO_PI_I * k - (_PI_I if k > 0 else -_PI_I)
    for it in range(1, _MAX_ITER + 1):
        dw = (w + _clog(-w) - t) / (1.0 + 1.0 / w)
        w = w - dw
        if abs(dw) < _STEP_TOL * (1.0 + abs(w)):
            return w, it
    raise NoConvergence(f"Newton failed for W_{k} at w + log(-w) = {t!r} after {_MAX_ITER} iterations")


def lambert_w_real(k: int, x: float) -> float:
    """Real-restricted fast path for branches 0 and -1.

    k = 0 needs x >= -1/e; k = -1 needs -1/e <= x < 0. Runs lambert_w's
    seed table and Halley loop in floats, so it agrees with lambert_w to
    ~1 ulp (1e-14 relative). On the real line the table reads: for k = 0,
    the branch-point series for x <= -1/e + 0.3, the Pade seed below 1.5,
    the three-term L1 - L2 + L2/L1 up to 2, the asymptotic series beyond;
    for k = -1, the branch-point series (root -p) for x <= -1/e + 0.3,
    L1 - log(-L1) with L1 = log(-x) beyond, and for a subnormal x the
    log-space Newton of _lambert_w_log.

    Raises
    ------
    NonFinite, DomainError, NoConvergence (Halley did not settle and the
    residual exceeds 1e-12)
    """
    x = float(x)
    if not _isfinite(x):
        raise NonFinite(f"non-finite argument {x!r}")
    if k == 0:
        if x < BRANCH_POINT_Z:
            raise DomainError(f"W_0 real domain is [-1/e, inf); got {x}")
    elif k == -1:
        if not (BRANCH_POINT_Z <= x < 0.0):
            raise DomainError(f"W_-1 real domain is [-1/e, 0); got {x}")
    else:
        raise DomainError(f"real branches are 0 and -1; got k={k}")
    if x == 0.0:
        return 0.0
    if x == BRANCH_POINT_Z:
        return -1.0
    if k == -1 and x > -_TINY_Z:
        # x lies on W_-1's cut, taken from above: Log x = log(-x) + i*pi
        return _lambert_w_log(-1, complex(math.log(-x), math.pi))[0].real
    w, iterations, stepped = _halley(x, _initial_guess(k, x, _sqrt, _log), _exp)
    # Near the branch point the last steps stall at rounding level, as in
    # lambert_w; the residual decides there.
    if not stepped and _residual(w, x) > _RESIDUAL_TOL:
        raise NoConvergence(f"Halley failed for real W_{k}({x!r}) after {iterations} iterations")
    return w


def w_derivative(k: int, z: complex) -> complex:
    """dW_k/dz = w / (z (1 + w)) = 1 / (z + exp(w)) at w = W_k(z); singular
    where w = -1, at the branch point on the branches that reach it."""
    z = _require_finite(z, "argument")
    w = lambert_w(k, z).value
    if abs(1.0 + w) <= _SINGULAR_W:
        raise BranchPointSingularity(f"derivative singular at z = {z!r}: W_{k}(z) = -1")
    return 1.0 / (z + cmath.exp(w))


def w_series(z: complex, n_terms: int) -> complex:
    """Truncated Maclaurin series sum_{n=1}^{n_terms} (-n)^(n-1)/n! * z^n.

    Converges for |z| < 1/e. Coefficients are formed from exact integers,
    so each term is correctly rounded; n_terms is capped at 170 where the
    float dynamic range of the coefficients runs out. An n_terms that is not
    integral raises DomainError.
    """
    from fractions import Fraction

    z = _require_finite(z, "argument")
    n_terms = _integer(n_terms, "n_terms")
    if n_terms < 1:
        raise TermLimitExceeded("n_terms must be >= 1")
    if n_terms > 170:
        raise TermLimitExceeded(f"n_terms {n_terms} exceeds the supported cap of 170")
    total = 0j
    factorial = 1
    zn = complex(1.0)
    for n in range(1, n_terms + 1):
        factorial *= n
        zn *= z
        # (-n)^(n-1)/n! as a correctly rounded float; exact integers first.
        coeff = float(Fraction((-n) ** (n - 1), factorial))
        total += coeff * zn
    return total
