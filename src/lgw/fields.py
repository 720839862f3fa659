"""Exact arithmetic for quadratic fields.

Everything here is integer arithmetic: fundamental discriminants, Dirichlet
signature/unit-rank bookkeeping, torsion units, fundamental units by the
continued-fraction expansion of sqrt(d) or (1+sqrt(d))/2, and class numbers
two independent ways (reduced binary quadratic forms, and the finite
Dirichlet class-number formula through the Kronecker symbol).

Class numbers for positive discriminants are the ordinary (wide) h by
default: the form machinery yields the narrow h+, and h = h+ when the
fundamental unit has norm -1, h = h+/2 otherwise. h+ comes from one
batched numpy sieve (_narrow_class_numbers), for a single D and for a whole
real scan alike: it enumerates the reduced forms (a, b, -m) with
D = b^2 + 4am, a, m > 0 and |a - m| < b, and their mirrors (-a, b, m),
applies the cycle step rho to all of them at once, and counts the cycles
of each D by pointer doubling. It walks D in windows of a bounded number
of forms, and takes D up to _MAX_REAL_D = 10^8.

Negative D go down to -_MAX_IMAG_D = -10^7. class_number(D < 0) lists the
reduced definite forms of one D; an imaginary scan counts them for every
-n >= -limit at once (_imaginary_form_counts). There n = 4ac - b^2 is 0 or
3 mod 4 by the parity of b, so the counts live in two int32 residue classes
of about limit/4 entries, where each a adds progressions of stride a: one
staircase of about a/4 rows, then one periodic row of the a's whole
pattern added over a 2-D view. class_numbers_imaginary_batch assembles the
int64 array over all n from the two classes.

numpy is imported inside the sieves and class_number(D > 0), on first use:
units, forms of negative D and the analytic formula run without it, and so
do the CLI's point commands, all but `classno` of a positive D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt

from .errors import (
    DegenerateD,
    NotFundamental,
    NotImaginary,
    NotSquarefree,
    OddDegree,
    PrecisionLoss,
    SquareDiscriminant,
    TermLimitExceeded,
)

__all__ = [
    "QuadraticFieldDescriptor",
    "FundamentalUnit",
    "BinaryQuadraticForm",
    "RootsOfUnity",
    "describe_field",
    "unit_rank",
    "roots_of_unity",
    "fundamental_unit",
    "class_number",
    "class_number_analytic",
    "kronecker_symbol",
    "is_squarefree",
    "is_fundamental_discriminant",
    "discriminant_of_radicand",
    "radicand_of_discriminant",
    "fundamental_discriminants",
    "class_numbers_imaginary_batch",
]


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    if n % 4 == 0:
        return False
    q = 3
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        q += 2
    return True


def discriminant_of_radicand(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)) for squarefree d not in {0,1}."""
    if d in (0, 1):
        raise DegenerateD(f"d={d} does not define a quadratic field")
    if not is_squarefree(d):
        raise NotSquarefree(f"d={d} has a square factor")
    return d if d % 4 == 1 else 4 * d


def radicand_of_discriminant(D: int) -> int:
    """Squarefree radicand d of the field with fundamental discriminant D."""
    _check_fundamental(D)
    return D if D % 4 == 1 else D // 4


def is_fundamental_discriminant(D: int) -> bool:
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def _check_fundamental(D: int) -> None:
    if D > 0 and isqrt(D) ** 2 == D:
        raise SquareDiscriminant(f"D={D} is a perfect square")
    if not is_fundamental_discriminant(D):
        raise NotFundamental(f"D={D} is not a fundamental discriminant")


def fundamental_discriminants(lo: int, hi: int) -> list[int]:
    """All fundamental discriminants D with lo <= D <= hi, ascending."""
    return _fundamental_discriminant_array(lo, hi).tolist()


# -- sieves over discriminant ranges ---------------------------------------------

def _squarefree_mask(lo: int, hi: int) -> np.ndarray:
    """mask[i] is True when lo + i is squarefree, for 1 <= lo <= hi."""
    import numpy as np

    sf = np.ones(hi - lo + 1, dtype=bool)
    q = 2
    while q * q <= hi:
        qq = q * q
        sf[-lo % qq :: qq] = False
        q += 1
    return sf


def _fundamental_magnitudes(lo: int, hi: int, negative: bool) -> np.ndarray:
    """Ascending n in [lo, hi], 2 <= lo, with -n (negative) or n fundamental."""
    import numpy as np

    if hi < lo:
        return np.empty(0, dtype=np.int64)
    n = np.arange(lo, hi + 1, dtype=np.int64)
    # D = 1 mod 4 and squarefree; -n = 1 mod 4 means n = 3 mod 4
    keep = (n % 4 == (3 if negative else 1)) & _squarefree_mask(lo, hi)
    # D = 4m with m = 2, 3 mod 4 squarefree; for D = -n, n/4 = -m is 1, 2 mod 4
    m_lo, m_hi = -(-lo // 4), hi // 4
    if m_lo <= m_hi:
        m = np.arange(m_lo, m_hi + 1, dtype=np.int64) % 4
        good = (m == 1) | (m == 2) if negative else (m == 2) | (m == 3)
        keep[4 * m_lo - lo :: 4] = good & _squarefree_mask(m_lo, m_hi)
    return n[keep]


def _fundamental_discriminant_array(lo: int, hi: int) -> np.ndarray:
    """Fundamental discriminants D with lo <= D <= hi, ascending, as int64.

    Sieves squarefree parts over the range instead of trial-dividing each D;
    agrees with is_fundamental_discriminant term by term.
    """
    import numpy as np

    neg = _fundamental_magnitudes(max(-hi, 2), -lo, negative=True)
    pos = _fundamental_magnitudes(max(lo, 2), hi, negative=False)
    return np.concatenate((-neg[::-1], pos))


# -- Dirichlet signature bookkeeping ------------------------------------------

@dataclass(frozen=True)
class QuadraticFieldDescriptor:
    """Signature and unit-rank data of Q(sqrt(d)).

    sigma1 real embeddings, sigma2 conjugate pairs; sigma1 + 2*sigma2 = 2
    and sigma1*sigma2 = 0 at degree 2, unit_rank = sigma1 + sigma2 - 1.
    """

    d: int
    D: int
    sigma1: int
    sigma2: int
    unit_rank: int


def describe_field(d: int) -> QuadraticFieldDescriptor:
    D = discriminant_of_radicand(d)
    if d < 0:
        sigma1, sigma2 = 0, 1
    else:
        sigma1, sigma2 = 2, 0
    return QuadraticFieldDescriptor(d=d, D=D, sigma1=sigma1, sigma2=sigma2,
                                    unit_rank=sigma1 + sigma2 - 1)


def unit_rank(two_r: int, totally_real: bool) -> tuple[int, int, int]:
    """(sigma1, sigma2, rank of the unit group) for a Galois field of degree 2r.

    Totally real: (2r, 0, 2r-1); totally imaginary: (0, r, r-1).
    """
    if two_r % 2 != 0 or two_r < 2:
        raise OddDegree(f"degree must be even and >= 2, got {two_r}")
    r = two_r // 2
    if totally_real:
        return two_r, 0, two_r - 1
    return 0, r, r - 1


# -- torsion units --------------------------------------------------------------

@dataclass(frozen=True)
class RootsOfUnity:
    """The n-th roots of unity contained in an imaginary quadratic field."""

    n: int
    elements: tuple[complex, ...]


def roots_of_unity(D: int) -> RootsOfUnity:
    """Torsion unit group of the imaginary quadratic field of discriminant D.

    n = 4 for D = -4, n = 6 for D = -3, n = 2 otherwise.
    """
    if D >= 0:
        raise NotImaginary(f"D={D} is not an imaginary discriminant")
    _check_fundamental(D)
    if D == -4:
        n = 4
    elif D == -3:
        n = 6
    else:
        n = 2
    half_rt3 = math.sqrt(3.0) / 2.0
    table = {
        2: (1 + 0j, -1 + 0j),
        4: (1 + 0j, 1j, -1 + 0j, -1j),
        6: (
            1 + 0j,
            complex(0.5, half_rt3),
            complex(-0.5, half_rt3),
            -1 + 0j,
            complex(-0.5, -half_rt3),
            complex(0.5, -half_rt3),
        ),
    }
    return RootsOfUnity(n=n, elements=table[n])


# -- fundamental units via continued fractions ---------------------------------

@dataclass(frozen=True)
class FundamentalUnit:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(d)), d > 1.

    The unit is (x + y*sqrt(d))/2 when half_integral, x + y*sqrt(d)
    otherwise; x, y are exact integers and the Pell relation
    x^2 - d*y^2 = 4*norm (resp. norm) holds exactly. regulator = log of
    the unit value, computed in log space so huge units stay finite.
    """

    d: int
    x: int
    y: int
    half_integral: bool
    norm: int
    regulator: float

    def value(self) -> float:
        """Float value of the unit; inf if it overflows float64."""
        if self.regulator > 709.0:
            return math.inf
        v = self.x + self.y * math.sqrt(self.d)
        return v / 2.0 if self.half_integral else v

    def pell_residual(self) -> int:
        m = 4 * self.norm if self.half_integral else self.norm
        return self.x * self.x - self.d * self.y * self.y - m

    def as_string(self) -> str:
        if self.half_integral:
            return f"({self.x}+{self.y}*sqrt({self.d}))/2"
        return f"{self.x}+{self.y}*sqrt({self.d})"


def _log_half_sum(x: int, y: int, d: int, halves: int) -> float:
    # log((x + y*sqrt(d)) / 2^halves) for big positive integers x, y
    lx = math.log(x)
    ly = 0.5 * math.log(d) + math.log(y)
    hi, lo = (lx, ly) if lx >= ly else (ly, lx)
    return hi + math.log1p(math.exp(lo - hi)) - halves * math.log(2.0)


# Step cap on the continued-fraction sweep: a radicand whose period is
# longer fails with a domain error instead of running on.
_CF_STEP_LIMIT = 10_000_000


def _cf_unit(d: int) -> tuple[int, int, int]:
    """Continued-fraction sweep; returns (x, y, norm) with x^2 - d*y^2 = 4*norm.

    Expands sqrt(d) for d = 2,3 mod 4 and (1+sqrt(d))/2 for d = 1 mod 4,
    reading the fundamental solution off the convergent just before the
    period closes. The returned pair is normalized to the half-integral
    coordinate system (so x = y = 0 mod 2 encodes an integral unit).
    """
    s = isqrt(d)
    if d % 4 == 1:
        p_state, q_state = 1, 2
    else:
        p_state, q_state = 0, 1
    a = (p_state + s) // q_state
    p_prev, p_cur = 1, a
    q_prev, q_cur = 0, 1
    first = None
    steps = 0
    while True:
        steps += 1
        if steps > _CF_STEP_LIMIT:
            raise TermLimitExceeded(
                f"continued fraction of d={d} did not close within {_CF_STEP_LIMIT} steps"
            )
        p_state = a * q_state - p_state
        q_state = (d - p_state * p_state) // q_state
        a = (p_state + s) // q_state
        if first is None:
            first = (p_state, q_state)
            period = 1
        elif (p_state, q_state) == first:
            break
        else:
            period += 1
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    norm = -1 if period % 2 == 1 else 1
    if d % 4 == 1:
        x, y = 2 * p_prev - q_prev, q_prev
    else:
        x, y = 2 * p_prev, 2 * q_prev
    return x, y, norm


def fundamental_unit(d: int) -> FundamentalUnit:
    """Fundamental unit of the ring of integers of Q(sqrt(d)), d squarefree > 1.

    d above _MAX_REAL_D (10^8) raises TermLimitExceeded before any work: the
    squarefree test and the continued fraction both grow with sqrt(d).
    """
    if d in (0, 1):
        raise DegenerateD(f"d={d} does not define a real quadratic field")
    if d < 0:
        raise DegenerateD(f"d={d} is imaginary; its unit group is torsion only")
    if d > _MAX_REAL_D:
        raise TermLimitExceeded(f"d={d} exceeds {_MAX_REAL_D}, the largest radicand supported")
    if not is_squarefree(d):
        raise NotSquarefree(f"d={d} has a square factor")
    return _unit_of_squarefree(d)


def _unit_of_squarefree(d: int) -> FundamentalUnit:
    """fundamental_unit(d) for a d > 1 already known to be squarefree."""
    x, y, norm = _cf_unit(d)
    half = not (x % 2 == 0 and y % 2 == 0)
    if not half:
        x //= 2
        y //= 2
    assert x * x - d * y * y == (4 * norm if half else norm)
    reg = _log_half_sum(x, y, d, 1 if half else 0)
    return FundamentalUnit(d=d, x=x, y=y, half_integral=half, norm=norm, regulator=reg)


# -- binary quadratic forms ------------------------------------------------------

@dataclass(frozen=True)
class BinaryQuadraticForm:
    """Integral form a*x^2 + b*x*y + c*y^2 with exact (arbitrary) integers."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def is_reduced(self) -> bool:
        D = self.discriminant()
        a, b, c = self.a, self.b, self.c
        if D < 0:
            if a <= 0:
                return False
            if not (-a < b <= a <= c):
                return False
            if b < 0 and (a == c or b == -a):
                return False
            return True
        s = isqrt(D)
        # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, integer form
        return 0 < b <= s and s - b + 1 <= 2 * abs(a) <= s + b


def _indefinite_neighbor(form: BinaryQuadraticForm, D: int) -> BinaryQuadraticForm:
    # rho: (a,b,c) -> (c, r, (r^2-D)/(4c)), r = -b mod 2|c| shifted into
    # (sqrt(D)-2|c|, sqrt(D)) -- the cycle step on reduced indefinite forms.
    c = form.c
    m = 2 * abs(c)
    s = isqrt(D)
    r = s - ((s + form.b) % m)
    return BinaryQuadraticForm(c, r, (r * r - D) // (4 * c))


def reduce_form(form: BinaryQuadraticForm) -> tuple[BinaryQuadraticForm, int]:
    """Reduce a form; returns (reduced form, number of reduction steps)."""
    D = form.discriminant()
    if D == 0 or (D > 0 and isqrt(D) ** 2 == D):
        raise SquareDiscriminant(f"discriminant {D} is a square")
    steps = 0
    if D < 0:
        a, b, c = form.a, form.b, form.c
        if a < 0:
            raise NotFundamental("negative-definite form; negate it first")
        while True:
            steps += 1
            # normalize b into (-a, a], then swap outer coefficients if a > c
            if not (-a < b <= a):
                t = (a - b) // (2 * a)
                b2 = b + 2 * t * a
                c = a * t * t + b * t + c
                b = b2
            if a > c:
                a, b, c = c, -b, a
                continue
            if a == c and b < 0:
                b = -b
            if b == -a:
                b = a
            break
        return BinaryQuadraticForm(a, b, c), steps
    f = form
    s = isqrt(D)
    while not f.is_reduced():
        steps += 1
        c = f.c
        if abs(c) > s:
            # pull b into (-|c|, |c|]
            m = 2 * abs(c)
            r = (-f.b) % m
            if r > abs(c):
                r -= m
            f = BinaryQuadraticForm(c, r, (r * r - D) // (4 * c))
        else:
            f = _indefinite_neighbor(f, D)
        if steps > 10_000:
            raise PrecisionLoss("form reduction did not terminate")
    return f, steps


def _reduced_forms_negative(D: int) -> list[BinaryQuadraticForm]:
    out = []
    amax = isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(BinaryQuadraticForm(a, b, c))
    return out


def class_number(D: int, narrow: bool = False) -> int:
    """Class number of the quadratic field with fundamental discriminant D.

    D < 0: count of reduced primitive forms. D > 0: the narrow h+ is the
    number of cycles under rho of the reduced forms (a, b, -m) and
    (-a, b, m) with D = b^2 + 4am, a, m > 0 and |a - m| < b, counted by the
    batched form sieve that the real scan also runs (_narrow_class_numbers);
    the wide h (default) is h+ when the fundamental unit has norm -1 and
    h+/2 when it has norm +1. Positive D above _MAX_REAL_D (10^8) and
    negative D below -_MAX_IMAG_D (-10^7) raise TermLimitExceeded before any
    work; one D near either ceiling takes up to about 2 s.
    """
    _check_size(D)
    _check_fundamental(D)
    if D < 0:
        return len(_reduced_forms_negative(D))
    import numpy as np

    h_plus = int(_narrow_class_numbers(np.array([D], dtype=np.int64))[0])
    if narrow:
        return h_plus
    return _wide_class_number(h_plus, fundamental_unit(D if D % 4 == 1 else D // 4))


def _wide_class_number(h_plus: int, unit: FundamentalUnit) -> int:
    """Wide h of a real field from its narrow h+ and its fundamental unit."""
    if unit.norm == -1:
        return h_plus
    assert h_plus % 2 == 0
    return h_plus // 2


# -- batched narrow class numbers for the real survey ------------------------------

# Largest positive discriminant the form sieve takes. Its int64 arithmetic
# (the key (D*K + a)*K + b with K = isqrt(D) + 1, and r^2 - D) is exact up
# to about 3e9; the ceiling sits lower, where one D takes about 2 s. It is
# also the largest radicand fundamental_unit takes (0.1 s at most below it).
_MAX_REAL_D = 10**8

# Largest |D| of a negative discriminant: class_number(D < 0) enumerates
# forms in O(|D|) Python steps, and an imaginary scan to -limit holds its
# form counts in int32[limit // 4 + 1, 2] and does work that grows as
# limit^1.5 (about 3 s of sieve at 10^7).
_MAX_IMAG_D = 10**7

# Candidate forms the sieve holds at once: it walks D in windows of about
# this many reduced forms, and a window's (a, b) pairs in blocks of this
# many, so its memory stays flat whatever the range.
_SIEVE_WINDOW_FORMS = 1 << 15


def _check_size(D: int) -> None:
    """TermLimitExceeded when D lies beyond the ceiling for its sign."""
    if D > _MAX_REAL_D:
        raise TermLimitExceeded(
            f"D={D} exceeds {_MAX_REAL_D}, the largest real discriminant supported"
        )
    if D < -_MAX_IMAG_D:
        raise TermLimitExceeded(
            f"D={D} is below {-_MAX_IMAG_D}, the most negative imaginary discriminant supported"
        )


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, v) for each integer v in [lo[i], hi[i]], i ascending; lo > hi adds none."""
    import numpy as np

    n = np.maximum(hi - lo + 1, 0)
    i = np.repeat(np.arange(len(n)), n)
    return i, lo[i] + np.arange(len(i)) - (np.cumsum(n) - n)[i]


def _narrow_class_numbers(Ds: np.ndarray) -> np.ndarray:
    """Narrow class numbers h+ of an ascending int64 array of positive
    fundamental discriminants, as int64, by one sieve over all of them.

    A reduced form with a > 0 is (a, b, -m) with m > 0, D = b^2 + 4am and,
    for non-square D, |a - m| < b (the same condition as
    sqrt(D) - b < 2|a| < sqrt(D) + b); its mirror is (-a, b, m). Both are
    primitive, because D is fundamental. The sieve enumerates the triples
    (a, b, m) of every D in Ds at once, applies rho (the formula of
    _indefinite_neighbor) to all of them, and finds each image by a sorted
    (D, a, b) key. rho sends (a, b, -m) to the mirror of (m, r, m') and the
    mirror of (a, b, -m) to (m, r, -m'), so one map on triples carries both
    halves: a cycle of it of odd length is one rho cycle through its forms
    and their mirrors, a cycle of even length is two. Cycles are labelled by
    pointer doubling (each triple takes the least index on its cycle), and
    h+ of D adds 1 or 2 for each cycle of D by that parity.
    """
    import numpy as np

    if len(Ds):
        _check_size(int(Ds[-1]))
    h = np.empty(len(Ds), dtype=np.int64)
    i = 0
    while i < len(Ds):
        # there are about 0.23 * X^1.5 triples with D <= X, all D counted
        hi = int((float(Ds[i]) ** 1.5 + _SIEVE_WINDOW_FORMS / 0.23) ** (2.0 / 3.0))
        j = max(int(np.searchsorted(Ds, hi, side="right")), i + 1)
        h[i:j] = _narrow_class_numbers_window(Ds[i:j])
        i = j
    return h


def _narrow_class_numbers_window(Ds: np.ndarray) -> np.ndarray:
    import numpy as np

    lo, hi = int(Ds[0]), int(Ds[-1])
    member = np.zeros(hi - lo + 1, dtype=bool)
    member[Ds - lo] = True
    # b < sqrt(D) and sqrt(D) - b < 2a < sqrt(D) + b bound the (a, b) pairs
    s_lo, s_hi = isqrt(lo), isqrt(hi)
    b = np.arange(1, s_hi + 1, dtype=np.int64)
    a_lo = np.maximum((s_lo - b) // 2, 1)
    a_hi = (s_hi + b) // 2
    pairs = np.cumsum(a_hi - a_lo + 1)
    cuts = np.searchsorted(pairs, np.arange(_SIEVE_WINDOW_FORMS, pairs[-1], _SIEVE_WINDOW_FORMS))
    parts = []
    for blk in np.split(np.arange(s_hi), cuts):
        ib, a = _ranges(a_lo[blk], a_hi[blk])
        bb = b[blk][ib]
        sq = bb * bb
        # m in [a - b + 1, a + b - 1] (reduced) with lo <= b^2 + 4am <= hi
        m_lo = np.maximum(np.maximum(a - bb + 1, 1), -((sq - lo) // (4 * a)))
        m_hi = np.minimum(a + bb - 1, (hi - sq) // (4 * a))
        ip, m = _ranges(m_lo, m_hi)
        a, bb = a[ip], bb[ip]
        D = bb * bb + 4 * a * m
        keep = member[D - lo]
        parts.append((a[keep], bb[keep], m[keep], D[keep]))
    a, b, m, D = (np.concatenate(col) for col in zip(*parts))
    # rho: (a, b, -m) -> (-m, r, m'), r = -b mod 2m shifted into (sqrt(D) - 2m, sqrt(D))
    s = np.sqrt(D).astype(np.int64)
    s -= s * s > D
    s += (s + 1) * (s + 1) <= D
    r = s - (s + b) % (2 * m)
    # rho permutes the triples of each D, so the j-th smallest image key is
    # the j-th smallest key
    K = s_hi + 1
    key, image = (D * K + a) * K + b, (D * K + m) * K + r
    by_key, by_image = np.argsort(key), np.argsort(image)
    assert np.array_equal(key[by_key], image[by_image])
    nxt = np.empty_like(by_key)
    nxt[by_image] = by_key
    lab = np.arange(len(D))
    for _ in range(int(np.bincount(D - lo).max()).bit_length()):
        lab = np.minimum(lab, lab[nxt])
        nxt = nxt[nxt]
    size = np.bincount(lab, minlength=len(D))
    head = np.flatnonzero(size)
    even = head[size[head] % 2 == 0]
    n = hi - lo + 1
    h = np.bincount(D[head] - lo, minlength=n) + np.bincount(D[even] - lo, minlength=n)
    return h[Ds - lo]


# -- Kronecker symbol and the analytic route ------------------------------------

def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full extension of the Jacobi symbol."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t % 2 == 1 and a % 8 in (3, 5):
        result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# Largest |D| class_number_analytic takes: its character sum runs |D| - 1
# Kronecker symbols in Python.
_MAX_ANALYTIC_D = 10**6


def class_number_analytic(D: int, precision_terms: int | None = None) -> int:
    """Class number by the finite Dirichlet formula; independent of the forms.

    D < 0: h = w/(2|D|) * |sum_{a<|D|} chi(a)*a| with w roots of unity.
    D > 0: h = -sum_{a<D} chi(a)*log(sin(pi*a/D)) / (2*regulator).
    precision_terms caps the character sum (default: all |D|-1 terms);
    an undersized cap surfaces as PrecisionLoss. |D| above
    _MAX_ANALYTIC_D (10^6) raises TermLimitExceeded before any work.
    """
    if abs(D) > _MAX_ANALYTIC_D:
        raise TermLimitExceeded(
            f"|D| = {abs(D)} exceeds {_MAX_ANALYTIC_D}, the largest the character sum supports"
        )
    _check_fundamental(D)
    n_terms = abs(D) - 1 if precision_terms is None else min(int(precision_terms), abs(D) - 1)
    if n_terms < 1:
        raise PrecisionLoss("precision_terms must allow at least one term")
    if D < 0:
        w = 6 if D == -3 else 4 if D == -4 else 2
        total = 0
        for a in range(1, n_terms + 1):
            total += kronecker_symbol(D, a) * a
        h_float = w * abs(total) / (2.0 * abs(D))
    else:
        reg = fundamental_unit(radicand_of_discriminant(D)).regulator
        total_f = 0.0
        for a in range(1, n_terms + 1):
            chi = kronecker_symbol(D, a)
            if chi:
                total_f += chi * math.log(math.sin(math.pi * a / D))
        h_float = -total_f / (2.0 * reg)
    h = round(h_float)
    if abs(h_float - h) > 0.25 or h < 1:
        raise PrecisionLoss(
            f"analytic class number for D={D} did not round cleanly: {h_float!r}"
        )
    return h


# -- batched class numbers for the imaginary survey ------------------------------

def class_numbers_imaginary_batch(limit: int) -> np.ndarray:
    """counts[n] = number of reduced forms of discriminant -n, n <= limit.

    An int64 array of limit + 1 entries, assembled from the two residue
    classes of _imaginary_form_counts: forms exist only at n = 0, 3 mod 4,
    so every other entry is 0. Imprimitive forms are counted too; they
    cannot occur at a fundamental -n, so entries there are exact class
    numbers.
    """
    import numpy as np

    counts = np.zeros(limit + 1, dtype=np.int64)
    by_class = _imaginary_form_counts(limit)
    counts[0::4] = by_class[:, 0]
    counts[3::4] = by_class[: len(counts[3::4]), 1]
    return counts


# Periodic rows are tiled to about this many entries, so each add over the
# 2-D view runs long contiguous inner loops.
_FORM_ROW_ENTRIES = 4096


def _imaginary_form_counts(limit: int) -> np.ndarray:
    """Reduced forms (a, b, c) of discriminant -n for n <= limit, by the
    residue class of n, as int32 of shape (limit // 4 + 1, 2).

    A reduced form has 0 <= |b| <= a <= c, b >= 0 when |b| = a or a = c,
    and n = 4ac - b^2 (Cohen, GTM 138, section 5.3). Even b = 2j gives
    n = 4(ac - j^2), counted in column 0 at row n / 4; odd b = 2j + 1 gives
    n = 4(ac - j^2 - j - 1) + 3, counted in column 1 at row (n - 3) / 4. So
    row i holds n = 4i and n = 4i + 3, and a form of n sits at [n >> 2, n & 1].
    The last row's odd entry may lie beyond limit.

    In the flat array, |b| in [0, a] puts the forms of a at 2ac - q_b for
    c >= a, q_b = ceil(b^2 / 2): one progression of stride 2a per |b|, of
    weight 2 (for +-b) or 1 (b = 0 or |b| = a), and 1 at c = a, where only
    b >= 0 is reduced. From 2a^2 on every progression has started, so the
    whole contribution of a there is one periodic row of 2a entries added
    over a 2-D view. Below 2a^2 the starts spread over about a/4 rows; that
    staircase is accumulated row by row, its temporaries bounded by a.
    """
    import numpy as np

    rows = limit // 4 + 1
    # each a adds at most 2a to an entry, so a count stays below limit/3 + sqrt(limit)
    flat = np.zeros(2 * rows, dtype=np.int32)
    size = len(flat)
    amax = isqrt(limit // 3)
    b = np.arange(amax + 1, dtype=np.int64)
    q = (b * b + 1) // 2
    for a in range(1, amax + 1):
        period, square = 2 * a, 2 * a * a
        start = square - q[: a + 1]  # descending: |b| = a starts first
        w = np.full(a + 1, 2, dtype=np.int32)
        w[[0, a]] = 1
        # 3a^2 <= limit puts the earliest start, 1.5a^2, inside the array
        base = int(start[a]) // period * period
        stair = np.zeros(square + period - base, dtype=np.int32)
        at = start - base
        stair[at] = w
        steps = stair.reshape(-1, period)
        for r in range(1, len(steps)):
            steps[r] += steps[r - 1]
        stair[at] -= w - 1  # at c = a only b >= 0 is reduced
        top = min(square, size)
        flat[base:top] += stair[: top - base]
        if square >= size:
            continue
        row = np.tile(steps[-1], max(1, _FORM_ROW_ENTRIES // period))
        width = len(row)
        end = square + (size - square) // width * width
        view = flat[square:end].reshape(-1, width)
        np.add(view, row, out=view)
        flat[end:] += row[: size - end]
    return flat.reshape(rows, 2)
