"""Exact arithmetic for quadratic fields.

Everything here is integer arithmetic: fundamental discriminants (of a
range, by radicand too, from one byte-mask sieve; of one D by is_squarefree,
which trial-divides up to the cube root), Dirichlet signature/unit-rank
bookkeeping, torsion units (one table of label, value and arg for
roots_of_unity, the scan's labels and the table's logs), fundamental units
by the continued-fraction expansion of sqrt(d) or (1+sqrt(d))/2, and class
numbers two independent ways (reduced binary quadratic forms, and the finite
Dirichlet class-number formula through the Kronecker symbol).

Class numbers for positive discriminants are the ordinary (wide) h by
default, and the narrow h+ on request. Both come from Shanks' distances
(_real_class_numbers), for a single D and for a whole real scan alike: one
numpy sieve enumerates the reduced forms (a, b, -m) with D = b^2 + 4am,
a, m > 0 and |a - m| < b, sums the distances log((b + sqrt(D))/(2m)) of
their cycle steps per D, and divides by the regulator R of the fundamental
unit: each cycle of reduced forms, up to sign, has total distance R, so the
quotient is h. h+ is h when the unit has norm -1 and 2h otherwise. R and
the norm come from the batched units of the radicands (_unit_columns), for
one D as for a scan. The sieve takes D up to _MAX_REAL_D = 10^8.

Fundamental units come from the continued fraction of sqrt(d) or
(1+sqrt(d))/2, run to the middle of its palindromic period and finished by
one set of formulas, one loop over the rows (_units_from_middle): one d at
a time in Python ints (_cf_unit, behind fundamental_unit), or batched over
the radicands of every positive D whose class number is asked for
(_unit_columns). The batch runs in a fixed set of numpy lanes, each of
which takes the next radicand as soon as its row reaches the middle; the
convergents stay in int64, in pieces multiplied into Python ints as they
grow, all rows that pass the int64 bound at a step at once.

Negative D go down to -_MAX_IMAG_D = -10^7. class_number(D < 0) counts the
reduced definite forms of one D in a walk over b, one divisor count per b,
in Python ints; an imaginary scan reads its class numbers
(_imaginary_class_numbers) off the counts of every -n >= -limit at once
(_imaginary_form_counts). There n = 4ac - b^2 is 0 or 3 mod 4 by the
parity of b, so the counts live in two int16 residue classes of about
limit/4 entries, where each a adds progressions of stride a: one staircase
of about a/4 rows, then one periodic row of the a's whole pattern added
over a 2-D view.

numpy is imported inside the sieves, the batched units and
class_number(D > 0), on first use: single units, forms of negative D and
the analytic formula run without it, and so do the CLI's point commands,
all but `classno` of a positive D.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import isqrt
from typing import Iterator, NamedTuple

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
]


# Largest |n| is_squarefree takes, set by time: its worst case is a prime,
# about n^(1/3) / 2 divisions, 0.13 s at 10^18 + 3 and 0.7-1.1 s at the
# prime 10^21 - 101 on a 2-vCPU VM.
_MAX_SQUAREFREE = 10**21


def is_squarefree(n: int) -> bool:
    """Whether no square of a prime divides n (0 is not squarefree): trial
    division by q = 2 and the odd q while q^3 is at most what is left of n,
    each divided out once (if q still divides, q^2 did). The rest then has at
    most two prime factors, so it is squarefree unless a square. |n| above
    _MAX_SQUAREFREE (10^21) raises TermLimitExceeded before any division."""
    n, q = abs(n), 2
    if n > _MAX_SQUAREFREE:
        raise TermLimitExceeded(f"|n| = {n} exceeds {_MAX_SQUAREFREE}, the largest squarefree test supported")
    while q * q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return False
        q += 2 if q > 2 else 1
    return n == 1 or isqrt(n) ** 2 != n


def discriminant_of_radicand(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)) for squarefree d not in {0,1}."""
    if d in (0, 1):
        raise DegenerateD(f"d={d} does not define a quadratic field")
    if not is_squarefree(d):
        raise NotSquarefree(f"d={d} has a square factor")
    return _discriminant_rule(d)


def _discriminant_rule(d: int) -> int:
    """The discriminant a squarefree radicand d gives, unchecked."""
    return d if d % 4 == 1 else 4 * d


def _sized_discriminant_of_radicand(d: int) -> int:
    """discriminant_of_radicand(d) for a class number: TermLimitExceeded
    first if the D it would give lies past _check_size's ceilings, so a d
    whose class number is out of reach costs no squarefree test."""
    _check_size(_discriminant_rule(d))
    return discriminant_of_radicand(d)


def radicand_of_discriminant(D: int) -> int:
    """Squarefree radicand d of the field with fundamental discriminant D."""
    _check_fundamental(D)
    return D if D % 4 == 1 else D // 4


def is_fundamental_discriminant(D: int) -> bool:
    # D = 1 mod 4 squarefree, or D = 4m with m = 2 or 3 mod 4 squarefree
    if D % 4 == 1:
        return D != 1 and is_squarefree(D)
    return D % 16 in (8, 12) and is_squarefree(D // 4)


def _check_fundamental(D: int) -> None:
    if D > 0 and isqrt(D) ** 2 == D:
        raise SquareDiscriminant(f"D={D} is a perfect square")
    if not is_fundamental_discriminant(D):
        raise NotFundamental(f"D={D} is not a fundamental discriminant")


def fundamental_discriminants(lo: int, hi: int) -> list[int]:
    """All fundamental discriminants D with lo <= D <= hi, ascending.

    An end beyond the ceiling of its sign (_check_size) raises
    TermLimitExceeded before any work: the sieve holds a byte per integer of
    the range.
    """
    _check_size(lo)
    _check_size(hi)
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
    """Ascending n in [lo, hi], 2 <= lo, with -n (negative) or n fundamental,
    as int64.

    The answer is one bool mask over [lo, hi]: the squarefree mask, kept on
    the odd class n = 3 (negative) or 1 mod 4, where D = -n or n is 1 mod 4,
    and on the class n = 4m, where D = 4m needs m squarefree and 2 or 3 mod 4
    (D = -4m: 1 or 2 mod 4). That class is copied from a squarefree mask of
    m, one stride-16 slice per allowed residue of m. No array as long as the
    range is int64; the result is the only one.
    """
    import numpy as np

    if hi < lo:
        return np.empty(0, dtype=np.int64)
    m_lo, m_hi = -(-lo // 4), hi // 4
    keep = _squarefree_mask(lo, hi)  # already False at every n = 0 mod 4
    odd = 3 if negative else 1
    for r in (2, 4 - odd):
        keep[(r - lo) % 4 :: 4] = False
    if m_lo <= m_hi:
        sf_m = _squarefree_mask(m_lo, m_hi)
        for r in (1, 2) if negative else (2, 3):
            j = (r - m_lo) % 4  # the first m = r mod 4
            keep[4 * (m_lo + j) - lo :: 16] = sf_m[j::4]
        del sf_m  # not held beside the result
    n = np.flatnonzero(keep).astype(np.int64, copy=False)
    n += lo
    return n


def _fundamental_discriminant_array(lo: int, hi: int) -> np.ndarray:
    """Fundamental discriminants D with lo <= D <= hi, ascending, as int64.

    Sieves squarefree parts over the range with byte masks instead of
    trial-dividing each D (_fundamental_magnitudes, once per sign); agrees
    with is_fundamental_discriminant term by term. A range of one sign
    returns its sieve's own array, for D < 0 negated in place and read
    backwards (a reversed view), so that array is the only int64 one made.
    """
    import numpy as np

    neg = _fundamental_magnitudes(max(-hi, 2), -lo, negative=True)
    pos = _fundamental_magnitudes(max(lo, 2), hi, negative=False)
    if not len(pos):
        return np.negative(neg, out=neg)[::-1]
    if not len(neg):
        return pos
    return np.concatenate((-neg[::-1], pos))


def _radicand_array(D: np.ndarray) -> np.ndarray:
    """The radicand of each fundamental discriminant in D: D, or D / 4 where
    4 divides D, worked out in place in one array of D's dtype."""
    import numpy as np

    d = np.bitwise_and(D, 3)
    fours = d == 0
    np.copyto(d, D)
    np.right_shift(d, 2, out=d, where=fours)  # D >> 2 is D / 4 where 4 divides D
    return d


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


_HALF_RT3 = math.sqrt(3.0) / 2.0

# The torsion units by the order n of their group, as (label, value, arg) with
# arg in (-pi, pi]: the label names the unit in a scan's records, and the arg
# gives the correspondence table its log.
_TORSION_UNITS = {
    2: (("1", 1 + 0j, 0.0), ("-1", -1 + 0j, math.pi)),
    4: (("1", 1 + 0j, 0.0), ("i", 1j, math.pi / 2), ("-1", -1 + 0j, math.pi), ("-i", -1j, -math.pi / 2)),
    6: (
        ("1", 1 + 0j, 0.0),
        ("(1+i*sqrt(3))/2", complex(0.5, _HALF_RT3), math.pi / 3),
        ("(-1+i*sqrt(3))/2", complex(-0.5, _HALF_RT3), 2 * math.pi / 3),
        ("-1", -1 + 0j, math.pi),
        ("(-1-i*sqrt(3))/2", complex(-0.5, -_HALF_RT3), -2 * math.pi / 3),
        ("(1-i*sqrt(3))/2", complex(0.5, -_HALF_RT3), -math.pi / 3),
    ),
}


def roots_of_unity(D: int) -> RootsOfUnity:
    """Torsion unit group of the imaginary quadratic field of discriminant D.

    n = 4 for D = -4, n = 6 for D = -3, n = 2 otherwise.
    """
    if D >= 0:
        raise NotImaginary(f"D={D} is not an imaginary discriminant")
    _check_fundamental(D)
    n = 6 if D == -3 else 4 if D == -4 else 2
    return RootsOfUnity(n=n, elements=tuple(value for _, value, _ in _TORSION_UNITS[n]))


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
        """The unit as text. TermLimitExceeded when x has more digits than
        sys.get_int_max_str_digits() lets an int be written in."""
        try:
            return _unit_label(self.x, self.y, self.d, self.half_integral)
        except ValueError:
            digits = int(self.x.bit_length() * math.log10(2)) + 1
            raise TermLimitExceeded(
                f"the unit of d={self.d} has about {digits} digits, more than the "
                f"{sys.get_int_max_str_digits()} an int may be written in"
            ) from None


def _unit_label(x: int, y: int, d: int, half_integral: bool) -> str:
    """The unit (x + y*sqrt(d)) / 2 (half_integral) or x + y*sqrt(d) as text."""
    return f"({x}+{y}*sqrt({d}))/2" if half_integral else f"{x}+{y}*sqrt({d})"


# Step cap on the continued-fraction sweep of one radicand: a radicand whose
# period is longer fails with a domain error instead of running on.
_CF_STEP_LIMIT = 10_000_000


def _cf_unit(d: int) -> tuple[bool, int, int, int, int, int, int]:
    """The continued fraction of sqrt(d) for d = 2,3 mod 4 and of
    (1+sqrt(d))/2 for d = 1 mod 4, in Python ints, to the middle of its
    period: (odd, a_m, q, q_, P, Q, Q_) as _cf_units gives it for many d,
    which _units_from_middle turns into the unit."""
    s = isqrt(d)
    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    a = (P + s) // Q
    q, q_ = 1, 0  # the denominators of the convergents at the current step and the one before
    for _ in range(_CF_STEP_LIMIT):
        P_, Q_, a_ = P, Q, a
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == Q_ or P == P_:
            return Q == Q_, a_, q, q_, P, Q, Q_
        a = (P + s) // Q
        q, q_ = a * q + q_, q
    raise TermLimitExceeded(f"continued fraction of d={d} did not close within {_CF_STEP_LIMIT} steps")


def fundamental_unit(d: int) -> FundamentalUnit:
    """Fundamental unit of the ring of integers of Q(sqrt(d)), d squarefree > 1.

    d above _MAX_REAL_D (10^8) raises TermLimitExceeded before any work: the
    continued fraction grows with sqrt(d).
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
    columns = _units_from_middle([d], *([v] for v in _cf_unit(d)))
    return FundamentalUnit(d, *(column[0] for column in columns))


class _UnitColumns(NamedTuple):
    """The unit fields x, y, half_integral, norm and regulator of many
    radicands, one list per field, in the order of the radicands."""

    x: list[int]
    y: list[int]
    half_integral: list[bool]
    norm: list[int]
    regulator: list[float]


# A batched continued fraction holds a product of the matrices of its
# partial quotients in int64 while its entries stay at most this over 2^b,
# b the bit length of 2*isqrt(d) for the largest d, which bounds every
# partial quotient: one more step then stays at most 2^62. b = 15 for
# d <= _MAX_REAL_D.
_CF_INT64_BOUND = 1 << 62

# Lanes of the batched continued fraction, the radicands it expands at once,
# and the rows of the runs it hands to the finish.
_CF_BATCH_ROWS = 4096


def _unit_columns(d: np.ndarray) -> _UnitColumns:
    """The fields of _unit_of_squarefree(d) for every d of an int64 array of
    squarefree radicands 1 < d <= _MAX_REAL_D: the middles of one batched
    continued fraction over all of them (_cf_units), finished a run of
    _CF_BATCH_ROWS rows at a time (_units_from_middle), so the middles of
    only one run are held as Python ints beside the columns."""
    columns = _UnitColumns([], [], [], [], [])
    for i, middles in zip(range(0, len(d), _CF_BATCH_ROWS), _cf_units(d)):
        for column, part in zip(columns, _units_from_middle(d[i : i + _CF_BATCH_ROWS].tolist(), *middles)):
            column += part
    return columns


def _cf_units(d: np.ndarray) -> Iterator[list[list[int]]]:
    """_cf_unit(d) for every d of an int64 array, as the seven columns
    (odd, a_m, q, q_, P, Q, Q_) of each run of _CF_BATCH_ROWS radicands in
    turn.

    Every row runs the continued fraction of _cf_unit to the middle of its
    period. With complete quotients (P_k + sqrt(d))/Q_k and partial
    quotients a_k, the a_1 ... a_{l-1} of a period of length l read the same
    both ways, and the middle shows as Q_{m+1} = Q_m for l = 2m + 1 and as
    P_{m+1} = P_m for l = 2m (Jacobson & Williams, Solving the Pell
    Equation, 2009; Cohen, GTM 138, section 5.7). The denominators q at m
    and q_ at m - 1 of the convergents p/q, with a_m and the complete
    quotients there, then give the unit (_units_from_middle).

    The rows run in _CF_BATCH_ROWS lanes that all advance at once in numpy.
    When a lane's row reaches its middle, its result is written back by the
    row's index and the lane takes the next radicand, so every lane stays
    busy until the radicands run out; then the lanes drain, and the arrays
    shed finished lanes once they are half of them. _CF_STEP_LIMIT caps the
    steps of each row, counted from the step its lane took it.

    The state (P, Q, a) stays below 2*sqrt(d) < 2^15, so float64 holds it,
    and its division exactly. The convergents are the product
    M = [[p, p_], [q, q_]] of the matrices A_k = [[a_k, 1], [1, 0]], in
    int64: once p passes _CF_INT64_BOUND over the largest partial quotient,
    M is multiplied into the row's Python-int product B and starts again
    from the identity, so the convergents are B M. Only the bottom row of B
    is kept, since the unit needs only the q of the convergents. The rows
    that pass the bound at one step are multiplied in together, as one
    product of that row by M over numpy object arrays, and so are the rows
    past it at their middles, a run at a time.
    """
    import numpy as np

    n = len(d)
    s = np.sqrt(d).astype(np.int64)
    s -= s * s > d
    s += (s + 1) * (s + 1) <= d
    d_all, root_all = d.astype(np.float64), s.astype(np.float64)
    P_all = (d % 4 == 1).astype(np.float64)  # sqrt(d) starts at (0, 1), (1 + sqrt(d))/2 at (1, 2)
    Q_all = P_all + 1.0
    a_all = np.floor((P_all + root_all) / Q_all)
    bound = _CF_INT64_BOUND >> int(2 * s.max(initial=0)).bit_length()
    w = min(_CF_BATCH_ROWS, n)
    dd, root, P, Q, a = (v[:w].copy() for v in (d_all, root_all, P_all, Q_all, a_all))
    # p1/q1 the current convergent, p0/q0 the one before: M = [[p1, p0], [q1, q0]].
    # A lane takes a row with M = 1, and its first step makes M = A_0.
    p1, p0, q1, q0 = (np.full(w, v, dtype=np.int64) for v in (1, 0, 0, 1))
    idx, start, live = np.arange(w), np.zeros(w, dtype=np.int64), np.ones(w, dtype=bool)
    n_live, loaded = w, w
    # per radicand, at its middle: odd period, M's q, q_, p, p_, and a_m, P, Q at
    # m + 1 and Q at m
    middle, state = np.zeros((5, n), dtype=np.int64), np.zeros((4, n), dtype=np.int32)
    b = None  # per radicand, the bottom row of B as Python ints, once a row passes the bound
    steps = oldest = 0  # oldest: a lower bound on the start of every live lane
    while n_live:
        ai = a.astype(np.int64)
        p0 += ai * p1
        q0 += ai * q1
        p0, p1, q0, q1 = p1, p0, q1, q0
        over = p1 > bound
        if over.any():
            j = np.flatnonzero(over)
            if b is None:
                b = np.zeros((2, n), dtype=object)
                b[1] = 1
                crossed = np.zeros(n, dtype=bool)
            r = idx[j]
            b[:, r] = _bottom_row(*b[:, r], p1[j], p0[j], q1[j], q0[j])
            crossed[r] = True
            p1[j] = q0[j] = 1
            p0[j] = q1[j] = 0
        steps += 1
        if steps - oldest > _CF_STEP_LIMIT:
            oldest = int(start[live].min())
            if steps - oldest > _CF_STEP_LIMIT:
                i = idx[np.flatnonzero(live & (start == oldest))[0]]
                raise TermLimitExceeded(
                    f"continued fraction of d={int(d[i])} did not close within {_CF_STEP_LIMIT} steps"
                )
        P_, Q_, a_ = P, Q, a
        P = a * Q - P
        Q = (dd - P * P) / Q
        a = np.floor((P + root) / Q)
        odd = Q == Q_
        mid = (odd | (P == P_)) & live  # at the first step, P = P_ only for d = 5, with Q = Q_
        if not mid.any():
            continue
        j = np.flatnonzero(mid)
        i = idx[j]
        middle[:, i] = odd[j], q1[j], q0[j], p1[j], p0[j]
        state[:, i] = a_[j], P[j], Q[j], Q_[j]
        k = min(len(j), n - loaded)
        new, j = j[:k], j[k:]
        if k:  # the next radicands, at their start, with M = 1
            rows = slice(loaded, loaded + k)
            dd[new], root[new], P[new], Q[new], a[new] = (
                v[rows] for v in (d_all, root_all, P_all, Q_all, a_all)
            )
            p1[new] = q0[new] = 1
            p0[new] = q1[new] = 0
            idx[new] = np.arange(loaded, loaded + k)
            start[new] = steps
            loaded += k
        if len(j):  # no radicand left for these lanes
            live[j] = False
            p0[j] = p1[j] = q0[j] = q1[j] = 0  # zeros stay zero, below the bound
            n_live -= len(j)
            if 2 * n_live <= len(live):
                keep = np.flatnonzero(live)
                dd, root, P, Q, a, p0, p1, q0, q1, idx, start, live = (
                    v[keep] for v in (dd, root, P, Q, a, p0, p1, q0, q1, idx, start, live)
                )
    del d_all, root_all, P_all, Q_all, a_all  # not held while the runs are handed out
    for i in range(0, n, _CF_BATCH_ROWS):
        j = min(i + _CF_BATCH_ROWS, n)
        (odd, q, q_), (a_m, P, Q, Q_) = middle[:3, i:j].tolist(), state[:, i:j].tolist()
        if b is not None:  # the q of B M for the rows past the bound
            k = np.flatnonzero(crossed[i:j])
            r = k + i
            _, q1, q0, p1, p0 = middle[:, r]
            for column, values in zip((q, q_), _bottom_row(*b[:, r], p1, p0, q1, q0)):
                for at, v in zip(k.tolist(), values.tolist()):
                    column[at] = v
            b[:, r] = 0
        yield [odd, a_m, q, q_, P, Q, Q_]


def _bottom_row(b10, b11, m00, m01, m10, m11):
    """The bottom row of the 2 x 2 product [[., .], [b10, b11]] [[m00, m01], [m10, m11]]."""
    return b10 * m00 + b11 * m10, b10 * m01 + b11 * m11


# log 2, the log of the halving of a half-integral unit
_LOG_2 = math.log(2.0)


def _units_from_middle(d: list[int], odd: list, a_m: list[int], q: list[int], q_: list[int],
                       P: list[int], Q: list[int], Q_: list[int]) -> _UnitColumns:
    """The unit columns of radicands d from the middles of their continued
    fractions (_cf_unit, _cf_units): for a period l = 2m + 1 (odd) or
    l = 2m, a_m, the denominators q at m and q_ at m - 1 of the
    convergents, and P, Q of the complete quotient at m + 1 and Q_ at m.

    The convergent p/q at l - 1 gives the unit: x + y*sqrt(d) for
    d = 2, 3 mod 4 and (x + y*sqrt(d))/2 for d = 1 mod 4, with
    x = Q_0 p - P_0 q and y = q, halved to integral coordinates when both
    are even; its norm is -1 for an odd period. With
    A_k = [[a_k, 1], [1, 0]], the convergents p_k/q_k are the columns of
    A_0 A_1 ... A_k, and the symmetric period makes A_1 ... A_{l-1} equal to
    N N^T (odd) or N A_m N^T (even), N = A_1 ... A_m resp. A_1 ... A_{m-1}.
    The sqrt(d) parts of w = (p_k w_{k+1} + p_{k-1}) / (q_k w_{k+1} + q_{k-1})
    for w = (P_0 + sqrt(d))/Q_0 give
    Q_0 p_k = (P_{k+1} + P_0) q_k + Q_{k+1} q_{k-1}, which leaves only the q:
    for an odd period (where Q = Q_ and P_m = a_m Q - P),
    x = P (q^2 - q_^2) + 2Q q q_ and y = q^2 + q_^2; for an even one (where
    P = P_m), x = P y + Q q_^2 + Q_ q__^2 and y = q_ (q + q__), with
    q__ = q - a_m q_ at m - 2. The Pell relation is checked exactly on every
    row.

    One loop over the rows, with no call per row, fills x, y, half_integral
    and norm; a second one the regulator log((x + y*sqrt(d)) / 2^half) as
    hi + log1p(exp(lo - hi)) - half*log 2 of lx = log x and
    ly = log(d)/2 + log y, hi the larger, from math's log mapped over the
    columns, so a unit of any size stays finite.
    """
    x, y, half_integral, norm, regulator = columns = _UnitColumns([], [], [], [], [])
    for di, o, a, qm, qm_, Pm, Qm, Qm_ in zip(d, odd, a_m, q, q_, P, Q, Q_):
        if o:
            s, s_ = qm * qm, qm_ * qm_
            xi, yi, n = Pm * (s - s_) + 2 * Qm * qm * qm_, s + s_, -1
        else:
            qm__ = qm - a * qm_  # q at m - 2
            yi = qm_ * (qm + qm__)
            xi, n = Pm * yi + Qm * qm_ * qm_ + Qm_ * qm__ * qm__, 1
        h = di % 4 == 1
        if h and yi % 2 == 0:
            xi, yi, h = xi // 2, yi // 2, False
        # a raise, not an assert, so that python -O keeps the check
        if xi * xi - di * yi * yi != (4 * n if h else n):
            raise AssertionError(di)
        x.append(xi)
        y.append(yi)
        half_integral.append(h)
        norm.append(n)
    exp, log1p = math.exp, math.log1p
    for lx, ld, ly, h in zip(map(math.log, x), map(math.log, d), map(math.log, y), half_integral):
        ly = 0.5 * ld + ly
        hi, lo = (lx, ly) if lx >= ly else (ly, lx)
        r = hi + log1p(exp(lo - hi))
        regulator.append(r - _LOG_2 if h else r)
    return columns


def class_number(D: int, narrow: bool = False) -> int:
    """Class number of the quadratic field with fundamental discriminant D.

    D < 0: count of reduced primitive forms. D > 0: the wide h (default) is
    the sum of the distances of the cycle steps of the reduced forms of D
    over the regulator, and the narrow h+ is h or 2h by the norm of the
    fundamental unit, both by _real_class_numbers as in a real scan.
    Positive D above _MAX_REAL_D (10^8) and negative D below -_MAX_IMAG_D
    (-10^7) raise TermLimitExceeded before any work; one positive D near its
    ceiling takes about 0.4 s, one negative D under 0.05 s.
    """
    h_plus, h = _class_numbers(D)
    return h_plus if narrow else h


def _class_numbers(D: int) -> tuple[int, int]:
    """(h+, h) of the field with fundamental discriminant D, from one run of
    the form count (D < 0, where h+ = h) or of _real_class_numbers (D > 0)."""
    _check_size(D)
    _check_fundamental(D)
    if D < 0:
        # the reduced forms (a, +-b, c) of n = -D = 4ac - b^2 have
        # 0 <= b <= a <= c (Cohen, GTM 138, section 5.3): for each b = n mod 2
        # up to sqrt(n/3), one a per divisor of N = (b^2 + n)/4 in
        # [max(b, 1), sqrt(N)], with c = N/a, and -b reduced too unless b = 0,
        # a = b or a = c. No form of a fundamental D is imprimitive, so there
        # is no gcd test, as in _imaginary_form_counts.
        n, h = -D, 0
        for b in range(n % 2, isqrt(n // 3) + 1, 2):
            N = (b * b + n) // 4
            h += sum(1 if b == 0 or a == b or a * a == N else 2
                     for a in range(max(b, 1), isqrt(N) + 1) if N % a == 0)
        return h, h
    import numpy as np

    h_plus, h, _ = _real_class_numbers(np.array([D], dtype=np.int64))
    return int(h_plus[0]), int(h[0])


# -- class numbers of positive discriminants from distances ----------------------------

# Largest positive discriminant class_number takes, and the largest radicand
# fundamental_unit takes. The distance sieve's (a, b) pairs grow as D, so one
# D near it takes about 0.4 s there; fundamental_unit takes 0.1 s at most
# below it. Time sets it, not precision: the sieve's float64 quotients and
# square roots stay exact far beyond it.
_MAX_REAL_D = 10**8

# Largest |D| of a negative discriminant: an imaginary scan to -limit holds
# its form counts in int16[limit // 4 + 1, 2] (10 MB at 10^7) and does work
# that grows as limit^1.5 (2-3 s of sieve at 10^7). class_number(D < 0) tries
# about 0.07|D| candidate divisors in Python, 0.04 s at this ceiling.
_MAX_IMAG_D = 10**7

# Reduced forms the distance sieve holds at once: it walks the (a, b) pairs
# in blocks of about this many, and the forms of a block of pairs in blocks
# of about this many, so its memory stays flat whatever the range.
_SIEVE_WINDOW_FORMS = 1 << 15

# A distance sum over the regulator must lie this close to its integer h.
_ROUNDING_TOL = 1e-6


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
    return i, np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(len(i))


def _runs(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Bounds (i, j) of the runs sizes[i:j] that cut sizes where its running
    total passes a multiple of _SIEVE_WINDOW_FORMS; none is empty."""
    import numpy as np

    total = np.cumsum(sizes)
    top = int(total[-1]) if len(total) else 0
    cuts = np.searchsorted(total, np.arange(_SIEVE_WINDOW_FORMS, top, _SIEVE_WINDOW_FORMS))
    bounds = [0, *cuts.tolist(), len(sizes)]
    return [(i, j) for i, j in zip(bounds, bounds[1:]) if i < j]


def _real_class_numbers(Ds: np.ndarray) -> tuple[np.ndarray, np.ndarray, _UnitColumns]:
    """Narrow and wide class numbers (h+, h) of an ascending int64 array of
    positive fundamental discriminants, as int64, and the unit columns of
    their radicands: the one path from positive D to class numbers.

    The distance sums come first (_distance_sums), so the sieve's blocks are
    freed before the unit columns are held; the units come from one batched
    continued fraction (_unit_columns), and h from the sums over their
    regulators (_wide_class_numbers). h+ = h where the norm is -1, and 2h
    where it is +1, since the classes of a form and of its negative then
    differ in the narrow sense.
    """
    import numpy as np

    if len(Ds):
        _check_size(int(Ds[-1]))
    distances = _distance_sums(Ds)
    units = _unit_columns(_radicand_array(Ds))
    h = _wide_class_numbers(Ds, distances, np.array(units.regulator, dtype=np.float64))
    return np.where(np.array(units.norm, dtype=np.int64) == -1, h, 2 * h), h, units


def _wide_class_numbers(Ds: np.ndarray, distances: np.ndarray, regulator: np.ndarray
                        ) -> np.ndarray:
    """Wide class numbers h of an ascending int64 array of positive
    fundamental discriminants, as int64, from their distance sums
    (_distance_sums) and the regulator R of each.

    rho: (a, b, c) -> (c, r, (r^2 - D)/(4c)), with r = -b mod 2|c| taken in
    (sqrt(D) - 2|c|, sqrt(D)), on the reduced forms of D, with the sign of
    the leading coefficient forgotten, is a permutation of
    the triples (a, b, m) of _distance_sums. Its cycles are the wide classes
    of forms, and the distances of the steps around each one add up to
    R = log eps, whatever the norm of eps: Shanks' infrastructure (Cohen,
    GTM 138, section 5.8; H. W. Lenstra, "On the calculation of regulators
    and class numbers of quadratic fields", 1982). So h is the distance sum
    of D over R; every quotient must lie within _ROUNDING_TOL of an integer
    h >= 1.
    """
    import numpy as np

    q = distances / regulator
    h = np.rint(q)
    off = np.abs(q - h) >= _ROUNDING_TOL
    # a raise, not an assert, so that python -O keeps the check
    if off.any() or not (h >= 1).all():
        raise AssertionError(
            f"distance sum over the regulator is no class number at D={Ds[off][:5].tolist()}"
        )
    return h.astype(np.int64)


def _distance_sums(Ds: np.ndarray) -> np.ndarray:
    """For each D of an ascending int64 array of positive fundamental
    discriminants, the sum of the distances of the cycle steps of its
    reduced forms, as float64.

    A reduced form with a > 0 is (a, b, -m) with m > 0, D = b^2 + 4am and,
    for non-square D, |a - m| < b (the same condition as
    sqrt(D) - b < 2a < sqrt(D) + b). Both it and its negative (-a, b, m) are
    primitive, because D is fundamental, and rho takes either over the
    distance log((b + sqrt(D)) / (2m)). The triples (a, b, m) of D are
    symmetric in a and m, and since 4am = D - b^2 the distances of (a, b, m)
    and (m, b, a) add up to log((sqrt(D) + b) / (sqrt(D) - b)), which depends
    on D and b alone (Cohen, GTM 138, section 5.8). So the sieve walks
    a <= m only and adds that log for every form; the form a = m is its own
    mirror, and takes half of it off again, once for its (a, b) pair, at
    D = b^2 + 4a^2.

    It walks the (a, b) pairs of the whole range [Ds[0], Ds[-1]] once, in
    blocks of about _SIEVE_WINDOW_FORMS pairs, expands the m range of each
    pair in blocks of about _SIEVE_WINDOW_FORMS forms, keeps the forms whose
    D is in Ds through a bool mask, and adds their distances into one
    float64 array over the range. sqrt(D) - b loses up to about D * 2^-54
    of its value, so a sum over the regulator could move by up to about
    1e-9 of its integer at _MAX_REAL_D; on seeded D there it moved by
    about 1e-14. It takes about 1.9 s of CPU at 10^6 on a 2-vCPU VM, and
    0.4 s for one D near _MAX_REAL_D.
    """
    import numpy as np

    if not len(Ds):
        return np.zeros(0)
    lo, hi = int(Ds[0]), int(Ds[-1])
    member = np.zeros(hi - lo + 1, dtype=bool)
    member[Ds - lo] = True
    total = np.zeros(hi - lo + 1)
    # b < sqrt(D), sqrt(D) - b < 2a and b^2 + 4a^2 <= D bound the (a, b) pairs;
    # the pairs whose form a = m has its D = b^2 + 4a^2 in [lo, hi] are those
    # with a in [a_half, a_hi] (the square roots of integers below 2^53 are
    # floored exactly)
    b = np.arange(1, isqrt(hi) + 1, dtype=np.int64)
    a_lo = np.maximum((isqrt(lo) - b) // 2, 1)
    a_hi = np.sqrt(hi - b * b).astype(np.int64) // 2
    a_half = np.sqrt(np.maximum(lo - 1 - b * b, 0)).astype(np.int64) // 2 + 1
    for i, j in _runs(np.maximum(a_hi - a_half + 1, 0)):
        ib, a = _ranges(a_half[i:j], a_hi[i:j])
        bb = b[i:j][ib]
        D = bb * bb + 4 * a * a
        keep = np.flatnonzero(member[D - lo])
        np.add.at(total, D[keep] - lo, -0.5 * _pair_distance(D[keep], bb[keep]))
    for i, j in _runs(np.maximum(a_hi - a_lo + 1, 0)):
        ib, a = _ranges(a_lo[i:j], a_hi[i:j])
        bb = b[i:j][ib]
        sq, step = bb * bb, 4 * a
        # m in [a, a + b - 1] (reduced, a <= m) with lo <= b^2 + 4am <= hi.
        # The quotients are rounded to the right integers in float64: their
        # terms stay below 2^27, so a fraction is at least 1/(4a) > 2^-17
        # away from an integer. A negative bound, truncated towards zero,
        # still gives an empty range.
        m_lo = np.maximum(a, np.ceil((lo - sq) / step).astype(np.int64))
        m_hi = np.minimum(a + bb - 1, ((hi - sq) / step).astype(np.int64))
        for k, n in _runs(np.maximum(m_hi - m_lo + 1, 0)):
            ip, m = _ranges(m_lo[k:n], m_hi[k:n])
            ip += k
            at = sq[ip] + step[ip] * m
            at -= lo
            keep = np.flatnonzero(member[at])
            at = at[keep]
            np.add.at(total, at, _pair_distance(at + lo, bb[ip[keep]]))
    return total[Ds - lo]


def _pair_distance(D: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log((sqrt(D) + b) / (sqrt(D) - b)): the distances of the forms
    (a, b, m) and (m, b, a) of D together."""
    import numpy as np

    root = np.sqrt(D)
    return np.log((root + b) / (root - b))


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


def class_number_analytic(D: int) -> int:
    """Class number by the finite Dirichlet formula; independent of the forms.

    D < 0: h = w/(2|D|) * |sum_{a<|D|} chi(a)*a| with w roots of unity.
    D > 0: h = -sum_{a<D} chi(a)*log(sin(pi*a/D)) / (2*regulator).
    |D| above _MAX_ANALYTIC_D (10^6) raises TermLimitExceeded before any work.
    """
    if abs(D) > _MAX_ANALYTIC_D:
        raise TermLimitExceeded(
            f"|D| = {abs(D)} exceeds {_MAX_ANALYTIC_D}, the largest the character sum supports"
        )
    _check_fundamental(D)
    if D < 0:
        w = roots_of_unity(D).n
        total = 0
        for a in range(1, -D):
            total += kronecker_symbol(D, a) * a
        h_float = w * abs(total) / (2.0 * abs(D))
    else:
        reg = fundamental_unit(radicand_of_discriminant(D)).regulator
        total_f = 0.0
        for a in range(1, D):
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


# -- form counts for the imaginary scan -----------------------------------------

def _imaginary_class_numbers(D: np.ndarray) -> np.ndarray:
    """Class numbers of an int64 array of negative fundamental discriminants,
    as int64 worked out in place, read off the form counts to the largest |D|."""
    import numpy as np

    h = np.negative(D)
    h >>= 1  # n = -D is 0 or 3 mod 4, at [n >> 2, n & 1] of the counts: n >> 1 in their flat array
    h[:] = _imaginary_form_counts(-int(D.min(initial=0))).reshape(-1)[h]
    return h


# Periodic rows are tiled to about this many entries, so each add over the
# 2-D view runs long contiguous inner loops.
_FORM_ROW_ENTRIES = 4096


def _imaginary_form_counts(limit: int) -> np.ndarray:
    """Reduced forms (a, b, c) of discriminant -n for n <= limit, by the
    residue class of n, as int16 of shape (limit // 4 + 1, 2).

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
    # int16 holds every count, imprimitive forms included, and no partial sum
    # exceeds its final count: the largest is 963 at limit 3*10^5, 1,868 at
    # 10^6 and 6,372 at _MAX_IMAG_D = 10^7.
    flat = np.zeros(2 * rows, dtype=np.int16)
    size = len(flat)
    amax = isqrt(limit // 3)
    b = np.arange(amax + 1, dtype=np.int64)
    q = (b * b + 1) // 2
    for a in range(1, amax + 1):
        period, square = 2 * a, 2 * a * a
        start = square - q[: a + 1]  # descending: |b| = a starts first
        w = np.full(a + 1, 2, dtype=np.int16)
        w[[0, a]] = 1
        # 3a^2 <= limit puts the earliest start, 1.5a^2, inside the array
        base = int(start[a]) // period * period
        stair = np.zeros(square + period - base, dtype=np.int16)
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
