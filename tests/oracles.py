"""Independent oracles used by the test suite.

Everything here re-derives expected values by brute force (bisection,
exhaustive sweeps, finite differences, dumb enumeration) and never calls
into the code paths it is checking.
"""

from __future__ import annotations

import cmath
import math
from math import gcd, isqrt

from lgw.errors import TermLimitExceeded, ZeroLogUnit
from lgw.fields import (
    class_number,
    fundamental_discriminants,
    fundamental_unit,
    radicand_of_discriminant,
    roots_of_unity,
)
from lgw.solver import Case, Pairing, UnitInput, alpha_complex_case, alpha_real_case
from lgw.survey import CSV_COLUMNS


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; assumes one sign change on [lo, hi]."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def w_principal_real(x: float) -> float:
    """W_0(x) for x >= -1/e by bisection of w*exp(w) - x."""
    hi = 1.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    return bisect(lambda w: w * math.exp(w) - x, -1.0, hi)


def w_minus1_real(x: float) -> float:
    """W_-1(x) for -1/e <= x < 0 by bisection on (-inf, -1]."""
    lo = -2.0
    while lo * math.exp(lo) < x:  # w*e^w decreases toward -1/e on (-inf, -1]
        lo *= 2.0
    return bisect(lambda w: w * math.exp(w) - x, lo, -1.0)


def count_real_roots_sign_changes(f, lo: float, hi: float, n: int = 20000) -> int:
    """Sign changes of f on a uniform grid; crude real-root counter."""
    step = (hi - lo) / n
    prev = f(lo)
    changes = 0
    for i in range(1, n + 1):
        cur = f(lo + i * step)
        if prev == 0.0:
            prev = cur
            continue
        if (prev < 0.0) != (cur < 0.0):
            changes += 1
        prev = cur
    return changes


def pell_minimal_unit(d: int, y_cap: int) -> tuple[int, int, int] | None:
    """Smallest-y solution of the Pell equation for Q(sqrt(d)), exhaustively.

    Returns (x, y, norm) in half-integral coordinates (x^2 - d*y^2 = 4*norm)
    for d = 1 mod 4, integral coordinates (x^2 - d*y^2 = norm) otherwise;
    None if no solution has y <= y_cap.
    """
    half = d % 4 == 1
    y = 1
    while y <= y_cap:
        t = d * y * y
        # norm -1 first: for equal y the smaller x gives the smaller unit
        for delta in (-4, 4) if half else (-1, 1):
            s = t + delta
            r = isqrt(s)
            if r * r == s:
                return r, y, 1 if delta > 0 else -1
        y += 1
    return None


# The step cap of lgw.fields._CF_STEP_LIMIT.
_CF_STEP_LIMIT = 10_000_000


def cf_unit_full_period(d: int) -> tuple[int, int, int]:
    """Continued-fraction sweep; returns (x, y, norm) with x^2 - d*y^2 = 4*norm.

    Expands sqrt(d) for d = 2,3 mod 4 and (1+sqrt(d))/2 for d = 1 mod 4,
    reading the fundamental solution off the convergent just before the
    period closes. The returned pair is normalized to the half-integral
    coordinate system (so x = y = 0 mod 2 encodes an integral unit). The
    walk over the whole period that lgw used before both of its continued
    fractions stopped at the middle.
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


def log_half_sum(x: int, y: int, d: int, halves: int) -> float:
    """log((x + y*sqrt(d)) / 2^halves) for big positive integers x, y: the
    regulator formula lgw used while it finished one unit per call, term
    for term, so a regulator built any other way must equal it bit for bit."""
    lx = math.log(x)
    ly = 0.5 * math.log(d) + math.log(y)
    hi, lo = (lx, ly) if lx >= ly else (ly, lx)
    return hi + math.log1p(math.exp(lo - hi)) - halves * math.log(2.0)


def unit_full_period(d: int) -> tuple[int, int, bool, int, float]:
    """(x, y, half_integral, norm, regulator) of the fundamental unit of
    Q(sqrt(d)), d > 1 squarefree: cf_unit_full_period's pair, halved to
    integral coordinates when both are even, with the Pell relation checked
    and the regulator by log_half_sum."""
    x, y, norm = cf_unit_full_period(d)
    half = x % 2 == 1 or y % 2 == 1
    if not half:
        x, y = x // 2, y // 2
    assert x * x - d * y * y == (4 * norm if half else norm)
    return x, y, half, norm, log_half_sum(x, y, d, 1 if half else 0)


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol via Euler's criterion; p an odd prime."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def class_number_prime_real(D: int) -> float:
    """h of Q(sqrt(D)) for a prime D = 1 mod 4 below 3*10^6, as the quotient
    of the analytic class number formula, -sum chi(a) log sin(pi a/D) / (2R)
    over 0 < a < D. chi(a) is the Legendre symbol (a|D), a^((D-1)/2) mod D by
    square-and-multiply over an int64 array (every product stays below 10^13),
    and R the regulator from unit_full_period."""
    import numpy as np

    assert D % 4 == 1 and D < 3 * 10**6
    a = np.arange(1, D, dtype=np.int64)
    power, base, e = np.ones_like(a), a.copy(), (D - 1) // 2
    while e:
        if e & 1:
            power = power * base % D
        base = base * base % D
        e >>= 1
    assert np.all((power == 1) | (power == D - 1))  # Euler's criterion holds for a prime D
    chi = np.where(power == 1, 1.0, -1.0)
    return -float(np.sum(chi * np.log(np.sin(np.pi * a / D)))) / (2 * unit_full_period(D)[4])


def reduced_definite_forms_brute(D: int, bound: int | None = None) -> set[tuple[int, int, int]]:
    """All reduced primitive forms of discriminant D < 0 by triple loops."""
    assert D < 0
    if bound is None:
        bound = isqrt(-D) + 2
    out = set()
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if not (-a < b <= a <= c):
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.add((a, b, c))
    return out


def reduced_definite_form_counts_brute(limit: int) -> list[int]:
    """counts[n] = reduced forms of discriminant -n, n <= limit, imprimitive
    ones included, by a loop over every triple (a, b, c)."""
    counts = [0] * (limit + 1)
    for a in range(1, isqrt(limit // 3) + 1):
        for b in range(-a + 1, a + 1):
            c = a
            while 4 * a * c - b * b <= limit:
                if b >= 0 or a != c:
                    counts[4 * a * c - b * b] += 1
                c += 1
    return counts


def reduced_definite_form_counts_loop(limit: int):
    """counts[n] = reduced forms of discriminant -n, n <= limit, as int64: one
    strided numpy add per (a, |b|) over c >= a, weight 2 for +-b, and -1 at
    c = a where only b >= 0 is reduced. The sieve lgw used before the
    residue-class one."""
    import numpy as np

    counts = np.zeros(limit + 1, dtype=np.int64)
    for a in range(1, isqrt(limit // 3) + 1):
        four_a = 4 * a
        for b in range(0, a + 1):
            start = four_a * a - b * b  # |D| at c = a
            if start > limit:
                continue
            n = (limit + b * b) // four_a - a + 1
            weight = 1 if (b == 0 or b == a) else 2
            counts[start : start + (n - 1) * four_a + 1 : four_a] += weight
            if weight == 2:
                counts[start] -= 1
    return counts


def class_numbers_imaginary_batch(limit: int):
    """counts[n] = number of reduced forms of discriminant -n, n <= limit.

    Not an oracle: the int64 array of limit + 1 entries that lgw's form
    sieve (lgw.fields._imaginary_form_counts) gives by its two residue
    classes, for the tests to compare with the loops above. Forms exist only
    at n = 0, 3 mod 4, so every other entry is 0. Imprimitive forms are
    counted too; they cannot occur at a fundamental -n, so entries there are
    exact class numbers.
    """
    import numpy as np

    from lgw.fields import _imaginary_form_counts

    counts = np.zeros(limit + 1, dtype=np.int64)
    by_class = _imaginary_form_counts(limit)
    counts[0::4] = by_class[:, 0]
    counts[3::4] = by_class[: len(counts[3::4]), 1]
    return counts


def _reduced_indefinite(D: int, a: int, b: int) -> bool:
    # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, squared out
    # exactly for non-square D > 0
    two_a = 2 * abs(a)
    return 0 < b and b * b < D < (two_a + b) ** 2 and (two_a <= b or (two_a - b) ** 2 < D)


def reduced_indefinite_forms_brute(D: int) -> set[tuple[int, int, int]]:
    """All reduced primitive forms of non-square discriminant D > 0 by loops."""
    assert D > 0 and isqrt(D) ** 2 != D
    bound = isqrt(D) + 1
    out = set()
    for a in range(-bound, bound + 1):
        for b in range(1, bound + 1):
            if a == 0 or (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if _reduced_indefinite(D, a, b) and gcd(gcd(a, b), c) == 1:
                out.add((a, b, c))
    return out


def narrow_class_number_brute(D: int) -> int:
    """Cycles of the reduced forms of D under the right neighbour (a, b, c) ->
    (c, b', c'): b' = -b mod 2|c|, and the unique b' with that form reduced,
    found by a loop over b'."""
    forms = reduced_indefinite_forms_brute(D)
    seen: set[tuple[int, int, int]] = set()
    cycles = 0
    for f in forms:
        if f in seen:
            continue
        cycles += 1
        while f not in seen:
            seen.add(f)
            _, b, c = f
            (f,) = [
                (c, b2, (b2 * b2 - D) // (4 * c))
                for b2 in range(1, isqrt(D) + 1)
                if (b + b2) % (2 * abs(c)) == 0 and _reduced_indefinite(D, c, b2)
            ]
    return cycles


def real_case_residuals(L: float, alpha1: complex, alpha2: complex) -> tuple[float, float, float, float]:
    """(defining, split 1, split 2, sum) residuals of the real case at the
    split roots alpha1, alpha2 of log(eps) = L > 0, alpha = alpha1 + alpha2,
    each from the complex exponentials the equations name, with no use of
    conjugate symmetry:

        |alpha - cos(2*pi*alpha)*L|, |alpha1 - L*exp(2*pi*i*alpha1)|,
        |alpha2 - L*exp(-2*pi*i*alpha2)|,
        |2*alpha - L*exp(2*pi*i*alpha) - L*exp(-2*pi*i*alpha)|.

    Where one exp overflows (a tiny L), all four take each L*exp(x) as
    exp(x + log L), and cos(2*pi*alpha)*L as the mean of the last two."""
    two_pi_i = 2j * math.pi
    alpha = alpha1 + alpha2
    try:
        return (
            abs(alpha - cmath.cos(2.0 * math.pi * alpha) * L),
            abs(alpha1 - L * cmath.exp(two_pi_i * alpha1)),
            abs(alpha2 - L * cmath.exp(-two_pi_i * alpha2)),
            abs(2.0 * alpha - L * cmath.exp(two_pi_i * alpha) - L * cmath.exp(-two_pi_i * alpha)),
        )
    except OverflowError:
        x, log_L = two_pi_i * alpha, cmath.log(L)
        p1, p2, p, q = (cmath.exp(y + log_L) for y in (two_pi_i * alpha1, -two_pi_i * alpha2, x, -x))
        return abs(alpha - (p + q) / 2), abs(alpha1 - p1), abs(alpha2 - p2), abs(2.0 * alpha - p - q)


def _distance(a: complex, b: complex) -> float:
    try:
        return abs(a - b)
    except OverflowError:  # finite parts whose modulus overflows
        return math.inf


def distinct_stats_pairwise(values, tol: float) -> tuple[int, float | None]:
    """Greedy input-order representatives within tol, and the least pairwise
    distance between them (None for fewer than two), over all pairs; a
    least distance beyond the float range raises ValueError."""
    reps: list[complex] = []
    for v in values:
        if all(_distance(v, r) > tol for r in reps):
            reps.append(v)
    if len(reps) < 2:
        return len(reps), None
    least = min(_distance(a, b) for i, a in enumerate(reps) for b in reps[i + 1 :])
    if least == math.inf:
        raise ValueError("the least distance exceeds the float range")
    return len(reps), least


def form_distance_sum(D: int) -> float:
    """The distance sum of a positive non-square D form by form: over the
    reduced forms (a, b, -m), a, m > 0, D = b^2 + 4am and |a - m| < b, of the
    distance log((b + sqrt(D)) / (2m)) of each one's rho step. The a of
    each b are the divisors of (D - b^2)/4 strictly between (sqrt(D) - b)/2
    and (sqrt(D) + b)/2, found by trial division, and no form is paired
    with its mirror (m, b, a). Divided by the regulator, it is the wide h."""
    import numpy as np

    root, s, total = math.sqrt(D), isqrt(D), 0.0
    for b in range(2 - D % 2, s + 1, 2):  # b = D mod 2, b >= 1
        n = (D - b * b) // 4
        a = np.arange(max((s - b) // 2, 1), (s + b) // 2 + 1)
        a = a[n % a == 0]
        m = n // a
        total += float(np.log((b + root) / (2 * m[np.abs(a - m) < b])).sum())
    return total


def real_class_numbers_cycles(Ds):
    """(h+, h) of an ascending int64 array of positive fundamental
    discriminants, as int64, by labelling the cycles of rho on the reduced
    forms. The sieve lgw used before the distance sums.

    The triples (a, b, m) of the reduced forms (a, b, -m), D = b^2 + 4am and
    |a - m| < b, are enumerated in windows of D of about 2^15 forms; rho
    (a, b, m) -> (m, r, m') is applied to all of them, each image is found by
    a sorted (D, a, b) key, and cycles are labelled by pointer doubling (each
    triple takes the least index on its cycle). h is the number of cycles;
    a cycle of even length is a form cycle and its mirror, so it counts
    twice in h+.
    """
    import numpy as np

    h_plus, h = np.empty(len(Ds), dtype=np.int64), np.empty(len(Ds), dtype=np.int64)
    i = 0
    while i < len(Ds):
        # there are about 0.23 * X^1.5 triples with D <= X, all D counted
        hi = int((float(Ds[i]) ** 1.5 + (1 << 15) / 0.23) ** (2.0 / 3.0))
        j = max(int(np.searchsorted(Ds, hi, side="right")), i + 1)
        h_plus[i:j], h[i:j] = _real_class_numbers_window(Ds[i:j])
        i = j
    return h_plus, h


def _ranges(lo, hi):
    """(i, v) for each integer v in [lo[i], hi[i]], i ascending."""
    import numpy as np

    n = np.maximum(hi - lo + 1, 0)
    i = np.repeat(np.arange(len(n)), n)
    return i, np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(len(i))


def _real_class_numbers_window(Ds):
    import numpy as np

    lo, hi = int(Ds[0]), int(Ds[-1])
    member = np.zeros(hi - lo + 1, dtype=bool)
    member[Ds - lo] = True
    # b < sqrt(D) and sqrt(D) - b < 2a < sqrt(D) + b bound the (a, b) pairs
    s_lo, s_hi = isqrt(lo), isqrt(hi)
    b = np.arange(1, s_hi + 1, dtype=np.int64)
    a_lo = np.maximum((s_lo - b) // 2, 1)
    a_hi = (s_hi + b) // 2
    ib, a = _ranges(a_lo, a_hi)
    bb = b[ib]
    sq, step = bb * bb, 4 * a
    m_lo = np.maximum(np.maximum(a - bb + 1, 1), np.ceil((lo - sq) / step).astype(np.int64))
    m_hi = np.minimum(a + bb - 1, ((hi - sq) / step).astype(np.int64))
    ip, m = _ranges(m_lo, m_hi)
    D = sq[ip] + step[ip] * m
    keep = np.flatnonzero(member[D - lo])
    a, b, m, D = a[ip[keep]], bb[ip[keep]], m[keep], D[keep]
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
    h = np.bincount(D[head] - lo, minlength=n)[Ds - lo]
    return h + np.bincount(D[even] - lo, minlength=n)[Ds - lo], h


# -- scan records from the point API ---------------------------------------------------
#
# A scan's records rebuilt one field at a time from the public point API:
# fundamental_discriminants, class_number, radicand_of_discriminant,
# fundamental_unit, roots_of_unity and the two alpha cases. This checks the
# scan's sieves, columns, record tuples and writers against the per-field
# functions, which their own tests check against the brute-force oracles
# above.

# Each torsion unit by the label a scan's records give it.
_HALF_RT3 = math.sqrt(3.0) / 2.0
TORSION_UNIT_LABELS = {
    "1": 1 + 0j, "-1": -1 + 0j, "i": 1j, "-i": -1j,
    "(1+i*sqrt(3))/2": complex(0.5, _HALF_RT3), "(-1+i*sqrt(3))/2": complex(-0.5, _HALF_RT3),
    "(-1-i*sqrt(3))/2": complex(-0.5, -_HALF_RT3), "(1-i*sqrt(3))/2": complex(0.5, -_HALF_RT3),
}

# Roots closer than this count as one in a scan's distinctness statistics.
SCAN_DISTINCT_TOL = 1e-9


def _scan_record(D, d, h, log_branch, unit=None, norm=None, regulator=None, report=None) -> dict:
    root = (None,) * 7 if report is None else (
        report.alpha.real, report.alpha.imag, report.residual_defining, report.residual_split_1,
        report.residual_split_2, report.residual_sum_equation, report.branch,
    )
    return dict(zip(CSV_COLUMNS, (D, d, h, unit, norm, regulator, *root, log_branch)))


def _scan_object(lo: int, hi: int, records: list[dict], units: set) -> dict:
    """The JSON object of a scan of [lo, hi] with these records, whose h = 1
    fields have these distinct units."""
    fields = {r["D"]: r["h"] for r in records}
    n_alpha, separation = distinct_stats_pairwise(
        [complex(r["alpha_re"], r["alpha_im"]) for r in records if r["alpha_re"] is not None],
        SCAN_DISTINCT_TOL,
    )
    return {
        "range": [lo, hi],
        "count_h1": sum(h == 1 for h in fields.values()),
        "distinct_alpha_count": n_alpha,
        "min_alpha_separation": separation,
        "distinct_unit_count": len(units),
        "rows": records,
    }


def imaginary_scan_oracle(limit: int, branch: int = 0, log_branch: int = 0) -> dict:
    """What summary_to_json(scan_imaginary(limit, ...)) decodes to: one record
    per field with D in [-limit, -3], |D| ascending, and for an h = 1 field
    one per torsion unit, with its root unless its log is zero."""
    records, units = [], set()
    for D in reversed(fundamental_discriminants(-limit, -3)):
        h, d = class_number(D), radicand_of_discriminant(D)
        if h != 1:
            records.append(_scan_record(D, d, h, log_branch))
            continue
        for eps in roots_of_unity(D).elements:
            (label,) = [k for k, v in TORSION_UNIT_LABELS.items() if abs(v - eps) < 1e-12]
            try:
                report = alpha_complex_case(UnitInput.complex_unit(eps, log_branch), branch)
            except ZeroLogUnit:
                report = None
            records.append(_scan_record(D, d, 1, log_branch, label, report=report))
            units.add(label)
    return _scan_object(-limit, -3, records, units)


def real_scan_oracle(limit: int, branch: int = 0, pairing="conjugate-branch", unit_powers: int = 1,
                     by_radicand: bool = False) -> dict:
    """What summary_to_json(scan_real(limit, ...)) decodes to: one record per
    field with D in [5, limit] (radicand d <= limit by_radicand), D ascending,
    each with its fundamental unit, and for an h = 1 field one per power n of
    the unit, with the root of log eps^n = n*R."""
    pairing = Pairing(pairing)
    records, units = [], set()
    for D in fundamental_discriminants(5, 4 * limit if by_radicand else limit):
        d = radicand_of_discriminant(D)
        if d > limit:
            continue
        h, unit = class_number(D), fundamental_unit(d)
        label = unit.as_string()
        if h == 1:
            units.add(label)
        if h != 1 or not unit_powers:
            records.append(_scan_record(D, d, h, 0, label, unit.norm, unit.regulator))
        for n in range(1, unit_powers + 1) if h == 1 else ():
            L = n * unit.regulator
            report = alpha_real_case(UnitInput.from_log(L, Case.REAL), branch, pairing)
            records.append(_scan_record(D, d, 1, 0, label if n == 1 else f"({label})^{n}", unit.norm**n, L,
                                        report))
    return _scan_object(5, limit, records, units)
