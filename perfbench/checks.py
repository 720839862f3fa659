"""Output checks, run by the harness after the measured child has exited.

Scans must reproduce the sha256 of their stdout pinned in goldens.json when
the benchmark was added, and pass content checks that do not depend on the pin.
Point-eval results are compared with an independent Lambert W: mpmath's
`fp.lambertw` when mpmath is installed, else the unwinding identity
W_k(z) + log W_k(z) = log z + 2*pi*i*k (which cannot check alpha_real).
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import random

from workloads import ALPHA_C, SOLVE, W, W_REAL

HEEGNER = {-3, -4, -7, -8, -11, -19, -43, -67, -163}
RESIDUAL_TOL = 1e-10
# A wrong branch is off by O(1); the program's own accuracy is ~1e-12.
ORACLE_TOL = 1e-8
_TWO_PI = 2.0 * math.pi
_TWO_PI_I = 2j * math.pi

try:
    from mpmath import fp as _fp
except ImportError:  # mpmath is optional; fall back to the identity check
    _fp = None

ORACLE = "mpmath.fp.lambertw" if _fp is not None else "unwinding-identity"

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")) as _f:
    GOLDENS = json.load(_f)


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= ORACLE_TOL * (1.0 + abs(b))


def w_on_branch(k: int, z: complex, w: complex) -> bool:
    """True when w is W_k(z) by the oracle."""
    if _fp is not None:
        return _close(w, complex(_fp.lambertw(z, k)))
    if abs(w * cmath.exp(w) - z) > 1e-9 * (1.0 + abs(z)):
        return False
    if z.imag == 0.0 and z.real < 0.0 and w.imag == 0.0:
        return k == (0 if w.real >= -1.0 else -1)  # the real segment of W_0 / W_-1
    unwound = (w + cmath.log(w) - cmath.log(z)).imag / _TWO_PI
    return round(unwound) == k


def query_ok(kind: str, args: tuple, value: complex) -> bool:
    """True when a point-eval result is the right value on the right branch."""
    if kind in (W, W_REAL):
        k, z = args
        return w_on_branch(k, complex(z), value)
    if kind == SOLVE:
        a, b, c, k = args
        arg = -b * c * cmath.exp(a * c)
        return w_on_branch(k, arg, c * (a - value))
    if kind == ALPHA_C:
        eps, log_branch, j, beta = args
        log_eps = cmath.log(eps) + _TWO_PI_I * log_branch
        arg = -(log_eps * math.exp(-_TWO_PI * beta)) * _TWO_PI * cmath.exp(beta * _TWO_PI)
        return w_on_branch(j, arg, -_TWO_PI_I * value)
    log_eps, j, pairing = args  # alpha_real
    if _fp is None:
        return math.isfinite(value.real) and math.isfinite(value.imag)
    m = j if pairing == "same-branch" else -j
    w1 = complex(_fp.lambertw(-_TWO_PI_I * log_eps, j))
    w2 = complex(_fp.lambertw(_TWO_PI_I * log_eps, m))
    return _close(value, -w1 / _TWO_PI_I + w2 / _TWO_PI_I)


def classify_queries(pool: list, results: list) -> dict:
    """Count wrong values and raised errors over the pool, and collect the
    indices of the queries that failed either way."""
    wrong = errors = unexpected = 0
    wrong_by_kind: dict[str, int] = {}
    failing = set()
    for i, ((kind, args), res) in enumerate(zip(pool, results)):
        if isinstance(res, dict):
            if "error" in res:
                errors += 1
            else:
                unexpected += 1
            failing.add(i)
            continue
        if not query_ok(kind, args, complex(*res)):
            wrong += 1
            wrong_by_kind[kind] = wrong_by_kind.get(kind, 0) + 1
            failing.add(i)
    return {"wrong": wrong, "errors": errors, "unexpected": unexpected,
            "wrong_by_kind": wrong_by_kind, "failing": failing}


def count_wrong_w(w_calls: list) -> int:
    return sum(not w_on_branch(k, complex(zr, zi), complex(wr, wi))
               for k, zr, zi, wr, wi, _ in w_calls)


# -- scans --------------------------------------------------------------------------

def imag_content(scan_path: str, table_path: str) -> list[str]:
    """Problems found in an imaginary scan and its table (empty when fine)."""
    with open(scan_path) as f:
        scan = json.load(f)
    with open(table_path) as f:
        table = json.load(f)
    problems = []
    if scan["count_h1"] != 9:
        problems.append(f"count_h1 = {scan['count_h1']}, expected 9")
    h1 = {row["D"] for row in scan["rows"] if row["h"] == 1}
    if h1 != HEEGNER:
        problems.append(f"h=1 discriminants {sorted(h1)} are not the nine Heegner numbers")
    if scan["distinct_unit_count"] != 8:
        problems.append(f"distinct_unit_count = {scan['distinct_unit_count']}, expected 8")
    bad = [row["D"] for row in scan["rows"]
           if row["residual_defining"] is not None and not row["residual_defining"] <= RESIDUAL_TOL]
    if bad:
        problems.append(f"residual_defining > {RESIDUAL_TOL} at D = {bad[:5]}")
    n_alpha = sum(row["alpha_re"] is not None for row in scan["rows"])
    if table["n_alpha"] != n_alpha:
        problems.append(f"table n_alpha = {table['n_alpha']}, scan has {n_alpha}")
    return problems


def real_content(scan_path: str, seed: int, samples: int) -> list[str]:
    """Split residuals, and h of seeded sample rows against the analytic route."""
    from lgw.fields import class_number_analytic

    with open(scan_path, newline="") as f:
        rows = list(csv.DictReader(f))
    problems = []
    for col in ("residual_split_1", "residual_split_2"):
        bad = [r["D"] for r in rows if r[col] and not float(r[col]) <= RESIDUAL_TOL]
        if bad:
            problems.append(f"{col} > {RESIDUAL_TOL} at D = {bad[:5]}")
    by_d = {int(r["D"]): int(r["h"]) for r in rows}
    for D in random.Random(seed).sample(sorted(by_d), min(samples, len(by_d))):
        if class_number_analytic(D) != by_d[D]:
            problems.append(f"h({D}) = {by_d[D]} but class_number_analytic gives another")
    return problems
