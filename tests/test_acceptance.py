"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and then asserts, so a red criterion is
both visible and blocking.
"""

import cmath
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from lgw.fields import (
    class_number,
    class_number_analytic,
    fundamental_discriminants,
    fundamental_unit,
    is_squarefree,
    roots_of_unity,
)
from lgw.solver import Case, ExpLinearEquation, Pairing, UnitInput, alpha_complex_case, alpha_real_case, solve_exp_linear
from lgw.survey import scan_imaginary
from lgw.wfunc import BRANCH_POINT_Z, lambert_w, w_derivative, w_series

from oracles import pell_minimal_unit

HEEGNER = [-3, -4, -7, -8, -11, -19, -43, -67, -163]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_lambert_identity_suite():
    zs = []
    for r in np.logspace(-3, 3, 25):
        for t in np.linspace(-math.pi + 0.03, math.pi, 40):
            zs.append(r * cmath.exp(1j * t))
    assert len(zs) == 1000
    t0 = time.time()
    worst = 0.0
    for k in range(-5, 6):
        for z in zs:
            ev = lambert_w(k, z)
            worst = max(worst, abs(ev.value * cmath.exp(ev.value) - z) / (1 + abs(z)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, "lambert-w identity", ok,
            f"11 branches x 1000 points, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_series_agreement():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        z = 0.2 * rng.uniform(0.05, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        worst = max(worst, abs(w_series(z, 40) - lambert_w(0, z).value))
    ok = worst <= 1e-10
    _report(2, "series agreement", ok, f"100 points |z|<=0.2, worst gap {worst:.2e}")


def test_criterion_03_derivative_finite_difference():
    rng = np.random.default_rng(202)
    worst = 0.0
    count = 0
    while count < 200:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 0.05 or abs(z - BRANCH_POINT_Z) < 0.05:
            continue
        k = int(rng.integers(-2, 3))
        if k != 0 and abs(z) < 0.2:
            continue
        h = 1e-6
        fd = (lambert_w(k, z + h).value - lambert_w(k, z - h).value) / (2 * h)
        rel = abs(w_derivative(k, z) - fd) / abs(fd)
        worst = max(worst, rel)
        count += 1
    ok = worst <= 1e-6
    _report(3, "derivative vs finite differences", ok,
            f"200 random points, worst relative gap {worst:.2e}")


def test_criterion_04_round_trip_500():
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(500):
        a, b, c = (
            cmath.rect(rng.uniform(0.1, 5.0), rng.uniform(-math.pi, math.pi))
            for _ in range(3)
        )
        eq = ExpLinearEquation(a, b, c)
        z = solve_exp_linear(eq, (-2, -1, 0, 1, 2)[i % 5])
        worst = max(worst, eq.residual(z) / (1 + abs(z)))
    ok = worst <= 1e-10
    _report(4, "exp-linear round trip", ok, f"500 equations, worst residual {worst:.2e}")


def test_criterion_05_complex_case_identity_and_beta():
    rng = np.random.default_rng(404)
    worst_resid = 0.0
    samples = []
    while len(samples) < 100:
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(s) > 0.05:
            samples.append(s)
    for s in samples:
        u = UnitInput.from_log(s)
        for j in range(-3, 4):
            worst_resid = max(worst_resid, alpha_complex_case(u, j).residual_defining)
    worst_beta = 0.0
    for s in samples[:25]:
        u = UnitInput.from_log(s)
        alphas = [alpha_complex_case(u, 0, beta=b).alpha for b in (-10.0, 0.0, 10.0)]
        worst_beta = max(worst_beta, max(abs(a - alphas[1]) for a in alphas))
    ok = worst_resid <= 1e-10 and worst_beta <= 1e-13
    _report(5, "complex-case root identity", ok,
            f"100 logs x 7 branches, worst residual {worst_resid:.2e}, "
            f"beta spread {worst_beta:.2e}")


def test_criterion_06_real_case_split_identities(tmp_path):
    worst_split = 0.0
    worst_imag = 0.0
    audit = []
    for d in range(2, 101):
        if not is_squarefree(d):
            continue
        unit = fundamental_unit(d)
        u = UnitInput.from_log(unit.regulator, case=Case.REAL)
        rep = alpha_real_case(u, 0, Pairing.CONJUGATE_BRANCH)
        worst_split = max(worst_split, rep.residual_split_1, rep.residual_split_2)
        worst_imag = max(worst_imag, abs(rep.alpha.imag))
        audit.append(
            {
                "d": d,
                "regulator": unit.regulator,
                "alpha": rep.alpha.real,
                "residual_split_1": rep.residual_split_1,
                "residual_split_2": rep.residual_split_2,
                "residual_sum_equation": rep.residual_sum_equation,
            }
        )
    artifact = tmp_path / "real_case_audit.json"
    artifact.write_text(json.dumps(audit, indent=1))
    recorded = all(
        row["residual_sum_equation"] is not None and math.isfinite(row["residual_sum_equation"])
        for row in audit
    )
    ok = worst_split <= 1e-10 and worst_imag <= 1e-12 and recorded
    _report(6, "real-case split identities", ok,
            f"{len(audit)} fundamental units (d<=100), worst split {worst_split:.2e}, "
            f"worst |Im alpha| {worst_imag:.2e}, sum-equation residuals recorded in {artifact}")


def test_criterion_07_class_number_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for D in fundamental_discriminants(-2000, 2000):
        assert class_number(D) == class_number_analytic(D), f"disagreement at D={D}"
        checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    _report(7, "class-number oracle equivalence", ok,
            f"{checked} fundamental |D|<=2000 agree, {elapsed:.1f}s")


def test_criterion_08_heegner_list_at_1e5():
    t0 = time.time()
    summary = scan_imaginary(100_000)
    elapsed = time.time() - t0
    b = summary.batch
    h1 = sorted(b.D[b.h == 1].tolist())
    ok = h1 == sorted(HEEGNER) and elapsed < 600.0
    _report(8, "Heegner list", ok,
            f"scan_imaginary(1e5) -> {h1} in {elapsed:.1f}s")


def test_criterion_09_unit_list_is_the_eight():
    summary = scan_imaginary(200)
    b = summary.batch
    units = [eps for D in b.D[b.h == 1].tolist() for eps in roots_of_unity(D).elements]
    reps: list[complex] = []
    for v in units:
        if all(abs(v - r) > 1e-14 for r in reps):
            reps.append(v)
    s3 = math.sqrt(3.0) / 2.0
    expected = [
        1 + 0j, complex(0.5, s3), 1j, complex(-0.5, s3),
        -1 + 0j, complex(-0.5, -s3), -1j, complex(0.5, -s3),
    ]
    matched = len(reps) == 8 and all(
        min(abs(e - r) for r in reps) <= 1e-14 for e in expected
    )
    _report(9, "torsion unit list", matched,
            f"{len(reps)} distinct units across h=1 fields; "
            f"summary.distinct_unit_count={summary.distinct_unit_count}")
    assert summary.distinct_unit_count == 8


def test_criterion_10_pell_units_sweep():
    cap = 250_000
    t0 = time.time()
    checked = capped = 0
    for d in range(2, 501):
        if not is_squarefree(d):
            continue
        u = fundamental_unit(d)
        assert u.pell_residual() == 0, f"Pell relation fails at d={d}"
        if d % 4 == 1 and not u.half_integral:
            cf = (2 * u.x, 2 * u.y, u.norm)
        else:
            cf = (u.x, u.y, u.norm)
        got = pell_minimal_unit(d, min(cf[1], cap))
        if cf[1] > cap:
            # sweep certifies no smaller unit below the cap
            assert got is None, f"smaller unit than CF found at d={d}: {got}"
            capped += 1
        else:
            assert got == cf, f"sweep mismatch at d={d}: cf={cf} sweep={got}"
        checked += 1
    u94 = fundamental_unit(94)
    ok = (u94.x, u94.y, u94.norm) == (2143295, 221064, 1)
    _report(10, "Pell units vs y-sweep", ok,
            f"{checked} squarefree d<=500 ({capped} capped at y={cap}), "
            f"d=94 -> {u94.x}+{u94.y}*sqrt(94), {time.time()-t0:.1f}s")


def test_criterion_11_scan_determinism_across_jobs():
    # the bytes of a scan do not depend on how its process ran: two fresh
    # interpreters with different string-hash seeds
    outs = {}
    for mode, limit in (("--imaginary", "2000"), ("--real", "300")):
        for seed in ("0", "1"):
            res = subprocess.run(
                [sys.executable, "-m", "lgw", "scan", mode, "--limit", limit, "--format", "csv"],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert res.returncode == 0, res.stderr
            outs[(mode, seed)] = res.stdout
    ok = (
        outs[("--imaginary", "0")] == outs[("--imaginary", "1")]
        and outs[("--real", "0")] == outs[("--real", "1")]
    )
    _report(11, "scan determinism", ok,
            "imaginary(2000) and real(300) byte-identical for PYTHONHASHSEED 0 vs 1")
