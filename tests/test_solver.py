import cmath
import hashlib
import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgw import solver, wfunc
from lgw.errors import DegenerateCoefficients, DomainError, LgwError, NonFinite, ZeroLogUnit
from lgw.solver import (
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
from lgw.wfunc import lambert_w

from oracles import bisect, count_real_roots_sign_changes, real_case_residuals

TWO_PI = 2 * math.pi

# Frozen from the bisection oracle of z = e^{-z} on [0, 1].
EXP_FIXED_POINT = 0.5671432904097838


class TestSolveExpLinear:
    def test_exp_fixed_point_against_oracle(self):
        recomputed = bisect(lambda t: t - math.exp(-t), 0.0, 1.0)
        assert abs(recomputed - EXP_FIXED_POINT) < 1e-15
        eq = ExpLinearEquation(0, 1, -1)
        z = solve_exp_linear(eq, 0)
        assert abs(z - EXP_FIXED_POINT) < 1e-12
        assert eq.residual(z) <= 1e-10 * (1 + abs(z))

    @pytest.mark.parametrize("k", [0, 1, -1, 3])
    def test_lambert_argument_past_the_float_range(self, k):
        # -B*C*exp(A*C) has finite parts whose modulus overflows
        eq = ExpLinearEquation(0, complex(1.7e308, 1.7e308), 1)
        with pytest.raises(NonFinite, match="float range"):
            solve_exp_linear(eq, k)

    def test_unit_past_the_float_range_in_modulus(self):
        # |eps| overflows, its log does not
        eps = complex(1.7e308, 1.7e308)
        for u in (UnitInput.complex_unit(eps), UnitInput(eps)):
            assert u.epsilon == eps
        rep = alpha_complex_case(UnitInput.complex_unit(eps), 1)
        assert rep.residual_defining <= 1e-10

    def test_residual_past_the_float_range_is_non_finite(self):
        # exp(C*z) underflows, so the residual is |z|, whose parts are finite
        # and whose modulus is not
        eq = ExpLinearEquation(0, 1, -1)
        with pytest.raises(NonFinite, match=r"residual at z = \(1\.7e\+308\+1\.7e\+308j\)"):
            eq.residual(1.7e308 + 1.7e308j)
        assert eq.residual(1.7e308) == 1.7e308

    def test_degenerate_coefficients(self):
        with pytest.raises(DegenerateCoefficients):
            ExpLinearEquation(0, 1, 0)
        with pytest.raises(DegenerateCoefficients):
            ExpLinearEquation(1, 0, 2)

    def test_two_branches_distinct_roots(self):
        eq = ExpLinearEquation(1, 2, 0.5)
        z0 = solve_exp_linear(eq, 0)
        zm1 = solve_exp_linear(eq, -1)
        assert abs(z0 - zm1) > 1e-6
        assert eq.residual(z0) <= 1e-10 * (1 + abs(z0))
        assert eq.residual(zm1) <= 1e-10 * (1 + abs(zm1))
        # sign-change oracle: the real section has no root, so both roots
        # coming off the W branches must be genuinely complex
        n_real = count_real_roots_sign_changes(
            lambda t: t - 1.0 - 2.0 * math.exp(0.5 * t), -50.0, 50.0
        )
        assert n_real == 0
        assert abs(z0.imag) > 1e-6 and abs(zm1.imag) > 1e-6

    def test_round_trip_500_random(self):
        rng = np.random.default_rng(2024)
        for i in range(500):
            a, b, c = (
                cmath.rect(rng.uniform(0.1, 5.0), rng.uniform(-math.pi, math.pi))
                for _ in range(3)
            )
            eq = ExpLinearEquation(a, b, c)
            k = (-2, -1, 0, 1, 2)[i % 5]
            z = solve_exp_linear(eq, k)
            assert eq.residual(z) <= 1e-10 * (1 + abs(z))


@settings(max_examples=120, deadline=None)
@given(
    ra=st.floats(0.1, 5), ta=st.floats(-3.1, 3.1),
    rb=st.floats(0.1, 5), tb=st.floats(-3.1, 3.1),
    rc=st.floats(0.1, 5), tc=st.floats(-3.1, 3.1),
    k=st.integers(-2, 2),
)
def test_round_trip_property(ra, ta, rb, tb, rc, tc, k):
    eq = ExpLinearEquation(cmath.rect(ra, ta), cmath.rect(rb, tb), cmath.rect(rc, tc))
    z = solve_exp_linear(eq, k)
    assert eq.residual(z) <= 1e-10 * (1 + abs(z))


@pytest.mark.parametrize("a", [0, 1.3j], ids=["real-argument", "log-past-pi"])
@pytest.mark.parametrize("k", [1, -1, 2, -3])
def test_root_is_continuous_across_smallest_normal_argument(k, a):
    # |-B*C*exp(A*C)| just above sys.float_info.min goes to lambert_w, just
    # below it to the log of the argument; the roots agree to a few ulps.
    # With A = 1.3i, Im of log(-B) + log(C) + A*C is past pi.
    tiny = sys.float_info.min
    above, below = (
        solve_exp_linear(ExpLinearEquation(a, tiny * s / TWO_PI, TWO_PI), k)
        for s in (1 + 2**-50, 1 - 2**-50)
    )
    assert abs(above - below) <= 1e-15 * abs(above), (above, below)
    # at one argument, the two routes to W_k agree to about an ulp
    z = complex(-tiny * (1 + 2**-50), 0.0)
    w = lambert_w(k, z).value
    assert abs(wfunc._lambert_w_log(k, cmath.log(z))[0] - w) <= 4e-16 * abs(w)


@pytest.mark.parametrize("pairing", list(Pairing))
@pytest.mark.parametrize("k", [1, -1, 2, -2])
def test_real_case_is_continuous_across_smallest_normal_argument(monkeypatch, k, pairing):
    # 2*pi*log(eps) just above sys.float_info.min goes to lambert_w (the
    # log-space route is switched off for it), just below it to the log of
    # the argument. alpha is a difference of W's over 2*pi*i, |W| about 708,
    # so the roots agree to a few ulps of |W|/pi.
    tiny = sys.float_info.min
    below = alpha_real_case(UnitInput.from_log(tiny * (1 - 2**-50) / TWO_PI, Case.REAL), k, pairing)
    monkeypatch.setattr(solver, "_lambert_w_log", None)
    above = alpha_real_case(UnitInput.from_log(tiny * (1 + 2**-50) / TWO_PI, Case.REAL), k, pairing)
    assert abs(above.alpha - below.alpha) <= 1e-15 * 708 / math.pi, (above, below)
    for rep in (above, below):
        assert max(rep.residual_split_1, rep.residual_split_2) <= 1e-10


def test_subnormal_argument_roots_are_pinned():
    # Re(A*C) in [-745, -708], so -B*C*exp(A*C) is subnormal or underflows
    # to 0; B and C at phases 0 and pi (either zero sign of Im) put a real
    # argument on the cut, which every branch takes from above. The digest
    # as the solver gave the roots before its log-space Newton was shared
    # with lambert_w, but for the 20 roots at Im log(-B*C*exp(A*C)) = -pi
    # on k = 1, 2, 3, -2, which now equal the roots at +pi.
    rng = random.Random(708)
    phases = [0.0, math.pi] + [rng.uniform(-math.pi, math.pi) for _ in range(4)]
    parts = []
    for pb in phases:
        for pc in phases:
            for _ in range(6):
                b = rng.uniform(0.5, 2.0) * complex(math.cos(pb), math.sin(pb))
                c = rng.uniform(0.5, 4.0) * complex(math.cos(pc), math.sin(pc))
                if pb == math.pi:
                    b = complex(b.real, rng.choice((0.0, -0.0)))
                if pc == math.pi:
                    c = complex(c.real, rng.choice((0.0, -0.0)))
                ac = complex(rng.uniform(-745.0, -708.0), rng.choice((0.0, rng.uniform(-20.0, 20.0))))
                a = ac / c
                assert -745.0 <= (a * c).real <= -708.0
                eq = ExpLinearEquation(a, b, c)
                for k in (1, -1, 2, -2, 3):
                    z = solve_exp_linear(eq, k)
                    parts.append(f"{z.real.hex()} {z.imag.hex()}")
    assert len(parts) == 1080
    assert hashlib.sha256(",".join(parts).encode()).hexdigest() == (
        "bf0df455cf114a9cd31373613bd6320c82d604f49e59832567d68f43c3aeeea6"
    )


@pytest.mark.parametrize("b", [1 + 1e-20j, 1 - 1e-20j, 1 + 0j], ids=["below", "above", "on"])
@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_subnormal_argument_side_of_the_cut_against_mpmath(k, b):
    # -B*C*exp(A*C) is subnormal and within 1e-20 of the negative real axis,
    # so its angle rounds to -pi (pi for B = 1 - 1e-20j); only B = 1 + 1e-20j
    # puts it below the cut, which each branch must see
    mpmath = pytest.importorskip("mpmath")
    a, c = -720.0, 1.0
    with mpmath.workdps(60):
        A, B, C = mpmath.mpc(a), mpmath.mpc(b.real, b.imag), mpmath.mpc(c)
        ref = complex(A - mpmath.lambertw(-B * C * mpmath.exp(A * C), k) / C)
    z = solve_exp_linear(ExpLinearEquation(a, b, c), k)
    assert abs(z - ref) <= 1e-12 * (1 + abs(ref)), (z, ref)


def test_real_case_tiny_log_bits_are_pinned():
    # 2*pi*L subnormal for all but L = 2e-308, which goes to lambert_w; the
    # digest of alpha and every residual as alpha_real_case gave them before
    # its log-space Newton was shared with lambert_w
    parts = []
    for L in (5e-324, 1e-320, 1e-310, 3e-309, 2e-308):
        u = UnitInput.from_log(L, Case.REAL)
        for j in (1, -1, 2, -2):
            for pairing in Pairing:
                rep = alpha_real_case(u, j, pairing)
                parts.append(" ".join(
                    x.hex() for x in (rep.alpha.real, rep.alpha.imag, rep.residual_defining,
                                      rep.residual_split_1, rep.residual_split_2, rep.residual_sum_equation)
                ))
    assert hashlib.sha256(",".join(parts).encode()).hexdigest() == (
        "1bab126b0cd5944bec0b4f594322cecb572c3a1a8b245dc892fd29a0a2389451"
    )


@pytest.mark.parametrize("log_eps", [1e-300, 1e-308, 1e-320, 5e-324])
@pytest.mark.parametrize("k", [1, -1, 2, -3])
def test_real_case_tiny_log_against_mpmath(k, log_eps):
    # under conjugate pairing alpha = -Im W_k(-2*pi*i*L) / pi, exact to a
    # few ulps of |W|
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w = mpmath.lambertw(-2j * mpmath.pi * mpmath.mpf(log_eps), k)
        ref, w_abs = float(-w.imag / mpmath.pi), float(abs(w))
    rep = alpha_real_case(UnitInput.from_log(log_eps, Case.REAL), k)
    assert rep.alpha.imag == 0.0
    assert abs(rep.alpha.real - ref) * math.pi <= 4e-16 * w_abs, (rep.alpha, ref)
    assert max(rep.residual_split_1, rep.residual_split_2) <= 1e-10


class TestAlphaComplexCase:
    def test_forced_synthetic_log(self):
        # log(eps) = -e/(2*pi) makes the Lambert argument exactly e, so
        # W_0(e) = 1 forces alpha = i/(2*pi)
        u = UnitInput.from_log(-math.e / TWO_PI)
        rep = alpha_complex_case(u, j=0)
        assert abs(rep.alpha - 1j / TWO_PI) < 1e-15
        assert rep.residual_defining <= 1e-14
        # defining equation holds essentially exactly
        assert verify_fixed_point(rep.alpha, u) <= 1e-14

    def test_unit_one_raises(self):
        with pytest.raises(ZeroLogUnit):
            alpha_complex_case(UnitInput.complex_unit(1.0), j=0)

    def test_unit_i_residual(self):
        u = UnitInput.complex_unit(1j)
        assert unit_log(u) == 1j * math.pi / 2
        rep = alpha_complex_case(u, j=0)
        assert rep.residual_defining <= 1e-10

    def test_beta_cancellation(self):
        u = UnitInput.complex_unit(1j)
        a0 = alpha_complex_case(u, 0, beta=0.0).alpha
        a37 = alpha_complex_case(u, 0, beta=3.7).alpha
        assert abs(a0 - a37) <= 1e-13

    def test_beta_invariance_extremes(self):
        for eps in (1j, -1 + 0j, complex(0.5, math.sqrt(3) / 2)):
            u = UnitInput.complex_unit(eps)
            alphas = [alpha_complex_case(u, 0, beta=b).alpha for b in (-10.0, 0.0, 10.0)]
            assert max(abs(a - alphas[0]) for a in alphas) <= 1e-13

    def test_identity_across_branches_and_logs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            log_eps = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(log_eps) < 0.05:
                continue
            u = UnitInput.from_log(log_eps)
            for j in range(-3, 4):
                a = alpha_complex_case(u, j=j).alpha
                assert abs(1j * a - cmath.exp(2j * math.pi * a) * log_eps) <= 1e-10

    def test_case_mismatch(self):
        with pytest.raises(DomainError):
            alpha_complex_case(UnitInput.real_unit(2.0), 0)


class TestAlphaRealCase:
    def test_unit_one_raises(self):
        with pytest.raises(ZeroLogUnit):
            UnitInput.real_unit(1.0)
        with pytest.raises(ZeroLogUnit):
            UnitInput.from_log(0.0, case=Case.REAL)

    def test_golden_ratio_conjugate_pairing(self):
        phi = (1 + math.sqrt(5)) / 2
        rep = alpha_real_case(UnitInput.real_unit(phi), j=0, pairing=Pairing.CONJUGATE_BRANCH)
        assert abs(rep.alpha.imag) <= 1e-12
        assert rep.residual_split_1 <= 1e-10
        assert rep.residual_split_2 <= 1e-10

    def test_silver_ratio_same_branch(self):
        rep = alpha_real_case(UnitInput.real_unit(1 + math.sqrt(2)), j=0, pairing=Pairing.SAME_BRANCH)
        assert rep.residual_split_1 <= 1e-10
        assert rep.residual_split_2 <= 1e-10
        assert rep.residual_sum_equation is not None
        assert math.isfinite(rep.residual_sum_equation)

    def test_realness_across_branches(self):
        u = UnitInput.real_unit(1 + math.sqrt(2))
        for j in (-3, -1, 0, 1, 4):
            rep = alpha_real_case(u, j=j, pairing=Pairing.CONJUGATE_BRANCH)
            assert abs(rep.alpha.imag) <= 1e-12
            assert rep.residual_split_1 <= 1e-10
            assert rep.residual_split_2 <= 1e-10

    def test_same_branch_nonreal_off_principal(self):
        u = UnitInput.real_unit(1 + math.sqrt(2))
        rep = alpha_real_case(u, j=2, pairing=Pairing.SAME_BRANCH)
        assert abs(rep.alpha.imag) > 1e-6  # the literal formula leaves alpha complex

    def test_split_identities_sampled(self):
        for log_eps in np.linspace(0.05, 5.0, 25):
            u = UnitInput.from_log(float(log_eps), case=Case.REAL)
            rep = alpha_real_case(u, 0, Pairing.CONJUGATE_BRANCH)
            assert rep.residual_split_1 <= 1e-10
            assert rep.residual_split_2 <= 1e-10
            assert abs(rep.alpha.imag) <= 1e-12

    def test_case_mismatch(self):
        with pytest.raises(DomainError):
            alpha_real_case(UnitInput.complex_unit(1j), 0)

    def test_pairing_is_a_pairing_or_its_value(self):
        u = UnitInput.real_unit(3.0)
        assert alpha_real_case(u, 1, "same-branch") == alpha_real_case(u, 1, Pairing.SAME_BRANCH)
        for pairing in ("bogus", None, Case.REAL):
            with pytest.raises(DomainError, match="pairing"):
                alpha_real_case(u, 1, pairing)

    @pytest.mark.parametrize("log_eps", [0.05, math.log(1 + math.sqrt(2)), 2.5, 50.0])
    @pytest.mark.parametrize("j", range(-3, 4))
    def test_conjugate_pairing_equals_two_solves(self, log_eps, j):
        # The report takes W_-j(2*pi*i*L) as conj W_j(-2*pi*i*L); it must equal
        # the literal formula with a second Lambert evaluation, field by field.
        rep = alpha_real_case(UnitInput.from_log(log_eps, case=Case.REAL), j, Pairing.CONJUGATE_BRANCH)
        two_pi_i = 2j * math.pi
        alpha1 = -lambert_w(j, -two_pi_i * log_eps).value / two_pi_i
        alpha2 = lambert_w(-j, two_pi_i * log_eps).value / two_pi_i
        alpha = alpha1 + alpha2
        expected = FixedPointReport(
            alpha=alpha,
            branch=j,
            residual_defining=abs(alpha - cmath.cos(2 * math.pi * alpha) * log_eps),
            residual_split_1=abs(alpha1 - log_eps * cmath.exp(two_pi_i * alpha1)),
            residual_split_2=abs(alpha2 - log_eps * cmath.exp(-two_pi_i * alpha2)),
            residual_sum_equation=abs(
                2.0 * alpha
                - log_eps * cmath.exp(two_pi_i * alpha)
                - log_eps * cmath.exp(-two_pi_i * alpha)
            ),
            conventions={"log_branch": 0, "pairing": "conjugate-branch", "case": "real"},
        )
        for name in FixedPointReport._fields:
            assert getattr(rep, name) == getattr(expected, name), name

    def test_conjugate_split_residual_2_is_taken_from_split_residual_1(self):
        # Under conjugate pairing alpha2 = conj(alpha1) bit for bit, so the
        # report takes residual_split_2 from residual_split_1 instead of a
        # second exp: it must equal the residual at alpha2, bit for bit.
        rng = np.random.default_rng(2020)
        logs = [float(L) for L in 10 ** rng.uniform(-3, 3, 300)]
        logs.append(sys.float_info.min / 4 / TWO_PI)  # +-2*pi*i*L is subnormal
        for L in logs:
            for j in range(-5, 6):
                _, _, r1, r2, _ = solver._alpha_real(L, j, False)
                assert r2 == _split_residual_2(L, _split_w(L, j).conjugate()) == r1, (L, j)
            rep = alpha_real_case(UnitInput.from_log(L, Case.REAL), 3, Pairing.CONJUGATE_BRANCH)
            assert rep.residual_split_2 == rep.residual_split_1

    @pytest.mark.parametrize("pairing", list(Pairing))
    def test_residuals_equal_the_four_exponentials_bit_for_bit(self, pairing):
        # Under conjugate pairing the sum and defining residuals come from one
        # real cosine and split 2 is split 1; each must equal the residual
        # the equations name (oracles.real_case_residuals), hex for hex, as
        # under same-branch pairing. L spans the floats from 1e-320 up: below
        # about 5e-307 the exp of split 1 overflows, and below about 3.5e-309
        # +-2*pi*i*L is subnormal.
        rng = random.Random(29)
        logs = [10 ** rng.uniform(-300.0, 300.0) for _ in range(300)]
        logs += [10 ** rng.uniform(-320.0, -300.0) for _ in range(60)]
        same_branch = pairing is Pairing.SAME_BRANCH
        overflowed = 0
        for L in logs:
            for j in range(-5, 6):
                w1 = _split_w(L, j)
                w2 = _split_w(L, j, 1) if same_branch else w1.conjugate()
                alpha1, alpha2 = -w1 / (2j * math.pi), w2 / (2j * math.pi)
                alpha, *residuals = solver._alpha_real(L, j, same_branch)
                expected = real_case_residuals(L, alpha1, alpha2)
                got = [x.hex() for x in (alpha.real, alpha.imag, *residuals)]
                want = [x.hex() for x in ((alpha1 + alpha2).real, (alpha1 + alpha2).imag, *expected)]
                assert got == want, (L, j)
                try:
                    cmath.exp(2j * math.pi * alpha1)
                except OverflowError:
                    overflowed += 1
        assert overflowed > 100

    def test_same_branch_computes_split_residual_2(self):
        differ = 0
        for L in (0.05, 0.7, math.log(1 + math.sqrt(2)), 3.0, 40.0):
            for j in (-2, 1, 3):
                _, _, r1, r2, _ = solver._alpha_real(L, j, True)
                assert r2 == _split_residual_2(L, lambert_w(j, 2j * math.pi * L).value), (L, j)
                differ += r1 != r2
        assert differ

    def test_tiny_log_is_not_the_unit_one(self):
        # e^1e-20 rounds to 1.0; the forced log still decides.
        u = UnitInput.from_log(1e-20, case=Case.REAL)
        assert u.epsilon is None
        assert unit_log(u) == 1e-20
        rep = alpha_real_case(u, 0, Pairing.CONJUGATE_BRANCH)
        assert rep.alpha == pytest.approx(2e-20, rel=1e-12)
        assert rep.residual_split_1 <= 1e-10
        assert rep.residual_split_2 <= 1e-10


def _split_w(L: float, j: int, sign: int = -1) -> complex:
    """W_j(sign*2*pi*i*L), through the log of the argument where it is subnormal."""
    if j and TWO_PI * L < wfunc._TINY_Z:
        return wfunc._lambert_w_log(j, complex(math.log(TWO_PI) + math.log(L), sign * 0.5 * math.pi))[0]
    return lambert_w(j, sign * 2j * math.pi * L).value


def _split_residual_2(L: float, w2: complex) -> float:
    """|alpha2 - L*exp(-2*pi*i*alpha2)| at alpha2 = w2/(2*pi*i); L*exp(x) as
    exp(x + log L) where exp(x) overflows, as the solver forms it."""
    alpha2 = w2 / (2j * math.pi)
    x = -2j * math.pi * alpha2
    try:
        return abs(alpha2 - L * cmath.exp(x))
    except OverflowError:
        return abs(alpha2 - solver._exp_of_sum_with_log(x, L, "split residual 2"))


def test_injectivity_probe_reports_but_never_fails():
    alphas = []
    for log_eps in np.linspace(0.025, 5.0, 200):
        u = UnitInput.from_log(float(log_eps), case=Case.REAL)
        rep = alpha_real_case(u, 0, Pairing.CONJUGATE_BRANCH)
        assert math.isfinite(rep.alpha.real)
        alphas.append(rep.alpha)
    min_sep = min(abs(a - b) for i, a in enumerate(alphas) for b in alphas[i + 1 :])
    if min_sep <= 1e-9:
        warnings.warn(
            f"alpha collision in injectivity probe: min separation {min_sep:.3e}",
            stacklevel=1,
        )


class TestVerifyFixedPoint:
    def test_forced_complex(self):
        u = UnitInput.from_log(-math.e / TWO_PI)
        assert verify_fixed_point(1j / TWO_PI, u) <= 1e-14

    def test_real_at_zero(self):
        u = UnitInput.real_unit(math.e)  # log eps = 1
        assert verify_fixed_point(0.0, u) == pytest.approx(1.0, abs=1e-15)

    def test_round_trip_from_alpha_complex(self):
        u = UnitInput.complex_unit(complex(0.5, math.sqrt(3) / 2))
        rep = alpha_complex_case(u, j=1)
        assert verify_fixed_point(rep.alpha, u) <= 1e-10

    def test_round_trip_from_alpha_real(self):
        u = UnitInput.real_unit(1 + math.sqrt(2))
        rep = alpha_real_case(u, 0, Pairing.CONJUGATE_BRANCH)
        # the defining-equation residual equals half the summed-equation one
        assert verify_fixed_point(rep.alpha, u) == pytest.approx(
            rep.residual_sum_equation / 2.0, rel=1e-12
        )


class TestRecords:
    def test_immutable_with_value_equality_and_repr(self):
        u = UnitInput.complex_unit(1j)
        with pytest.raises(AttributeError):
            u.log_branch = 1
        assert u == UnitInput(epsilon=1j)
        assert repr(u) == "UnitInput(epsilon=1j, log_branch=0, case=<Case.COMPLEX: 'complex'>, log_value=None)"
        eq = ExpLinearEquation(0, 1, -1)
        assert repr(eq) == "ExpLinearEquation(a=0j, b=(1+0j), c=(-1+0j))"
        with pytest.raises(AttributeError):
            eq.extra = 0

    def test_replace_keeps_the_checks(self):
        with pytest.raises(DegenerateCoefficients):
            ExpLinearEquation(0, 1, -1)._replace(b=0)
        with pytest.raises(ZeroLogUnit):
            UnitInput.real_unit(2.0)._replace(epsilon=1.0)
        assert ExpLinearEquation(0, 1, -1)._replace(a=2) == ExpLinearEquation(2, 1, -1)

    def test_report_defaults_get_their_own_conventions(self):
        a, b = FixedPointReport(alpha=0j, branch=0), FixedPointReport(alpha=0j, branch=0)
        assert a == b
        assert a.conventions == {} and a.conventions is not b.conventions
        assert (a.beta, a.residual_defining, a.residual_split_1) == (0.0, 0.0, None)


class TestBranchIndex:
    """A branch index that is not integral raises DomainError at every entry
    point, before any path (the log-space one of a subnormal Lambert argument
    too) can use it; an integral one is taken, and recorded, as its int."""

    @pytest.mark.parametrize("k", [1.5, -0.5, math.inf, "1"])
    def test_solve_exp_linear(self, k):
        for eq in (ExpLinearEquation(0, 1, 1), ExpLinearEquation(0, 1e-320, 1)):
            with pytest.raises(DomainError, match="k"):
                solve_exp_linear(eq, k)

    @pytest.mark.parametrize("j", [1.5, -0.5, math.nan, "1"])
    def test_alpha_cases(self, j):
        with pytest.raises(DomainError, match="j"):
            alpha_complex_case(UnitInput.complex_unit(1j), j)
        for L in (1e-320, 2.0):
            for pairing in Pairing:
                with pytest.raises(DomainError, match="j"):
                    alpha_real_case(UnitInput.from_log(L, case=Case.REAL), j, pairing)

    @pytest.mark.parametrize("log_branch", [0.5, -1.5, "1"])
    def test_unit_input(self, log_branch):
        with pytest.raises(DomainError, match="log_branch"):
            UnitInput(1j, log_branch)
        with pytest.raises(DomainError, match="log_branch"):
            UnitInput.complex_unit(1j, log_branch)
        with pytest.raises(DomainError, match="log_branch"):
            UnitInput.complex_unit(1j)._replace(log_branch=log_branch)

    @pytest.mark.parametrize("k, as_int", [(2.0, 2), (True, 1), (np.int64(-3), -3), (np.float64(-1.0), -1)])
    def test_integral_indices_are_taken_as_ints(self, k, as_int):
        for eq in (ExpLinearEquation(0.5, 1 - 1j, 2), ExpLinearEquation(0, 1e-320, 1)):
            assert solve_exp_linear(eq, k) == solve_exp_linear(eq, as_int)
        for u in (UnitInput(1j, k), UnitInput.complex_unit(1j, k)):
            assert type(u.log_branch) is int and u == UnitInput.complex_unit(1j, as_int)
        u = UnitInput.complex_unit(complex(0.5, math.sqrt(3) / 2))
        rep = alpha_complex_case(u, k)
        assert type(rep.branch) is int and rep == alpha_complex_case(u, as_int)
        for L in (1e-320, 2.0):
            u = UnitInput.from_log(L, case=Case.REAL)
            for pairing in Pairing:
                rep = alpha_real_case(u, k, pairing)
                assert type(rep.branch) is int and rep == alpha_real_case(u, as_int, pairing)


class TestUnitInput:
    def test_real_validation(self):
        with pytest.raises(DomainError):
            UnitInput.real_unit(0.5)
        with pytest.raises(DomainError):
            UnitInput(epsilon=complex(2, 1), case=Case.REAL)

    def test_complex_zero_rejected(self):
        with pytest.raises(DomainError):
            UnitInput.complex_unit(0)

    def test_log_branch_shift(self):
        u = UnitInput.complex_unit(1.0, log_branch=1)
        assert unit_log(u) == 2j * math.pi

    def test_from_log_real_huge_regulator(self):
        u = UnitInput.from_log(1000.0, case=Case.REAL)
        assert u.epsilon is None
        assert unit_log(u) == 1000.0
        rep = alpha_real_case(u, 0, Pairing.CONJUGATE_BRANCH)
        assert rep.residual_split_1 <= 1e-10


def _ways_to_build(epsilon, log_branch, case, log_value):
    """Each constructor that can express these fields, as a call building them."""
    ways = [lambda: UnitInput(epsilon, log_branch, case, log_value),
            lambda: UnitInput.from_log(2.0, case)._replace(epsilon=epsilon, log_branch=log_branch, log_value=log_value)]
    if log_value is None and case is Case.COMPLEX:
        ways.append(lambda: UnitInput.complex_unit(epsilon, log_branch))
    if log_value is None and case is Case.REAL and log_branch == 0:
        ways.append(lambda: UnitInput.real_unit(epsilon))
    if epsilon is None and log_branch == 0:
        ways.append(lambda: UnitInput.from_log(log_value, case))
    return ways


class TestUnitRule:
    """Every UnitInput constructor passes the one rule: a bad unit raises the
    same error class whichever constructor is given it."""

    BAD = [  # epsilon, log_branch, case, log_value, and the error of each constructor
        (None, 0, Case.REAL, -1.0, DomainError),
        (None, 0, Case.REAL, 2 + 1j, DomainError),
        (None, 0, Case.REAL, math.nan, NonFinite),
        (None, 0, Case.REAL, 0.0, ZeroLogUnit),
        (None, 0, Case.REAL, -0.0, ZeroLogUnit),
        (1.0, 0, Case.REAL, None, ZeroLogUnit),
        (0.5, 0, Case.REAL, None, DomainError),
        (3 + 1j, 0, Case.REAL, None, DomainError),
        (3.0, 4, Case.REAL, None, DomainError),
        (None, -1, Case.REAL, 1.0, DomainError),
        (math.inf, 0, Case.REAL, None, NonFinite),
        (None, 0, Case.REAL, None, DomainError),
        (0, 0, Case.COMPLEX, None, DomainError),
        (complex(1, math.inf), 0, Case.COMPLEX, None, NonFinite),
        (None, 0, Case.COMPLEX, complex(math.nan, 1), NonFinite),
        (None, 0, Case.COMPLEX, None, DomainError),
        (1j, 0.5, Case.COMPLEX, None, DomainError),
        (None, 0.5, Case.COMPLEX, 1.0, DomainError),
        # a case is a Case or its value, and its checks apply either way
        (2 + 1j, 0, "real", None, DomainError),
        (None, 0, "real", 0.0, ZeroLogUnit),
        (2.0, 0, "bogus", None, DomainError),
        (2.0, 0, None, None, DomainError),
        (None, 0, Pairing.SAME_BRANCH, 1.0, DomainError),
    ]

    def test_each_constructor_raises_the_same_class(self):
        for *fields, error in self.BAD:
            ways = _ways_to_build(*fields)
            assert len(ways) >= 2, fields
            for build in ways:
                with pytest.raises(error) as info:
                    build()
                assert type(info.value) is error, fields

    def test_a_case_value_builds_its_member(self):
        for case in Case:
            assert UnitInput(3.0, 0, case.value) == UnitInput(3.0, 0, case)
            assert UnitInput(3.0, 0, case.value).case is case

    @pytest.mark.parametrize("L", [800.0, -800.0])
    def test_from_log_keeps_the_log_alone(self, L):
        u = UnitInput.from_log(L)
        assert u == (None, 0, Case.COMPLEX, complex(L))
        assert unit_log(u) == L

    def test_a_log_past_exp_range_gives_a_report_or_a_domain_error(self):
        for L in (800.0, -800.0, 1e308, -1e308):
            for j in (0, 1, -3):
                try:
                    rep = alpha_complex_case(UnitInput.from_log(L), j)
                except LgwError:
                    continue
                assert rep.residual_defining <= 1e-10
