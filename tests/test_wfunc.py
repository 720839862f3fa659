import cmath
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgw import wfunc
from lgw.errors import (
    BranchPointSingularity,
    BranchSingularity,
    DomainError,
    NoConvergence,
    NonFinite,
    TermLimitExceeded,
)
from lgw.fields import fundamental_unit, is_squarefree
from lgw.wfunc import BRANCH_POINT_Z, OMEGA, lambert_w, lambert_w_real, w_derivative, w_series

from oracles import bisect, w_minus1_real, w_principal_real

# Frozen from the bisection oracle of w*e^w = 1 on [0, 1].
OMEGA_ORACLE = 0.5671432904097838
# Frozen from the bisection oracle of w*e^w = -0.1 on (-inf, -1].
W_MINUS1_AT_MINUS_01 = -3.577152063957297


def rel(a, b):
    return abs(a - b) / (1.0 + abs(b))


class TestPrincipalValues:
    def test_w0_at_zero(self):
        ev = lambert_w(0, 0)
        assert ev.value == 0
        assert ev.residual == 0.0

    def test_w0_at_e(self):
        assert abs(lambert_w(0, math.e).value - 1.0) < 1e-14

    def test_branch_point_both_branches(self):
        for k in (0, -1):
            w = lambert_w(k, BRANCH_POINT_Z).value
            assert abs(w - (-1.0)) < 1e-7  # sqrt-limited accuracy at the branch point
            assert lambert_w(k, BRANCH_POINT_Z).residual <= 1e-12

    def test_omega_constant_against_bisection_oracle(self):
        recomputed = bisect(lambda w: w * math.exp(w) - 1.0, 0.0, 1.0)
        assert abs(recomputed - OMEGA_ORACLE) < 1e-15
        assert abs(lambert_w(0, 1).value - OMEGA_ORACLE) < 1e-12
        assert abs(OMEGA - OMEGA_ORACLE) < 1e-15


class TestErrors:
    def test_nonfinite(self):
        with pytest.raises(NonFinite):
            lambert_w(0, complex(math.nan, 0))
        with pytest.raises(NonFinite):
            lambert_w(0, complex(1, math.inf))

    @pytest.mark.parametrize("z", [complex(1.7e308, 1.7e308), complex(-1.7e308, 1.7e308),
                                   complex(1.7e308, -1.7e308), complex(-1.7e308, -1.7e308)])
    @pytest.mark.parametrize("k", [0, 1, -1, 2, -5])
    def test_modulus_past_the_float_range(self, k, z):
        # finite parts, but |z| overflows: NonFinite, not OverflowError
        with pytest.raises(NonFinite, match="float range"):
            lambert_w(k, z)

    def test_branch_singularity(self):
        with pytest.raises(BranchSingularity):
            lambert_w(3, 0)
        with pytest.raises(BranchSingularity):
            lambert_w(-1, 0)

    def test_real_domain(self):
        with pytest.raises(DomainError):
            lambert_w_real(0, BRANCH_POINT_Z - 1e-3)
        with pytest.raises(DomainError):
            lambert_w_real(-1, 0.1)
        with pytest.raises(DomainError):
            lambert_w_real(-1, -0.5)
        with pytest.raises(DomainError):
            lambert_w_real(2, 1.0)


class TestBranchIndex:
    @pytest.mark.parametrize("k", [1.5, -0.5, math.nan, math.inf, "1", 1 + 0j, np.float64(2.5)])
    def test_non_integral_branch_raises(self, k):
        with pytest.raises(DomainError):
            lambert_w(k, 1 + 1j)
        with pytest.raises(DomainError):  # before the log-space path of a subnormal z
            lambert_w(k, 1e-320)

    @pytest.mark.parametrize("k, as_int", [(2.0, 2), (-1.0, -1), (True, 1), (False, 0), (np.int64(-3), -3),
                                           (np.int32(7), 7), (np.float64(1.0), 1)])
    def test_integral_branch_is_recorded_as_int(self, k, as_int):
        for z in (1 + 1j, 1e-320, BRANCH_POINT_Z):
            ev = lambert_w(k, z)
            assert type(ev.branch) is int and ev == lambert_w(as_int, z)
        assert w_derivative(k, 1 + 1j) == w_derivative(as_int, 1 + 1j)

    def test_real_path_takes_integral_floats_only(self):
        assert lambert_w_real(-1.0, -0.1) == lambert_w_real(-1, -0.1)
        with pytest.raises(DomainError):
            lambert_w_real(-0.5, -0.1)


class TestHalleyGuards:
    """The paths of the Halley loop that stop or move it outside its step
    test, on both entry points."""

    @pytest.mark.parametrize("k", [0, -1])
    def test_branch_point_nudge(self, k):
        # the seed is exactly -1, where the update divides by 2(w + 1) = 0:
        # step 1 moves w by 1e-8, and step 5 stops on f = 0
        assert wfunc._initial_guess(k, BRANCH_POINT_Z + 0j, cmath.sqrt, cmath.log) == -1
        ev = lambert_w(k, BRANCH_POINT_Z)
        assert repr(ev.value) == "(-1.0000000025384745+0j)"
        assert (ev.residual, ev.iterations) == (0.0, 5)
        assert ev.value * cmath.exp(ev.value) == BRANCH_POINT_Z

    @pytest.mark.parametrize("x, w, iterations", [(math.e, "(1+0j)", 1), (2 * math.e**2, "(2+0j)", 3)])
    def test_exact_roots(self, x, w, iterations):
        ev = lambert_w(0, x)
        assert (repr(ev.value), ev.iterations) == (w, iterations)
        assert lambert_w_real(0, x) == ev.value.real

    def test_loop_returns_w_as_it_is(self):
        # f = 0 before a step: the seed comes back with its zero signs, where
        # a zero step would turn 1 - 0j into 1 + 0j
        w, it, stepped = wfunc._halley(math.e + 0j, complex(1.0, -0.0), cmath.exp)
        assert (repr(w), it, stepped) == ("(1-0j)", 1, True)
        # w = 0 at z = -1: f = 1 and the update's denominator 1 + z is 0
        assert wfunc._halley(-1.0, 0.0, math.exp) == (0.0, 1, True)
        assert wfunc._halley(-1 + 0j, 0j, cmath.exp) == (0j, 1, True)

    def test_real_path_stops_on_a_zero_residual(self, monkeypatch):
        calls, real_halley = [], wfunc._halley

        def halley(z, w, exp):
            calls.append(real_halley(z, w, exp))
            return calls[-1]

        monkeypatch.setattr(wfunc, "_halley", halley)
        x = math.nextafter(BRANCH_POINT_Z, 0.0)
        w = lambert_w_real(-1, x)
        assert calls == [(w, 2, True)]
        assert w * math.exp(w) - x == 0.0
        assert repr(w) == "-1.0000000124475061"


class TestRealFastPath:
    def test_examples(self):
        assert lambert_w_real(0, 0.0) == 0.0
        assert lambert_w_real(-1, BRANCH_POINT_Z) == -1.0
        assert abs(lambert_w_real(-1, -0.1) - W_MINUS1_AT_MINUS_01) < 1e-13

    def test_minus1_against_bisection_oracle(self):
        assert abs(w_minus1_real(-0.1) - W_MINUS1_AT_MINUS_01) < 1e-12
        for x in (-0.35, -0.2, -0.05, -1e-4):
            assert abs(lambert_w_real(-1, x) - w_minus1_real(x)) < 1e-12 * (1 + abs(w_minus1_real(x)))

    def test_principal_against_bisection_oracle(self):
        for x in (-0.3, -0.1, 0.5, 1.0, 7.0, 123.0):
            assert abs(lambert_w_real(0, x) - w_principal_real(x)) < 1e-12 * (1 + abs(x))

    def test_agreement_with_complex_path(self):
        xs = list(np.linspace(BRANCH_POINT_Z + 1e-9, 10.0, 80))
        for x in xs:
            assert rel(lambert_w_real(0, x), lambert_w(0, x).value.real) < 1e-14
        for x in np.linspace(BRANCH_POINT_Z + 1e-9, -1e-3, 40):
            assert rel(lambert_w_real(-1, x), lambert_w(-1, x).value.real) < 1e-14

    def test_monotonic_on_principal_domain(self):
        xs = np.linspace(BRANCH_POINT_Z, 10.0, 300)
        ws = [lambert_w_real(0, x) for x in xs]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(wfunc, "_MAX_ITER", 1)
        with pytest.raises(NoConvergence):
            lambert_w_real(0, 100.0)
        with pytest.raises(NoConvergence):  # the log-space Newton of a subnormal x
            lambert_w_real(-1, -1e-320)

    @pytest.mark.parametrize("k, x", [
        (-1, -0.3678639094400098),
        (-1, -0.36718813560618574),
        (0, -0.36713134257474883),
        (-1, -0.3677834686057285),
    ])
    def test_rounding_stall_stops_early(self, k, x):
        # Within 1e-3 of -1/e the relative step settles near 1.2e-15, just
        # above the 1e-15 tolerance, once the residual is ~4e-17; Halley
        # stops at the stall instead of running all _MAX_ITER steps.
        ev = lambert_w(k, x)
        assert ev.iterations <= 8
        oracle = w_principal_real if k == 0 else w_minus1_real
        assert abs(ev.value - oracle(x)) < 1e-12
        assert abs(lambert_w_real(k, x) - oracle(x)) < 1e-12


class TestPrincipalBranch:
    """W_0 must land on branch 0, not only satisfy w*e^w = z."""

    def test_real_axis_against_bisection_oracle(self):
        # From the five-term asymptotic seed Halley does not settle at 1.553
        # and 1.608 (NoConvergence).
        for x in [*np.linspace(1.4, 4.0, 261), 1.553, 1.608]:
            assert abs(lambert_w(0, x).value - w_principal_real(x)) < 1e-12 * (1 + x)

    def test_polar_grid_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        zs = [cmath.rect(r, t) for r in np.logspace(-2, 3, 120)
              for t in np.linspace(-math.pi, math.pi, 360)[1:]]
        zs += list(np.linspace(1.4, 4.0, 500))
        wrong, failed = [], []
        for z in zs:
            try:
                w = lambert_w(0, z).value
            except NoConvergence:
                failed.append(z)
                continue
            ref = complex(mpmath.fp.lambertw(z, 0))
            if abs(w - ref) > 1e-8 * (1 + abs(ref)):
                wrong.append(z)
        assert (len(wrong), len(failed)) == (0, 0), (wrong[:5], failed[:5])


def log_radial_grid(n_radii=25, n_angles=40):
    zs = []
    for r in np.logspace(-3, 3, n_radii):
        for t in np.linspace(-math.pi + 0.03, math.pi, n_angles):
            z = r * cmath.exp(1j * t)
            if abs(z) > 0 and abs(z - BRANCH_POINT_Z) > 1e-6:
                zs.append(z)
    return zs


class TestFunctionalIdentity:
    def test_identity_on_grid_all_branches(self):
        zs = log_radial_grid()
        for k in range(-5, 6):
            for z in zs:
                ev = lambert_w(k, z)
                assert abs(ev.value * cmath.exp(ev.value) - z) <= 1e-12 * (1 + abs(z))

    def test_branch_separation(self):
        zs = [0.7 + 0.3j, -0.2 + 0.9j, 2.0 - 1.0j, -3.0 + 0.5j, 0.05 + 0.01j]
        for z in zs:
            vals = [lambert_w(k, z).value for k in range(-5, 6)]
            for i, a in enumerate(vals):
                for b in vals[i + 1 :]:
                    assert abs(a - b) > 1e-9

    def test_residual_field_contract(self):
        for k in (-3, 0, 2):
            for z in (0.5 + 0.5j, -2.0 + 0.1j, 100.0 + 0j):
                assert lambert_w(k, z).residual <= 1e-12

    def test_far_branches_supported(self):
        for k in (-64, -64, 17, 64):
            for z in (1.0 + 0j, -2.5 + 0.3j, 1e4j):
                ev = lambert_w(k, z)
                assert ev.residual <= 1e-12
                # strip check: Im W_k ~ 2*pi*k for large |k|
                assert abs(ev.value.imag - 2 * math.pi * k) < 2 * math.pi


@settings(max_examples=150, deadline=None)
@given(
    re=st.floats(-5, 5, allow_nan=False),
    im=st.floats(0.01, 5, allow_nan=False),
)
def test_conjugate_symmetry(re, im):
    z = complex(re, im)  # strictly off the real axis, so off the W_0 cut
    w_up = lambert_w(0, z).value
    w_dn = lambert_w(0, z.conjugate()).value
    assert abs(w_dn - w_up.conjugate()) <= 1e-13 * (1 + abs(w_up))


def _squarefree_regulators(count):
    radicands = (d for d in range(2, 10 * count) if is_squarefree(d))
    return [fundamental_unit(d).regulator for _, d in zip(range(count), radicands)]


@pytest.mark.parametrize("j", range(-3, 4))
def test_conjugate_symmetry_is_exact_on_unit_arguments(j):
    # solver.alpha_real_case takes W_-j(2*pi*i*L) as the conjugate of
    # W_j(-2*pi*i*L); that shortcut is only sound if the two agree bit for bit.
    for reg in _squarefree_regulators(300):
        z = -2j * math.pi * reg
        assert lambert_w(-j, z.conjugate()).value == lambert_w(j, z).value.conjugate(), reg


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(-5, 5),
    r=st.floats(0.01, 100.0),
    t=st.floats(-3.1, 3.14),
)
def test_identity_random(k, r, t):
    z = r * cmath.exp(1j * t)
    if abs(z - BRANCH_POINT_Z) < 1e-6:
        return
    ev = lambert_w(k, z)
    assert abs(ev.value * cmath.exp(ev.value) - z) <= 1e-12 * (1 + abs(z))


class TestTinyArguments:
    """|z| around and below the smallest normal float, where e^w at W_k(z),
    k != 0, becomes subnormal."""

    RADII = (5e-324, 6.283e-320, 1e-315, 1e-310, 2.2e-308, 2.3e-308, 1e-305)
    ZS = [cmath.rect(r, t) for r in RADII for t in np.linspace(-math.pi, math.pi, 24)[1:]]
    ZS += [-6.283e-320, 1e-315, -5e-324]

    def test_nonzero_branches_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for k in (-3, -2, -1, 1, 2, 3):
            for z in self.ZS:
                ev = lambert_w(k, z)
                ref = complex(mpmath.lambertw(z, k))
                assert abs(ev.value - ref) <= 1e-13 * abs(ref), (k, z, ev, ref)
                assert ev.iterations < 10

    def test_real_minus_one_branch_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for x in (-5e-324, -6.283e-320, -1e-315, -1e-310, -2.2e-308, -2.3e-308, -1e-305):
            ref = float(mpmath.lambertw(x, -1).real)
            assert abs(lambert_w_real(-1, x) - ref) <= 1e-13 * abs(ref), x
            assert abs(lambert_w(-1, x).value - ref) <= 1e-13 * abs(ref), x

    def test_real_minus_one_branch_bits_are_pinned(self):
        # every subnormal bit length of the mantissa, both ends of
        # (-_TINY_Z, 0) among them; the digest of the float bits as the
        # real fast path's own Newton gave them, before that path was routed
        # through _lambert_w_log
        rng = random.Random(2026)
        xs = [-5e-324, -2.225e-308, -math.nextafter(wfunc._TINY_Z, 0.0)]
        xs += [-(rng.getrandbits(rng.randrange(1, 53)) or 1) * 5e-324 for _ in range(400)]
        assert all(-wfunc._TINY_Z < x < 0.0 for x in xs)
        text = ",".join(lambert_w_real(-1, x).hex() for x in xs)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7e093d1138f560826077a1a906938f2d84493a030f28a60147000355bc504c0c"
        )

    def test_subnormal_bits_are_pinned(self):
        # value, residual and iterations of W_k, |k| <= 3, on subnormal z:
        # magnitudes down to 5e-324 on both sides of the real axis with Im z
        # of either zero sign or one or two units of the last place, where
        # the side of W_-1's cut is decided (-2.2e-308 - 5e-324j among them),
        # points on the imaginary axis, and random z; the digest as lambert_w
        # gave them before its log-space Newton was shared with the solver,
        # but that a real negative z with Im z = -0.0 now gives, on every
        # branch, the bits it gives with Im z = +0.0
        rng = random.Random(2025)
        mags = [5e-324, 1e-323, 2.2e-308, math.nextafter(wfunc._TINY_Z, 0.0)]
        mags += [(rng.getrandbits(rng.randrange(1, 53)) or 1) * 5e-324 for _ in range(60)]
        zs = [complex(s * m, y) for m in mags for s in (1.0, -1.0)
              for y in (0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323)]
        zs += [complex(x, s * m) for m in mags[:20] for s in (1.0, -1.0) for x in (0.0, -0.0)]
        for _ in range(400):
            r = math.ldexp(rng.uniform(0.5, 1.0), -rng.randrange(1022, 1074))
            phi = rng.uniform(-math.pi, math.pi)
            zs.append(complex(r * math.cos(phi), r * math.sin(phi)))
        assert len(zs) == 1248 and all(0.0 < abs(z) < wfunc._TINY_Z for z in zs)
        parts = []
        for k in (1, -1, 2, -2, 3, -3):
            for z in zs:
                ev = lambert_w(k, z)
                parts.append(f"{ev.value.real.hex()} {ev.value.imag.hex()} {ev.residual.hex()} {ev.iterations}")
        assert hashlib.sha256(",".join(parts).encode()).hexdigest() == (
            "719af5bc6c184c97d88496ee26056588a8cea2d281bf96b50427cb25b28a150f"
        )


def _seed_boundary_points(seed: int = 2026) -> tuple[list[complex], list[complex]]:
    """Seeded points on both sides of every boundary of the seed table, off
    the real axis: the circle |z + 1/e| = 0.3, the four edges of the Pade box
    (x = -1, x = 1.5, |y| = 1 and x = -2.5|y| - 0.2), the circle |z| = 2,
    and (second list) the circle |z| = _TINY_Z. Each point sits a relative
    distance of 1e-12 to 1e-3 inside or outside its boundary."""
    rng = random.Random(seed)

    def offset():
        return rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(3, 12)

    def angle():  # off the real axis
        return rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, math.pi - 1e-3)

    zs = []
    for _ in range(900):
        zs += [BRANCH_POINT_Z + cmath.rect(0.3 * (1 + offset()), angle()), cmath.rect(2.0 * (1 + offset()), angle())]
    for _ in range(550):
        y = rng.choice((-1.0, 1.0)) * rng.uniform(0.32, 1.0)  # where x = -1 bounds the box
        zs.append(complex(-1.0 + offset(), y))
        zs.append(complex(1.5 * (1 + offset()), rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 1.0)))
        zs.append(complex(rng.uniform(-1.0, 1.5), rng.choice((-1.0, 1.0)) * (1 + offset())))
        y = rng.uniform(1e-3, 0.32)  # where x = -2.5|y| - 0.2 bounds it
        zs.append(complex(-2.5 * y - 0.2 + offset(), rng.choice((-1.0, 1.0)) * y))
    tiny = [cmath.rect(wfunc._TINY_Z * (1 + offset()), angle()) for _ in range(400)]
    return zs, tiny


def _axis_points(seed: int = 2027) -> list[float]:
    """Seeded x on the negative real axis, where the seed table changes:
    a relative 1e-12 to 1e-3 on either side of x = -1/e + 0.3, -1/e - 0.3,
    -2 and -_TINY_Z, and subnormal x."""
    rng = random.Random(seed)
    xs = []
    for edge in (BRANCH_POINT_Z + 0.3, BRANCH_POINT_Z - 0.3, -2.0, -wfunc._TINY_Z):
        xs += [edge * (1 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(3, 12)) for _ in range(80)]
    xs += [-(rng.getrandbits(rng.randrange(1, 53)) or 1) * 5e-324 for _ in range(80)]
    return xs


class TestSeedBoundaries:
    def test_every_branch_against_mpmath_and_distinct(self):
        # each W_k, |k| <= 3, on both sides of every seed boundary, against
        # mpmath; no two branches share a value at any point
        mpmath = pytest.importorskip("mpmath")
        zs, tiny = _seed_boundary_points()
        assert len(zs) + len(tiny) == 4400 and all(z.imag for z in zs + tiny)
        off, shared = [], []
        for z, lambertw in [(z, mpmath.fp.lambertw) for z in zs] + [(z, mpmath.lambertw) for z in tiny]:
            ws = [lambert_w(k, z).value for k in range(-3, 4)]
            for k, w in zip(range(-3, 4), ws):
                ref = complex(lambertw(z, k))
                if abs(w - ref) > 1e-10 * abs(ref):
                    off.append((k, z, w, ref))
            if any(abs(a - b) <= 1e-9 for i, a in enumerate(ws) for b in ws[i + 1 :]):
                shared.append(z)
        assert (off[:5], shared[:5]) == ([], [])

    def test_the_negative_real_axis_at_both_zero_signs(self):
        # the same on the cut, where a zero Im z of either sign is taken from
        # above; mpmath reads no sign of zero
        mpmath = pytest.importorskip("mpmath")
        xs = _axis_points()
        assert len(xs) == 400 and all(x < 0.0 for x in xs)
        off, shared = [], []
        for x in xs:
            refs = [complex(mpmath.lambertw(x, k)) for k in range(-3, 4)]
            for y in (0.0, -0.0):
                ws = [lambert_w(k, complex(x, y)).value for k in range(-3, 4)]
                for k, w, ref in zip(range(-3, 4), ws, refs):
                    if abs(w - ref) > 1e-10 * abs(ref):
                        off.append((k, complex(x, y), w, ref))
                if any(abs(a - b) <= 1e-9 for i, a in enumerate(ws) for b in ws[i + 1 :]):
                    shared.append(complex(x, y))
        assert (off[:5], shared[:5]) == ([], [])

    @pytest.mark.parametrize("x", [-6.283e-320, -0.2, -0.6669, -0.6689, -5.0])
    def test_a_zero_imaginary_part_of_either_sign_is_above_the_cut(self, x):
        # one rule in every seed region: Im z = -0.0 gives the bits of
        # Im z = +0.0 on every branch, and W_1 and W_-1 stay apart
        def bits(k, y):
            ev = lambert_w(k, complex(x, y))
            return ev.value.real.hex(), ev.value.imag.hex(), ev.residual.hex(), ev.iterations

        for k in range(-3, 4):
            assert bits(k, -0.0) == bits(k, 0.0), k
        assert lambert_w(1, complex(x, -0.0)).value != lambert_w(-1, complex(x, -0.0)).value


class TestDerivative:
    def test_at_zero(self):
        assert abs(w_derivative(0, 0) - 1.0) < 1e-14

    def test_at_e(self):
        assert abs(w_derivative(0, math.e) - 1.0 / (2.0 * math.e)) < 1e-14

    def test_finite_difference_at_one(self):
        h = 1e-6
        fd = (lambert_w(0, 1 + h).value - lambert_w(0, 1 - h).value) / (2 * h)
        assert abs(w_derivative(0, 1) - fd) <= 1e-6 * abs(fd)

    def test_finite_difference_random_grid(self):
        rng = np.random.default_rng(42)
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
            d = w_derivative(k, z)
            assert abs(d - fd) <= 1e-6 * (1 + abs(fd))
            count += 1

    def test_branch_point_singularity(self):
        with pytest.raises(BranchPointSingularity):
            w_derivative(0, BRANCH_POINT_Z)
        with pytest.raises(BranchPointSingularity):
            w_derivative(0, BRANCH_POINT_Z + 1e-13)
        with pytest.raises(BranchPointSingularity):
            w_derivative(-1, complex(BRANCH_POINT_Z, 0.0))
        # only W_0 and W_-1 reach w = -1 at -1/e + 0i; on the other branches
        # dW/dz is w / (z (1 + w)) there
        mpmath = pytest.importorskip("mpmath")
        for k in (1, 2, -2, 3):
            w = mpmath.lambertw(BRANCH_POINT_Z, k)
            ref = complex(w / (BRANCH_POINT_Z * (1 + w)))
            assert abs(w_derivative(k, complex(BRANCH_POINT_Z, 0.0)) - ref) <= 1e-10 * abs(ref), k


class TestSeries:
    def test_zero(self):
        assert w_series(0, 1) == 0
        assert w_series(0, 170) == 0

    def test_first_term_is_z(self):
        assert w_series(0.1, 1) == pytest.approx(0.1, abs=0)

    def test_agreement_with_halley_at_01(self):
        assert abs(w_series(0.1, 30) - lambert_w(0, 0.1).value) <= 1e-12

    def test_agreement_inside_disc(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = 0.2 * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) * rng.uniform(0.1, 1.0)
            assert abs(w_series(z, 40) - lambert_w(0, z).value) <= 1e-10

    @pytest.mark.parametrize("n_terms", [3.7, math.nan, math.inf, "3"])
    def test_non_integral_terms_are_a_domain_error(self, n_terms):
        # n_terms is read by the rule of a branch index, not truncated
        with pytest.raises(DomainError, match="n_terms"):
            w_series(0.1, n_terms)

    def test_integral_terms_are_taken_as_ints(self):
        for n_terms in (3.0, np.int64(3), np.float64(3.0)):
            assert w_series(0.1, n_terms) == w_series(0.1, 3)
        assert w_series(0.1, True) == w_series(0.1, 1)

    def test_term_limit(self):
        with pytest.raises(TermLimitExceeded):
            w_series(0.1, 171)
        with pytest.raises(TermLimitExceeded):
            w_series(0.1, 0)

    def test_large_order_still_finite(self):
        v = w_series(0.3, 170)
        assert cmath.isfinite(v)
