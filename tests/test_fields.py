import json
import math
import subprocess
import sys
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgw.errors import (
    DegenerateD,
    NotFundamental,
    NotImaginary,
    NotSquarefree,
    OddDegree,
    PrecisionLoss,
    SquareDiscriminant,
    TermLimitExceeded,
)
from lgw.fields import (
    FundamentalUnit,
    class_number,
    class_number_analytic,
    describe_field,
    discriminant_of_radicand,
    fundamental_discriminants,
    fundamental_unit,
    is_fundamental_discriminant,
    is_squarefree,
    kronecker_symbol,
    radicand_of_discriminant,
    roots_of_unity,
    unit_rank,
)

import lgw.fields
from oracles import (
    class_number_prime_real,
    class_numbers_imaginary_batch,
    form_distance_sum,
    legendre_euler,
    narrow_class_number_brute,
    pell_minimal_unit,
    reduced_definite_form_counts_brute,
    reduced_definite_form_counts_loop,
    reduced_definite_forms_brute,
    real_class_numbers_cycles,
    unit_full_period,
)

HEEGNER_DISCRIMINANTS = [-3, -4, -7, -8, -11, -19, -43, -67, -163]
HEEGNER_RADICANDS = [-1, -2, -3, -7, -11, -19, -43, -67, -163]


class TestDescribeField:
    def test_imaginary(self):
        f = describe_field(-1)
        assert (f.D, f.sigma1, f.sigma2, f.unit_rank) == (-4, 0, 1, 0)

    def test_real(self):
        f = describe_field(2)
        assert (f.D, f.sigma1, f.sigma2, f.unit_rank) == (8, 2, 0, 1)

    def test_signature_relations_hold(self):
        for d in (-10, -5, -2, 3, 7, 15, 21, 101):
            if not is_squarefree(d):
                continue
            f = describe_field(d)
            assert f.sigma1 + 2 * f.sigma2 == 2
            assert f.sigma1 * f.sigma2 == 0
            assert f.unit_rank == f.sigma1 + f.sigma2 - 1

    def test_errors(self):
        with pytest.raises(NotSquarefree):
            describe_field(12)
        with pytest.raises(DegenerateD):
            describe_field(0)
        with pytest.raises(DegenerateD):
            describe_field(1)


def _primes_above(n: int, count: int) -> list[int]:
    """The first `count` primes above n, by trial division."""
    primes, p = [], n + 1
    while len(primes) < count:
        if p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1)):
            primes.append(p)
        p += 1
    return primes


class TestSquarefree:
    # [1, 2*10^5] whole; near 10^9 and 10^12 windows of 2*10^4 and 10^4,
    # where the trial division runs longest per n
    @pytest.mark.parametrize("lo, hi", [(1, 200_000), (10**9, 10**9 + 20_000),
                                        (10**12 - 5_000, 10**12 + 5_000)])
    def test_matches_the_sieve(self, lo, hi):
        assert [is_squarefree(n) for n in range(lo, hi + 1)] == lgw.fields._squarefree_mask(lo, hi).tolist()

    def test_factors_above_the_cube_root(self):
        # what is left after the divisions below n^(1/3) is a prime, a product
        # of two, or the square of one
        p, q = _primes_above(10**6, 2)
        assert not is_squarefree(p * p)
        assert not is_squarefree(3 * p * p)
        assert not is_squarefree(2 * p * p)
        assert not is_squarefree(p**3)
        assert is_squarefree(p * q)
        assert is_squarefree(6 * p * q)
        assert is_squarefree(p)
        assert not is_squarefree(9 * p * q)

    def test_small_and_negative(self):
        assert not is_squarefree(0)
        assert is_squarefree(1) and is_squarefree(-1)
        assert [is_squarefree(n) for n in range(-12, 0)] == [is_squarefree(n) for n in range(12, 0, -1)]
        assert is_squarefree(-163) and not is_squarefree(-18)

    def test_ceiling(self):
        # |n| up to 10^21 is tested; past it, and so for the calls that test
        # a D, d or D/4 past it, TermLimitExceeded before any division
        assert is_squarefree(10**21) is False and is_squarefree(-10**21) is False
        for call, n in ((is_squarefree, 10**21 + 1), (is_squarefree, -(10**21 + 1)),
                        (is_fundamental_discriminant, -(10**27 + 103)), (roots_of_unity, -(10**24 + 7)),
                        (describe_field, 10**24 + 7), (discriminant_of_radicand, -(10**24 + 7)),
                        (radicand_of_discriminant, 4 * (10**24 + 7))):
            start = time.perf_counter()
            with pytest.raises(TermLimitExceeded, match="supported"):
                call(n)
            assert time.perf_counter() - start < 0.1, (call, n)

    def test_huge_n_is_fast(self):
        # about n^(1/3) / 2 divisions: a trial division up to sqrt(n) took
        # minutes here
        start = time.perf_counter()
        assert is_squarefree(10**18 + 3) is True
        assert time.perf_counter() - start < 1.0


class TestUnitRank:
    @pytest.mark.parametrize(
        "two_r,totally_real,expected",
        [
            (2, False, (0, 1, 0)),
            (2, True, (2, 0, 1)),
            (4, True, (4, 0, 3)),
            (4, False, (0, 2, 1)),
            (8, True, (8, 0, 7)),
            (8, False, (0, 4, 3)),
        ],
    )
    def test_cases(self, two_r, totally_real, expected):
        assert unit_rank(two_r, totally_real) == expected

    def test_relations(self):
        for two_r in range(2, 40, 2):
            for tr in (True, False):
                s1, s2, rank = unit_rank(two_r, tr)
                assert s1 + 2 * s2 == two_r
                assert s1 * s2 == 0
                assert rank == s1 + s2 - 1

    def test_odd_degree(self):
        with pytest.raises(OddDegree):
            unit_rank(3, True)
        with pytest.raises(OddDegree):
            unit_rank(0, False)


class TestRootsOfUnity:
    def test_gaussian(self):
        mu = roots_of_unity(-4)
        assert mu.n == 4
        assert set(mu.elements) == {1 + 0j, 1j, -1 + 0j, -1j}

    def test_eisenstein(self):
        mu = roots_of_unity(-3)
        assert mu.n == 6
        s = math.sqrt(3) / 2
        expected = {1 + 0j, -1 + 0j, complex(0.5, s), complex(-0.5, s),
                    complex(0.5, -s), complex(-0.5, -s)}
        assert all(min(abs(e - x) for x in expected) < 1e-15 for e in mu.elements)

    def test_generic(self):
        assert set(roots_of_unity(-7).elements) == {1 + 0j, -1 + 0j}

    def test_each_is_a_root_of_unity(self):
        for D in (-3, -4, -7, -8, -20):
            mu = roots_of_unity(D)
            for z in mu.elements:
                assert abs(z**mu.n - 1) <= 1e-14

    def test_union_is_the_eight_units(self):
        seen = set()
        for D in HEEGNER_DISCRIMINANTS:
            for z in roots_of_unity(D).elements:
                seen.add((round(z.real, 12), round(z.imag, 12)))
        assert len(seen) == 8
        s = math.sqrt(3) / 2
        expected = {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                    (0.5, s), (-0.5, s), (-0.5, -s), (0.5, -s)}
        assert {(round(a, 12), round(b, 12)) for a, b in expected} == seen

    def test_elements_and_their_order(self):
        # the constants and order of the scan's torsion roots, signed zeros too
        assert repr(roots_of_unity(-3).elements) == (
            "((1+0j), (0.5+0.8660254037844386j), (-0.5+0.8660254037844386j), (-1+0j), "
            "(-0.5-0.8660254037844386j), (0.5-0.8660254037844386j))"
        )
        assert repr(roots_of_unity(-4).elements) == "((1+0j), 1j, (-1+0j), (-0-1j))"
        assert repr(roots_of_unity(-7).elements) == "((1+0j), (-1+0j))"

    def test_not_imaginary(self):
        with pytest.raises(NotImaginary):
            roots_of_unity(8)
        with pytest.raises(NotFundamental):
            roots_of_unity(-12)


class TestFundamentalUnit:
    def test_small_units_match_sweep_oracle(self):
        # d=2: 1+sqrt(2); d=5: (1+sqrt(5))/2 -- both frozen from the oracle
        u2 = fundamental_unit(2)
        assert (u2.x, u2.y, u2.half_integral, u2.norm) == (1, 1, False, -1)
        u5 = fundamental_unit(5)
        assert (u5.x, u5.y, u5.half_integral, u5.norm) == (1, 1, True, -1)
        assert pell_minimal_unit(2, 100) == (1, 1, -1)
        assert pell_minimal_unit(5, 100) == (1, 1, -1)

    def test_d94_frozen_and_oracle(self):
        u = fundamental_unit(94)
        assert (u.x, u.y, u.half_integral, u.norm) == (2143295, 221064, False, 1)
        assert pell_minimal_unit(94, 250_000) == (2143295, 221064, 1)

    def test_pell_relation_exact_to_500(self):
        for d in range(2, 501):
            if not is_squarefree(d):
                continue
            u = fundamental_unit(d)
            assert u.pell_residual() == 0
            assert u.regulator > 0

    def test_minimality_against_sweep_below_cap(self):
        cap = 10_000
        for d in range(2, 120):
            if not is_squarefree(d):
                continue
            u = fundamental_unit(d)
            # oracle works in half-integral coordinates for d = 1 mod 4
            if d % 4 == 1 and not u.half_integral:
                cf = (2 * u.x, 2 * u.y, u.norm)
            else:
                cf = (u.x, u.y, u.norm)
            got = pell_minimal_unit(d, cap)
            if got is None:
                # no unit with y <= cap exists, so the CF unit must be beyond it
                assert cf[1] > cap
            else:
                assert cf == got

    def test_regulator_matches_value(self):
        for d in range(2, 101):
            if not is_squarefree(d):
                continue
            u = fundamental_unit(d)
            assert abs(math.exp(u.regulator) - u.value()) <= 1e-12 * u.value()
            assert u.value() > 1.0

    def test_regulator_highprecision_for_large_units(self):
        # independent log-space oracle: 60-digit decimal arithmetic
        from decimal import Decimal, getcontext

        getcontext().prec = 60
        for d in (94, 151, 211, 331, 409, 421):
            if not is_squarefree(d):
                continue
            u = fundamental_unit(d)
            val = Decimal(u.x) + Decimal(u.y) * Decimal(d).sqrt()
            if u.half_integral:
                val /= 2
            ref = float(val.ln())
            assert abs(u.regulator - ref) <= 1e-12 * ref

    def test_errors(self):
        with pytest.raises(NotSquarefree):
            fundamental_unit(8)
        with pytest.raises(DegenerateD):
            fundamental_unit(1)
        with pytest.raises(DegenerateD):
            fundamental_unit(-5)

    def test_step_cap_is_a_term_limit(self, monkeypatch):
        # d = 94 is squarefree with a period of 16; a cap below it must not
        # be reported as a square factor
        monkeypatch.setattr("lgw.fields._CF_STEP_LIMIT", 5)
        with pytest.raises(TermLimitExceeded):
            fundamental_unit(94)
        assert fundamental_unit(2).x == 1

    def test_label_past_the_int_digit_limit_is_a_term_limit(self):
        # the unit of d = 99999971 has 5,346 digits, past CPython's default
        # 4,300-digit limit on writing an int; a limit of 0 lifts it
        u = fundamental_unit(99999971)
        assert u.regulator == pytest.approx(12308.38, abs=0.01)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            with pytest.raises(TermLimitExceeded, match=r"d=99999971 has about 5346 digits"):
                u.as_string()
            sys.set_int_max_str_digits(0)
            assert u.as_string() == f"{u.x}+{u.y}*sqrt(99999971)"
            assert len(str(u.x)) == 5346
        finally:
            sys.set_int_max_str_digits(limit)


class TestBatchedUnits:
    """fields._unit_columns runs _cf_unit's continued fraction for many d at
    once, a block of _CF_BATCH_ROWS radicands at a time, every row of a block
    to the middle of its period. Both stop at that middle and share one
    finish, so both are checked against the walk over the whole period and
    the regulator formula of the oracles."""

    LARGE = [99_999_989, 99_999_971, 94_418_953, 12_345_679, 9_699_691]

    @staticmethod
    def radicands(hi):
        return np.array([d for d in range(2, hi + 1) if is_squarefree(d)], dtype=np.int64)

    @staticmethod
    def assert_units_match_full_period(d):
        expected = [unit_full_period(int(v)) for v in d]
        assert [astuple(lgw.fields._unit_of_squarefree(int(v)))[1:] for v in d] == expected
        assert list(zip(*lgw.fields._unit_columns(d))) == expected

    @pytest.mark.parametrize("bound, rows", [(None, None), (1 << 6, 7)],
                             ids=["default", "tiny-bound-and-batch"])
    def test_matches_scalar_continued_fraction(self, monkeypatch, bound, rows):
        # a tiny int64 bound hands the convergents to Python ints after every
        # step; blocks of seven rows split the radicands hundreds of times
        if bound is not None:
            monkeypatch.setattr(lgw.fields, "_CF_INT64_BOUND", bound)
            monkeypatch.setattr(lgw.fields, "_CF_BATCH_ROWS", rows)
        d = self.radicands(3000)
        self.assert_units_match_full_period(d)
        cols = lgw.fields._unit_columns(d)
        assert [lgw.fields.FundamentalUnit(int(v), *u) for v, u in zip(d, zip(*cols))] == [
            fundamental_unit(int(v)) for v in d
        ]

    def test_large_radicands(self):
        # periods of thousands of steps, and units of tens of thousands of bits
        d = np.array(self.LARGE, dtype=np.int64)
        assert all(is_squarefree(int(v)) for v in d)
        self.assert_units_match_full_period(d)

    @pytest.mark.parametrize("bound", [None, 1 << 6], ids=["default", "tiny-bound"])
    def test_two_lanes_keep_input_order(self, monkeypatch, bound):
        # short and long periods mixed, so the two rows of a block reach
        # their middles at different steps, the second often first; each
        # result still lands on its own row
        monkeypatch.setattr(lgw.fields, "_CF_BATCH_ROWS", 2)
        if bound is not None:
            monkeypatch.setattr(lgw.fields, "_CF_INT64_BOUND", bound)
        d = [2, 99_999_941, 94, 3, 5, 2999, 991, 6, 99_999_941, 7, 13, 94, 2]
        d += np.random.default_rng(20261019).permutation(self.radicands(400)).tolist()
        self.assert_units_match_full_period(np.array(d, dtype=np.int64))

    def test_regulator_matches_oracle_formula(self):
        # the regulators of the one finish equal the formula each unit was
        # once finished with, bit for bit
        for d in (self.radicands(3000), np.array(self.LARGE, dtype=np.int64)):
            expected = [unit_full_period(int(v))[4] for v in d]
            assert lgw.fields._unit_columns(d).regulator == expected

    def test_step_cap_is_a_term_limit(self, monkeypatch):
        monkeypatch.setattr(lgw.fields, "_CF_STEP_LIMIT", 5)
        with pytest.raises(TermLimitExceeded, match="d=94 did not close within 5 steps"):
            lgw.fields._unit_columns(np.array([2, 94], dtype=np.int64))

    def test_step_cap_counts_each_rows_own_steps(self, monkeypatch):
        # hundreds of blocks of two rows, far more steps than the cap in all,
        # but every row closes within the cap on its own steps, as it does
        # for the scalar continued fraction
        monkeypatch.setattr(lgw.fields, "_CF_STEP_LIMIT", 5)
        monkeypatch.setattr(lgw.fields, "_CF_BATCH_ROWS", 2)
        short = []
        for v in self.radicands(3000).tolist():
            try:
                short.append((v, lgw.fields._unit_of_squarefree(v)))
            except TermLimitExceeded:
                pass
        assert len(short) > 300 and 94 not in dict(short)
        d = np.array([v for v, _ in short], dtype=np.int64)
        assert list(zip(*lgw.fields._unit_columns(d))) == [astuple(u)[1:] for _, u in short]
        with pytest.raises(TermLimitExceeded, match="d=94 did not close within 5 steps"):
            lgw.fields._unit_columns(np.insert(d, 150, 94))


class TestWideClassNumber:
    def test_sieve_cycles_give_h_and_unit_norm(self):
        # every fundamental D <= 2e4: h is h+ when the fundamental unit has
        # norm -1 and h+/2 when +1, and the norm is -1 exactly when h+ = h
        Ds = fundamental_discriminants(5, 20000)
        h_plus, h, _ = lgw.fields._real_class_numbers(np.array(Ds, dtype=np.int64))
        assert len(Ds) == 6081
        for D, hp, hw in zip(Ds, h_plus.tolist(), h.tolist()):
            norm = fundamental_unit(radicand_of_discriminant(D)).norm
            assert hw == (hp if norm == -1 else hp // 2), D
            assert (norm == -1) == (hp == hw), D

    def test_class_number_runs_no_continued_fraction(self, monkeypatch):
        # no scalar one: the unit columns come from the batched _cf_units
        Ds = (5, 40, 136, 145, 221, 1365, 2993)
        expected = [class_number_analytic(D) for D in Ds]
        calls = []
        original = lgw.fields._cf_unit

        def counting(d):
            calls.append(d)
            return original(d)

        monkeypatch.setattr(lgw.fields, "_cf_unit", counting)
        assert [class_number(D) for D in Ds] == expected
        assert class_number(99_999_989) >= 1  # near the ceiling
        assert calls == []

    def test_h_above_1e5_against_analytic(self, monkeypatch):
        # h = 4 and 2 (seeded D near 6.7e5) from one sieve call whose units
        # run in blocks of one row, against the character sum over a regulator from
        # the full-period oracle. A regulator wrong by an integer factor still
        # rounds to an integer h, but not to this one.
        rng = np.random.default_rng(20261019)
        lo = int(rng.integers(500_000, 1_000_000 - 2000))
        Ds = sorted(rng.choice(fundamental_discriminants(lo, lo + 2000), 2, replace=False).tolist())
        monkeypatch.setattr(lgw.fields, "_CF_BATCH_ROWS", 1)
        h = lgw.fields._real_class_numbers(np.array(Ds, dtype=np.int64))[1].tolist()
        monkeypatch.setattr(lgw.fields, "fundamental_unit", lambda d: FundamentalUnit(d, *unit_full_period(d)))
        assert h == [class_number_analytic(D) for D in Ds] == [4, 2]

    def test_prime_D_near_the_ceiling_against_character_sum(self):
        # seeded primes D = 1 mod 4 in [1e6, 2e6], past class_number_analytic's
        # reach and up to the real scan's ceiling: h against the character
        # sum over twice the full-period regulator, which a regulator wrong
        # by an integer factor would miss
        rng = np.random.default_rng(20261020)
        Ds = []
        while len(Ds) < 5:
            D = 4 * int(rng.integers(250_000, 500_000)) + 1
            if all(D % p for p in range(3, math.isqrt(D) + 1, 2)):
                Ds.append(D)
        for D in Ds:
            assert abs(class_number(D) - class_number_prime_real(D)) < 1e-6, D
        # the oracle itself, on small primes whose h is 3, 5 and 9
        for D in (229, 401, 1129):
            assert abs(class_number_analytic(D) - class_number_prime_real(D)) < 1e-6, D

    def test_against_the_cycle_sieve_to_1e5(self):
        # the pointer-doubling sieve lgw used before the distance sums
        Ds = np.array(fundamental_discriminants(5, 100_000), dtype=np.int64)
        h_plus, h, _ = lgw.fields._real_class_numbers(Ds)
        cycles_plus, cycles = real_class_numbers_cycles(Ds)
        assert len(Ds) == 30394
        assert h.tolist() == cycles.tolist()
        assert h_plus.tolist() == cycles_plus.tolist()

    def test_h_against_brute_cycles_and_unit_norm(self, narrow_brute):
        # h = h+ for a unit of norm -1 and h+/2 for norm +1, with h+ by the
        # brute-force cycle count and the norm from the unit's continued fraction
        for D, hp in narrow_brute.items():
            norm = fundamental_unit(radicand_of_discriminant(D)).norm
            assert class_number(D) == (hp if norm == -1 else hp // 2), D

    def test_h_against_analytic_on_a_sample(self):
        rng = np.random.default_rng(20261018)
        Ds = rng.choice(fundamental_discriminants(3001, 20000), 100, replace=False)
        for D in sorted(Ds.tolist()):
            assert class_number(D) == class_number_analytic(D), D

    def test_perturbed_regulator_trips_the_rounding_assert(self):
        Ds = np.array(fundamental_discriminants(5, 2000), dtype=np.int64)
        reg = np.array(lgw.fields._unit_columns(np.where(Ds % 4 == 1, Ds, Ds // 4)).regulator)
        distances = lgw.fields._distance_sums(Ds)
        h = lgw.fields._wide_class_numbers(Ds, distances, reg)
        assert h.tolist() == [class_number(D) for D in Ds]
        for factor in (1 + 1e-4, 1 - 1e-4, 2.0):
            with pytest.raises(AssertionError):
                lgw.fields._wide_class_numbers(Ds, distances, reg * factor)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_exactness_checks_survive_optimize(self, flags):
        # python -O drops assert statements; the Pell check on a unit and the
        # rounding check on h must still raise there
        code = (
            "import json\n"
            "import numpy as np\n"
            "from lgw import fields\n"
            "def trips(fn, *args):\n"
            "    try:\n"
            "        fn(*args)\n"
            "    except AssertionError:\n"
            "        return True\n"
            "    return False\n"
            "odd, a_m, q, q_, P, Q, Q_ = fields._cf_unit(2)\n"
            "pell = trips(fields._units_from_middle, [2], [odd], [a_m], [q], [q_], [P + 1], [Q], [Q_])\n"
            "Ds = np.array(fields.fundamental_discriminants(5, 2000), dtype=np.int64)\n"
            "reg = np.array(fields._unit_columns(np.where(Ds % 4 == 1, Ds, Ds // 4)).regulator)\n"
            "rounding = trips(fields._wide_class_numbers, Ds, fields._distance_sums(Ds), reg * 2.0)\n"
            "print(json.dumps([__debug__, pell, rounding]))\n"
        )
        res = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == [not flags, True, True]


class TestClassNumberForms:
    def test_heegner_values(self):
        for D in HEEGNER_DISCRIMINANTS:
            assert class_number(D) == 1

    def test_minus_23_forms(self):
        assert class_number(-23) == 3
        forms = reduced_definite_forms_brute(-23)
        assert forms == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}

    def test_brute_enumeration_agreement(self):
        for D in fundamental_discriminants(-200, -3):
            assert class_number(D) == len(reduced_definite_forms_brute(D))

    def test_positive_examples(self):
        assert class_number(5) == 1
        assert class_number(8) == 1
        assert class_number(40) == 2
        assert class_number(12) == 1
        assert class_number(12, narrow=True) == 2  # norm +1 halves the wide count

    def test_errors(self):
        with pytest.raises(NotFundamental):
            class_number(-12)
        with pytest.raises(SquareDiscriminant):
            class_number(16)
        with pytest.raises(NotFundamental):
            class_number(15)

    def test_batched_imaginary_class_numbers(self):
        # the scan's class numbers, in the scan's order (|D| ascending), read
        # off the form counts, against the walk over b of one D at a time
        D = np.array(fundamental_discriminants(-3000, -3)[::-1], dtype=np.int64)
        h = lgw.fields._imaginary_class_numbers(D)
        assert h.dtype == np.int64 and h.tolist() == [class_number(int(Di)) for Di in D]
        assert lgw.fields._imaginary_class_numbers(D[:0]).tolist() == []

    def test_imaginary_ceiling_is_a_term_limit(self, monkeypatch):
        # the check comes before any other: not even the squarefree test runs
        monkeypatch.setattr(lgw.fields, "is_squarefree", None)
        top = lgw.fields._MAX_IMAG_D
        for D in (-top - 3, -10000003, -(10**18) - 3):
            with pytest.raises(TermLimitExceeded):
                class_number(D)


@pytest.fixture(scope="module")
def narrow_brute():
    """h+ by the brute-force cycle count, for every fundamental D in [5, 3000]."""
    return {D: narrow_class_number_brute(D) for D in fundamental_discriminants(5, 3000)}


class TestRealFormSieve:
    # 64 forms a window puts window edges a few D apart at D ~ 3000, and
    # splits each window's (a, b) pairs into many blocks
    @pytest.mark.parametrize("window_forms", [None, 64], ids=["default-windows", "tiny-windows"])
    def test_against_brute_cycles(self, narrow_brute, monkeypatch, window_forms):
        if window_forms is not None:
            monkeypatch.setattr(lgw.fields, "_SIEVE_WINDOW_FORMS", window_forms)
        Ds = np.array(sorted(narrow_brute), dtype=np.int64)
        assert lgw.fields._real_class_numbers(Ds)[0].tolist() == [narrow_brute[D] for D in Ds]

    @pytest.mark.parametrize("window_forms", [None, 64], ids=["default-windows", "tiny-windows"])
    def test_radicand_set_against_brute_cycles(self, narrow_brute, monkeypatch, window_forms):
        # the D of the squarefree radicands d <= 750: D = d or 4d, not a range
        if window_forms is not None:
            monkeypatch.setattr(lgw.fields, "_SIEVE_WINDOW_FORMS", window_forms)
        Ds = sorted(d if d % 4 == 1 else 4 * d for d in range(2, 751) if is_squarefree(d))
        got = lgw.fields._real_class_numbers(np.array(Ds, dtype=np.int64))[0]
        assert got.tolist() == [narrow_brute[D] for D in Ds]

    @pytest.mark.parametrize("lo, hi", [(5, 3000), (2001, 4000)])
    @pytest.mark.parametrize("window_forms", [None, 64], ids=["default-windows", "tiny-windows"])
    def test_distance_sums_against_forms(self, monkeypatch, window_forms, lo, hi):
        # the sieve adds one log per (D, b) for a form and its mirror, and
        # takes half of it off once per (a, b) pair for the form a = m at
        # D = b^2 + 4a^2; 64 forms a block put a few b's in each block of
        # pairs, so the pairs a = m of one range fall in many blocks, and a
        # range from above 5 leaves out those whose D lies below it
        if window_forms is not None:
            monkeypatch.setattr(lgw.fields, "_SIEVE_WINDOW_FORMS", window_forms)
        Ds = fundamental_discriminants(lo, hi)
        assert any(math.isqrt(D - 4) ** 2 == D - 4 for D in Ds)  # (1, b, 1) at D = b^2 + 4
        sums = lgw.fields._distance_sums(np.array(Ds, dtype=np.int64))
        for D, got in zip(Ds, sums.tolist()):
            assert abs(got - form_distance_sum(D)) <= 1e-12 * got, D

    def test_distance_sums_round_to_h_at_the_ceiling(self):
        # sqrt(D) - b loses up to about D * 2^-54 of its value: seeded
        # fundamental D in the top 10^4 below _MAX_REAL_D, whose sums over the
        # regulator must still lie within 1e-9 of the h of the form-by-form sum
        top = lgw.fields._MAX_REAL_D
        rng = np.random.default_rng(20261029)
        Ds = sorted(rng.choice(fundamental_discriminants(top - 10**4, top), 5, replace=False).tolist())
        sums = lgw.fields._distance_sums(np.array(Ds, dtype=np.int64))
        for D, got in zip(Ds, sums.tolist()):
            regulator = fundamental_unit(radicand_of_discriminant(D)).regulator
            q = form_distance_sum(D) / regulator
            h = round(q)
            assert h >= 1 and abs(q - h) < 1e-9, (D, q)
            assert abs(got / regulator - h) < 1e-9, (D, got / regulator, h)

    def test_single_discriminants_against_brute_cycles(self, narrow_brute):
        for D in (5, 8, 12, 13, 40, 60, 65, 85, 136, 145, 221, 1365, 2029, 2920, 2993):
            assert class_number(D, narrow=True) == narrow_brute[D], D

    def test_ceiling_is_a_term_limit(self):
        top = lgw.fields._MAX_REAL_D
        for D in (top + 1, 4 * top + 1, 10**18 + 1):
            with pytest.raises(TermLimitExceeded):
                class_number(D)
            with pytest.raises(TermLimitExceeded):
                class_number(D, narrow=True)


class TestClassNumberAnalytic:
    def test_trivial(self):
        assert class_number_analytic(-4) == 1

    def test_minus_23(self):
        assert class_number_analytic(-23) == 3

    def test_positive(self):
        assert class_number_analytic(8) == 1
        assert class_number_analytic(40) == 2

    def test_oracle_agreement_to_600(self):
        for D in fundamental_discriminants(-600, 600):
            assert class_number(D) == class_number_analytic(D), D

    def test_truncated_character_sum_raises(self, monkeypatch):
        # a sum cut after five terms does not round to the class number
        kronecker = lgw.fields.kronecker_symbol
        monkeypatch.setattr(lgw.fields, "kronecker_symbol", lambda D, a: kronecker(D, a) if a <= 5 else 0)
        for D in (-163, 229):
            with pytest.raises(PrecisionLoss):
                class_number_analytic(D)

    def test_size_cap_is_a_term_limit(self):
        # fundamental just past 10^6 either side, and one far past it whose
        # fundamentality check alone would trial-divide for hours
        for D in (-1_000_003, 1_000_005, 10**30 + 1):
            assert abs(D) > lgw.fields._MAX_ANALYTIC_D
            with pytest.raises(TermLimitExceeded):
                class_number_analytic(D)


class TestKronecker:
    def test_character_mod_4(self):
        # chi_{-4} is the nontrivial character mod 4
        values = [kronecker_symbol(-4, a) for a in range(1, 9)]
        assert values == [1, 0, -1, 0, 1, 0, -1, 0]

    def test_bottom_cases(self):
        assert kronecker_symbol(1, 0) == 1
        assert kronecker_symbol(5, 0) == 0
        assert kronecker_symbol(2, 2) == 0

    def test_periodicity_fundamental(self):
        for D in (-7, -8, 5, 12, 13):
            if not is_fundamental_discriminant(D):
                continue
            per = abs(D)
            for a in range(1, 2 * per):
                assert kronecker_symbol(D, a) == kronecker_symbol(D, a + per)

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(-500, 500), p=st.sampled_from([3, 5, 7, 11, 13, 17, 19, 101, 499]))
    def test_euler_criterion(self, a, p):
        if a % p == 0:
            assert kronecker_symbol(a, p) == 0
        else:
            assert kronecker_symbol(a, p) == legendre_euler(a, p)

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(-300, 300), m=st.integers(1, 60), n=st.integers(1, 60))
    def test_multiplicative_in_bottom(self, a, m, n):
        assert kronecker_symbol(a, m * n) == kronecker_symbol(a, m) * kronecker_symbol(a, n)


class TestBatchSieve:
    def test_agreement_with_direct(self):
        counts = class_numbers_imaginary_batch(1500)
        for D in fundamental_discriminants(-1500, -3):
            assert counts[-D] == class_number(D)
        # a seeded sample up to 10^6, where the walk over b meets many divisors
        counts = class_numbers_imaginary_batch(10**6)
        Ds = np.random.default_rng(21).choice(fundamental_discriminants(-10**6, -3), 300, replace=False)
        for D in Ds.tolist():
            assert counts[-D] == class_number(D), D

    # every limit mod 4 and every small a, then sizes with many full
    # periodic rows and tails
    @pytest.mark.parametrize("limits", [range(0, 401), [4099], [20000], [300000]],
                             ids=["0-400", "4099", "20000", "300000"])
    def test_matches_strided_loop(self, limits):
        for limit in limits:
            got = class_numbers_imaginary_batch(limit)
            assert got.dtype == np.int64
            assert np.array_equal(got, reduced_definite_form_counts_loop(limit)), limit

    def test_matches_triple_loop_with_imprimitive_forms(self):
        assert class_numbers_imaginary_batch(2000).tolist() == reduced_definite_form_counts_brute(2000)

    def test_memory_peak_stays_near_result(self):
        # the int64 result is 8 MB; the residue classes add 2 MB and each
        # a's staircase stays below 1 MB
        tracemalloc.start()
        try:
            result = class_numbers_imaginary_batch(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * result.nbytes


class TestDiscriminantHelpers:
    def test_radicand_round_trip(self):
        for d in (-163, -2, -1, 2, 5, 94, 401):
            D = discriminant_of_radicand(d)
            assert is_fundamental_discriminant(D)
            assert radicand_of_discriminant(D) == d

    def test_heegner_radicands(self):
        assert [radicand_of_discriminant(D) for D in HEEGNER_DISCRIMINANTS] == [
            -3, -1, -7, -2, -11, -19, -43, -67, -163,
        ]
        assert sorted(HEEGNER_RADICANDS) == sorted(
            radicand_of_discriminant(D) for D in HEEGNER_DISCRIMINANTS
        )

    def test_fundamental_list(self):
        assert fundamental_discriminants(-20, -3) == [-20, -19, -15, -11, -8, -7, -4, -3]
        assert fundamental_discriminants(5, 30) == [5, 8, 12, 13, 17, 21, 24, 28, 29]

    # the sieve slices the class D = 4m at stride 16 from the smallest |D| of
    # each sign, so 32 consecutive ends of the range on each side of zero meet
    # every alignment of its start and of its end twice
    @pytest.mark.parametrize(
        "lo, hi",
        [(-5000, 5000), (-5000, -1), (-9, 13), (-1, 1), (0, 0), (1, 1), (-3, -3),
         (-4, 5), (2, 5000), (4990, 5000), (-5000, -4990), (10, 3)]
        + [(lo, -3) for lo in range(-5000, -4968)]
        + [(-700, hi) for hi in range(-34, -2)]
        + [(lo, 700) for lo in range(2, 34)]
        + [(5, hi) for hi in range(4969, 5001)],
    )
    def test_sieve_matches_trial_division(self, lo, hi):
        assert fundamental_discriminants(lo, hi) == [
            D for D in range(lo, hi + 1) if is_fundamental_discriminant(D)
        ]

    def test_range_past_a_ceiling_is_a_term_limit(self, monkeypatch):
        # the check comes before any other: not even the sieve's mask is made
        monkeypatch.setattr(lgw.fields, "_squarefree_mask", None)
        for lo, hi in ((-10**7 - 1, -3), (5, 10**8 + 1), (-10**18, 10**18)):
            with pytest.raises(TermLimitExceeded):
                fundamental_discriminants(lo, hi)
        monkeypatch.undo()
        edge = fundamental_discriminants(-10**7, -10**7 + 100)
        assert edge == [D for D in range(-10**7, -10**7 + 101) if is_fundamental_discriminant(D)]
        assert edge

    @pytest.mark.parametrize("lo, hi", [(-10**6, -3), (5, 10**6)])
    def test_sieve_memory_peak_stays_near_result(self, lo, hi):
        # the int64 result is 2.4 MB; the byte masks over the range and over
        # its quarter add 1.25 bytes per integer of the range, and a range of
        # one sign is negated in place
        tracemalloc.start()
        try:
            result = lgw.fields._fundamental_discriminant_array(lo, hi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.dtype == np.int64
        assert peak < 2 * result.nbytes
