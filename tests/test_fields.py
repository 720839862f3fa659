import math
from math import isqrt

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
    BinaryQuadraticForm,
    class_number,
    class_number_analytic,
    class_numbers_imaginary_batch,
    describe_field,
    discriminant_of_radicand,
    fundamental_discriminants,
    fundamental_unit,
    is_fundamental_discriminant,
    is_squarefree,
    kronecker_symbol,
    radicand_of_discriminant,
    reduce_form,
    roots_of_unity,
    unit_rank,
)

import lgw.fields
from oracles import (
    legendre_euler,
    narrow_class_number_brute,
    pell_minimal_unit,
    reduced_definite_forms_brute,
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
        assert lgw.fields._narrow_class_numbers(Ds).tolist() == [narrow_brute[D] for D in Ds]

    @pytest.mark.parametrize("window_forms", [None, 64], ids=["default-windows", "tiny-windows"])
    def test_radicand_set_against_brute_cycles(self, narrow_brute, monkeypatch, window_forms):
        # the D of the squarefree radicands d <= 750: D = d or 4d, not a range
        if window_forms is not None:
            monkeypatch.setattr(lgw.fields, "_SIEVE_WINDOW_FORMS", window_forms)
        Ds = sorted(d if d % 4 == 1 else 4 * d for d in range(2, 751) if is_squarefree(d))
        got = lgw.fields._narrow_class_numbers(np.array(Ds, dtype=np.int64))
        assert got.tolist() == [narrow_brute[D] for D in Ds]

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

    def test_undersized_term_cap_raises(self):
        with pytest.raises(PrecisionLoss):
            class_number_analytic(-163, precision_terms=5)


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


class TestFormReduction:
    def test_definite_reduction_reaches_reduced(self):
        import random

        rng = random.Random(5)
        for _ in range(300):
            a = rng.randint(1, 50)
            b = rng.randint(-100, 100)
            # force negative discriminant: c > b^2/(4a)
            c = b * b // (4 * a) + rng.randint(1, 60)
            f = BinaryQuadraticForm(a, b, c)
            if f.discriminant() >= 0:
                continue
            g, steps = reduce_form(f)
            assert g.is_reduced()
            assert g.discriminant() == f.discriminant()
            assert steps <= 10 * math.log2(max(abs(f.a), abs(f.c)) + 2)

    def test_indefinite_reduction_reaches_reduced(self):
        import random

        rng = random.Random(6)
        done = 0
        while done < 300:
            a = rng.randint(-60, 60)
            b = rng.randint(-120, 120)
            c = rng.randint(-60, 60)
            if a == 0 or c == 0:
                continue
            f = BinaryQuadraticForm(a, b, c)
            D = f.discriminant()
            if D <= 0 or isqrt(D) ** 2 == D:
                continue
            g, steps = reduce_form(f)
            assert g.is_reduced()
            assert g.discriminant() == D
            assert steps <= 10 * math.log2(max(abs(f.a), abs(f.c)) + 2)
            done += 1

    def test_square_discriminant_rejected(self):
        with pytest.raises(SquareDiscriminant):
            reduce_form(BinaryQuadraticForm(1, 3, 2))  # D = 1


class TestBatchSieve:
    def test_agreement_with_direct(self):
        counts = class_numbers_imaginary_batch(1500)
        for D in fundamental_discriminants(-1500, -3):
            assert counts[-D] == class_number(D)


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

    @pytest.mark.parametrize(
        "lo, hi",
        [(-5000, 5000), (-5000, -1), (-9, 13), (-1, 1), (0, 0), (1, 1), (-3, -3),
         (-4, 5), (2, 5000), (4990, 5000), (-5000, -4990), (10, 3)],
    )
    def test_sieve_matches_trial_division(self, lo, hi):
        assert fundamental_discriminants(lo, hi) == [
            D for D in range(lo, hi + 1) if is_fundamental_discriminant(D)
        ]
