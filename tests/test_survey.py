import cmath
import io
import json
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgw.fields
import lgw.survey
from lgw.errors import DomainError, TermLimitExceeded
from lgw.fields import FundamentalUnit, class_number, fundamental_discriminants, roots_of_unity
from lgw.solver import Pairing, UnitInput, alpha_complex_case
from lgw.survey import (
    CSV_COLUMNS,
    correspondence_table,
    read_rooted_records,
    records_to_csv,
    scan_imaginary,
    iter_summary_csv,
    iter_summary_json,
    iter_summary_plain,
    scan_real,
    summary_to_json,
)

from oracles import TORSION_UNIT_LABELS, distinct_stats_pairwise, imaginary_scan_oracle, real_scan_oracle

HEEGNER_DISCRIMINANTS = [-163, -67, -43, -19, -11, -8, -7, -4, -3]
HEEGNER_RADICANDS = [-163, -67, -43, -19, -11, -7, -3, -2, -1]

# h = 1 radicands for squarefree d <= 40, frozen after dual-route
# (forms vs analytic) agreement checks in test_fields
H1_RADICANDS_TO_40 = [2, 3, 5, 6, 7, 11, 13, 14, 17, 19, 21, 22, 23, 29, 31, 33, 37, 38]


def records(summary) -> list[dict]:
    """The row records of a scan, as its JSON gives them."""
    return json.loads(summary_to_json(summary))["rows"]


def rooted(summary) -> list[dict]:
    """The records of a scan that carry a root."""
    return [r for r in records(summary) if r["alpha_re"] is not None]


def h1_column(summary, column: str = "D") -> list[int]:
    """A batch column over the h = 1 fields, sorted."""
    b = summary.batch
    return sorted(getattr(b, column)[b.h == 1].tolist())


def units(summary) -> list[FundamentalUnit]:
    """The fundamental unit of each field of a real scan, from its unit columns."""
    return [FundamentalUnit(d, *u) for d, *u in zip(summary.batch.d.tolist(), *summary.batch.units)]


def assert_same_text(got: str, want: str, context: int = 60) -> None:
    """got == want for writer output, which can run to megabytes: a failure
    names the first differing offset and a short window around it instead
    of leaving pytest to diff the whole strings."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo, hi = max(at - context, 0), at + context
    pytest.fail(
        f"texts differ at offset {at} (lengths {len(got)} and {len(want)}):\n"
        f"  got  {got[lo:hi]!r}\n  want {want[lo:hi]!r}",
        pytrace=False,
    )


class TestScanImaginary:
    def test_heegner_at_200(self):
        s = scan_imaginary(200)
        assert h1_column(s) == sorted(HEEGNER_DISCRIMINANTS)
        assert h1_column(s, "d") == sorted(HEEGNER_RADICANDS)
        assert s.count_h1 == 9
        assert s.distinct_unit_count == 8

    def test_small_limit(self):
        s = scan_imaginary(10)
        assert h1_column(s) == [-8, -7, -4, -3]

    def test_heegner_complete_from_163(self):
        # the ninth field enters exactly at limit 163 and the count stays 9
        assert scan_imaginary(162).count_h1 == 8
        for limit in (163, 500, 5000):
            assert scan_imaginary(limit).count_h1 == 9

    def test_empty_range(self):
        s = scan_imaginary(2)
        assert len(s.batch.D) == 0 and records(s) == []
        assert s.count_h1 == 0

    def test_negative_limit_is_a_domain_error(self):
        with pytest.raises(DomainError, match="-5"):
            scan_imaginary(-5)
        assert records(scan_imaginary(0)) == records(scan_imaginary(1)) == []

    @pytest.mark.parametrize("branches", [{"branch": 0.5}, {"log_branch": -1.5}, {"branch": "1"}])
    def test_non_integral_branch_is_a_domain_error(self, branches):
        with pytest.raises(DomainError, match="branch"):
            scan_imaginary(100, **branches)

    @pytest.mark.parametrize("limit", [50.7, math.nan, math.inf, "50"])
    def test_non_integral_limit_is_a_domain_error(self, limit):
        # a limit is read by the rule of a branch index, not truncated
        with pytest.raises(DomainError, match="limit"):
            scan_imaginary(limit)

    def test_integral_limits_are_taken_as_ints(self):
        want = summary_to_json(scan_imaginary(50))
        for limit in (50.0, np.int64(50), np.float64(50.0)):
            s = scan_imaginary(limit)
            assert s.range == (-50, -3) and summary_to_json(s) == want

    def test_integral_branches_are_recorded_as_ints(self):
        s = scan_imaginary(100, branch=np.int64(1), log_branch=-1.0)
        assert (type(s.batch.branch), type(s.batch.log_branch)) == (int, int)
        assert summary_to_json(s) == summary_to_json(scan_imaginary(100, branch=1, log_branch=-1))

    def test_alpha_only_on_h1_rows(self):
        s = scan_imaginary(100)
        assert sorted({r["D"] for r in rooted(s)}) == h1_column(s)

    def test_residuals(self):
        assert all(r["residual_defining"] <= 1e-10 for r in rooted(scan_imaginary(200)))

    def test_unit_one_skipped_on_principal_log(self):
        labels_with_alpha = [r["unit"] for r in rooted(scan_imaginary(50)) if r["D"] == -3]
        assert "1" not in labels_with_alpha
        assert len(labels_with_alpha) == 5  # six torsion units minus epsilon = 1

    def test_shifted_log_branch_includes_unit_one(self):
        recs = rooted(scan_imaginary(50, log_branch=1))
        assert {r["unit"] for r in recs if r["D"] == -7} == {"1", "-1"}
        assert all(r["residual_defining"] <= 1e-10 for r in recs)

    def test_distinct_alpha_counts_units_not_fields(self):
        # the same torsion unit recurs across fields with the same alpha, so
        # distinct roots = distinct units with usable logs (7 on principal log)
        s = scan_imaginary(200)
        assert len(rooted(s)) == 15
        assert s.distinct_alpha_count == 7
        assert s.min_alpha_separation > 1e-3

    @pytest.mark.parametrize("branch, log_branch", [(0, 0), (-1, 1), (2, -2)])
    def test_each_label_names_the_unit_of_its_root(self, branch, log_branch):
        # the unit each label names, written out here, gives the alpha of its
        # record in the field's group rows, unless it is 1 on the principal log
        b = scan_imaginary(200, branch=branch, log_branch=log_branch).batch
        for D, n in zip(b.D[b.index].tolist(), b.torsion, strict=True):
            group = b.groups[n]
            assert sorted(r["unit"] for r in group) == sorted(
                label for label, eps in TORSION_UNIT_LABELS.items() if eps in roots_of_unity(D).elements
            )
            for r in group:
                label = r["unit"]
                if label == "1" and log_branch == 0:
                    assert r["alpha_re"] is None
                    continue
                rep = alpha_complex_case(UnitInput.complex_unit(TORSION_UNIT_LABELS[label], log_branch), branch)
                assert (r["alpha_re"], r["alpha_im"]) == (rep.alpha.real, rep.alpha.imag), (D, label)

    def test_each_group_is_solved_once(self, monkeypatch):
        # the nine h = 1 fields share three torsion groups, of 5, 3 and 1
        # units with a root: 9 root computations for their 15 rooted records
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return alpha_complex_case(*args, **kwargs)

        monkeypatch.setattr(lgw.survey, "alpha_complex_case", counting)
        s = scan_imaginary(200)
        assert (s.count_h1, len(rooted(s)), len(calls)) == (9, 15, 9)

    @pytest.mark.parametrize("branch, log_branch", [(0, 0), (-1, 1), (2, -2)])
    def test_lazy_rows_match_eager_rows(self, branch, log_branch):
        # the records the JSON writer renders, a chunk of rows at a time from
        # the columns and the record tuples, against records made one D at a
        # time from the point API
        s = scan_imaginary(2000, branch=branch, log_branch=log_branch)
        assert json.loads(summary_to_json(s)) == imaginary_scan_oracle(2000, branch, log_branch)
        assert s == scan_imaginary(2000, branch=branch, log_branch=log_branch)

    def test_sieve_discriminants_are_not_retested(self, monkeypatch):
        # only the h = 1 rows revalidate D (through roots_of_unity); the
        # rest take D and d from the sieve
        calls = []
        original = lgw.fields.is_squarefree

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(lgw.fields, "is_squarefree", counting)
        s = scan_imaginary(20000)
        assert s.count_h1 == 9
        assert len(calls) <= 20

    def test_integer_like_conventions_write_plain_ints(self):
        # numpy integers and bools are taken as the ints they stand for
        plain = summary_to_json(scan_imaginary(20, branch=-1, log_branch=1))
        assert_same_text(
            summary_to_json(scan_imaginary(20, branch=np.int64(-1), log_branch=np.int64(1))), plain
        )
        assert_same_text(
            summary_to_json(scan_imaginary(20, branch=True, log_branch=True)),
            summary_to_json(scan_imaginary(20, branch=1, log_branch=1)),
        )
        assert_same_text(
            "".join(iter_summary_csv(scan_imaginary(20, branch=np.int32(2)))),
            "".join(iter_summary_csv(scan_imaginary(20, branch=2))),
        )

    def test_writers_take_the_scans_log_branch(self):
        # every writer labels the records with the log branch the roots were
        # computed at, so the unit 1 reads log eps = 2*pi*i
        s = scan_imaginary(20, log_branch=1)
        want = imaginary_scan_oracle(20, log_branch=1)
        rows = json.loads(summary_to_json(s))["rows"]
        assert rows == want["rows"] and {r["log_branch"] for r in rows} == {1}
        assert_same_text("".join(iter_summary_csv(s)), csv_text(want["rows"]))
        assert_same_text("".join(iter_summary_plain(s)), plain_text(want))
        ones = [e for e in correspondence_table(rows).entries if e["unit"] == "1"]
        assert ones and all((e["log_eps_re"], e["log_eps_im"]) == (0.0, 2 * math.pi) for e in ones)

    def test_the_trailer_is_a_keyword(self):
        # a log branch passed where the writers once took one is an error,
        # not a trailer
        with pytest.raises(TypeError):
            iter_summary_json(scan_imaginary(20), 1)

    def test_ceiling_is_a_term_limit(self, monkeypatch):
        # raised before any sieve runs
        monkeypatch.setattr(lgw.survey, "_fundamental_discriminant_array", None)
        with pytest.raises(TermLimitExceeded):
            scan_imaginary(lgw.fields._MAX_IMAG_D + 1)


class TestScanReal:
    def test_discriminant_mode_at_40(self):
        s = scan_real(40)
        assert h1_column(s) == [5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37]
        assert s.batch.h[s.batch.D == 40].tolist() == [2]

    def test_radicand_mode_reproduces_spec_list(self):
        s = scan_real(40, by_radicand=True)
        assert h1_column(s, "d") == H1_RADICANDS_TO_40

    @pytest.mark.parametrize("limits", [range(600), [4099]], ids=["0-599", "4099"])
    def test_radicand_mode_discriminants_match_two_sieves(self, limits, monkeypatch):
        # the scan filters the discriminant sieve to d <= limit; against the
        # squarefree radicands in [2, limit], each sent to D = d or 4d
        seen = []

        class Stop(Exception):
            pass

        def capture(D):
            seen.append(D)
            raise Stop

        monkeypatch.setattr(lgw.survey, "_real_class_numbers", capture)
        for limit in limits:
            with pytest.raises(Stop):
                scan_real(limit, by_radicand=True)
            d = np.flatnonzero(lgw.fields._squarefree_mask(2, max(limit, 1))) + 2
            want = np.sort(np.where(d % 4 == 1, d, 4 * d))
            got = seen.pop()
            assert got.dtype == np.int64 and got.tolist() == want.tolist(), limit

    def test_single_row_at_5(self):
        (row,) = records(scan_real(5))
        assert (row["D"], row["d"], row["h"]) == (5, 5, 1)
        assert abs(row["alpha_im"]) <= 1e-12

    def test_empty_range(self):
        s = scan_real(4)
        assert len(s.batch.D) == 0 and records(s) == []
        assert s.count_h1 == 0

    @pytest.mark.parametrize("limit, unit_powers", [(-1, 1), (20, -2)], ids=["limit", "unit-powers"])
    def test_negative_size_is_a_domain_error(self, limit, unit_powers):
        with pytest.raises(DomainError, match=str(min(limit, unit_powers))):
            scan_real(limit, unit_powers=unit_powers)

    @pytest.mark.parametrize("branch", [0.5, math.nan, None])
    def test_non_integral_branch_is_a_domain_error(self, branch):
        with pytest.raises(DomainError, match="branch"):
            scan_real(100, branch=branch)
        with pytest.raises(DomainError, match="log_branch"):
            scan_real(100, log_branch=branch)

    @pytest.mark.parametrize("pairing", ["bogus", None, "real"])
    def test_unknown_pairing_is_a_domain_error(self, pairing):
        with pytest.raises(DomainError, match="pairing"):
            scan_real(100, pairing=pairing)

    @pytest.mark.parametrize("limit, unit_powers, what", [
        (100.9, 1, "limit"), (math.inf, 1, "limit"), ("100", 1, "limit"),
        (20, 1.5, "unit_powers"), (20, math.nan, "unit_powers"),
    ])
    def test_non_integral_counts_are_domain_errors(self, limit, unit_powers, what):
        # counts are read by the rule of a branch index, not truncated
        with pytest.raises(DomainError, match=what):
            scan_real(limit, unit_powers=unit_powers)

    def test_integral_counts_are_taken_as_ints(self):
        want = summary_to_json(scan_real(100, unit_powers=2))
        for limit, unit_powers in ((100.0, 2.0), (np.int64(100), np.int32(2)), (np.float64(100.0), 2)):
            s = scan_real(limit, unit_powers=unit_powers)
            assert (s.range, s.batch.powers) == ((5, 100), 2) and summary_to_json(s) == want
        assert summary_to_json(scan_real(100, unit_powers=True)) == summary_to_json(scan_real(100))

    def test_integral_branch_is_recorded_as_int(self):
        s = scan_real(100, branch=-2.0)
        assert type(s.batch.branch) is int
        assert summary_to_json(s) == summary_to_json(scan_real(100, branch=-2))

    def test_split_residuals(self):
        s = scan_real(100)
        assert s.count_h1 > 0
        for r in rooted(s):
            assert r["residual_split_1"] <= 1e-10
            assert r["residual_split_2"] <= 1e-10
            assert abs(r["alpha_im"]) <= 1e-12
            assert r["residual_sum_equation"] is not None

    def test_count_nondecreasing_in_limit(self):
        counts = [scan_real(L).count_h1 for L in (5, 20, 50, 100, 150)]
        assert counts == sorted(counts)

    def test_unit_powers(self):
        recs = [r for r in rooted(scan_real(10, unit_powers=3)) if r["D"] == 8]
        assert len(recs) == 3
        regs = [r["regulator"] for r in recs]
        assert regs[1] == pytest.approx(2 * regs[0])
        assert regs[2] == pytest.approx(3 * regs[0])
        assert all(r["residual_split_1"] <= 1e-10 for r in recs)

    def test_same_branch_pairing_flag(self):
        # at branch -1 the pairing decides alpha: W_-1 with W_1 gives a real
        # alpha, W_-1 with itself a complex one
        kwargs = {"branch": -1, "pairing": Pairing.SAME_BRANCH}
        recs = rooted(scan_real(10, **kwargs))
        assert recs == [r for r in real_scan_oracle(10, **kwargs)["rows"] if r["alpha_re"] is not None]
        assert recs and all(r["alpha_im"] != 0 for r in recs)
        assert all(r["alpha_im"] == 0 for r in rooted(scan_real(10, branch=-1)))

    @pytest.mark.parametrize("kwargs", [{}, {"by_radicand": True}], ids=["discriminant", "radicand"])
    def test_sieve_discriminants_are_not_retested(self, monkeypatch, kwargs):
        # D, d and h+ come from the sieves; is_squarefree runs only inside
        # fundamental_unit, once a row
        calls = []
        original = lgw.fields.is_squarefree

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(lgw.fields, "is_squarefree", counting)
        s = scan_real(2000, **kwargs)
        assert len(s.batch.D) > 600
        assert len(calls) <= len(s.batch.D)

    def test_unit_takes_d_squarefree_from_the_sieve(self, monkeypatch):
        calls = []
        original = lgw.fields.is_squarefree

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(lgw.fields, "is_squarefree", counting)
        s = scan_real(2000)
        assert len(s.batch.D) > 600
        assert all(u.pell_residual() == 0 for u in units(s))
        assert calls == []

    @pytest.mark.parametrize("limit, kwargs", [(20000, {}), (5000, {"by_radicand": True})],
                             ids=["discriminant", "radicand"])
    def test_batched_units_match_scalar_units(self, limit, kwargs):
        # every row's unit, h = 1 or not, from the batched continued fraction
        s = scan_real(limit, **kwargs)
        assert len(s.batch.D) > 1500
        assert units(s) == [lgw.fields._unit_of_squarefree(d) for d in s.batch.d.tolist()]

    @pytest.mark.parametrize("pairing", list(Pairing))
    def test_lazy_rows_match_eager_rows(self, pairing):
        # the records the JSON writer renders against records made one field
        # at a time: the scalar unit, and alpha_real_case on a unit forced to
        # log n*R for each power n
        kwargs = {"branch": -1, "pairing": pairing, "unit_powers": 3}
        s = scan_real(3000, **kwargs)
        assert json.loads(summary_to_json(s)) == real_scan_oracle(3000, **kwargs)
        assert s == scan_real(3000, **kwargs)

    def test_only_h1_rows_are_built_by_the_scan(self):
        s = scan_real(3000)
        b = s.batch
        assert b.index.tolist() == np.flatnonzero(b.h == 1).tolist()
        assert b.D[b.index].tolist() == h1_column(s)
        assert s.count_h1 == len(b.index) == s.distinct_unit_count
        assert len(b.roots) == len(b.index) * b.powers * lgw.survey._ROOT_FLOATS
        assert sorted({r["D"] for r in rooted(s)}) == h1_column(s)
        assert all(u.pell_residual() == 0 for u in units(s))

    def test_a_root_is_kept_in_a_few_bytes(self):
        # a root is six floats of the root array, 48 bytes: the scan keeps at
        # most 64 bytes for each root past the first power of each field
        scan_real(100, unit_powers=2)  # imports and first-call state outside the trace

        def retained(unit_powers):
            tracemalloc.start()
            try:
                s = scan_real(10_000, unit_powers=unit_powers)
                return tracemalloc.get_traced_memory()[0], s
            finally:
                tracemalloc.stop()

        (one, s), (twenty, _) = retained(1), retained(20)
        assert s.count_h1 == 1282
        assert twenty - one <= 64 * 19 * s.count_h1

    def test_perturbed_regulator_trips_the_rounding_assert(self, monkeypatch):
        # h is the distance sum over the unit's regulator, rounded; a
        # regulator off by 1e-4 leaves every quotient far from an integer
        columns = lgw.fields._unit_columns

        def perturbed(d):
            units = columns(d)
            return units._replace(regulator=[r * (1 + 1e-4) for r in units.regulator])

        monkeypatch.setattr(lgw.fields, "_unit_columns", perturbed)
        with pytest.raises(AssertionError):
            scan_real(200)

    def test_ceiling_is_a_term_limit(self):
        top = lgw.fields._MAX_REAL_D
        with pytest.raises(TermLimitExceeded):
            scan_real(top + 1)
        with pytest.raises(TermLimitExceeded):
            scan_real(top // 4 + 1, by_radicand=True)

    def test_scan_ceiling_is_a_term_limit_before_any_work(self, monkeypatch):
        # the scan has its own ceiling, far below that of a single D; past it
        # not even the discriminant sieve runs
        top = lgw.survey._MAX_REAL_SCAN
        assert top < lgw.fields._MAX_REAL_D
        monkeypatch.setattr(lgw.survey, "_fundamental_discriminant_array", None)
        with pytest.raises(TermLimitExceeded, match=str(top)):
            scan_real(top + 1)
        with pytest.raises(TermLimitExceeded, match=str(top // 4)):
            scan_real(top // 4 + 1, by_radicand=True)

    def test_roots_ceiling_is_a_term_limit_before_the_sieve(self, monkeypatch):
        # unit_powers times the fields counts the roots; past the ceiling
        # neither the distance sieve nor the units run
        top = lgw.survey._MAX_REAL_ROOTS
        monkeypatch.setattr(lgw.survey, "_real_class_numbers", None)
        fields_1e4 = len(fundamental_discriminants(5, 10_000))
        with pytest.raises(TermLimitExceeded, match=f"above {top},"):
            scan_real(10_000, unit_powers=top // fields_1e4 + 1)
        radicands_3000 = int(lgw.fields._squarefree_mask(2, 3000).sum())
        with pytest.raises(TermLimitExceeded, match=f"above {top},"):
            scan_real(3000, unit_powers=top // radicands_3000 + 1, by_radicand=True)

    def test_roots_ceiling_admits_the_largest_scans(self, monkeypatch):
        # --powers 1 at the scan ceiling, and by radicand with --powers 3
        top = lgw.survey._MAX_REAL_ROOTS
        assert len(fundamental_discriminants(5, lgw.survey._MAX_REAL_SCAN)) == 607_935 <= top
        radicands = int(lgw.fields._squarefree_mask(2, lgw.survey._MAX_REAL_SCAN // 4).sum())
        assert 3 * radicands == 911_871 <= top
        # the ceiling itself is admitted, one root more is not
        fields_60 = len(fundamental_discriminants(5, 60))
        monkeypatch.setattr(lgw.survey, "_MAX_REAL_ROOTS", 3 * fields_60)
        assert scan_real(60, unit_powers=3).count_h1 > 0
        with pytest.raises(TermLimitExceeded, match=f"above {3 * fields_60},"):
            scan_real(60, unit_powers=4)

    def test_scan_and_class_number_share_one_path(self, monkeypatch):
        # scan_real and class_number(D > 0) reach class numbers only through
        # fields._real_class_numbers, one call each
        calls = []
        original = lgw.fields._real_class_numbers

        def counting(Ds):
            calls.append(len(Ds))
            return original(Ds)

        monkeypatch.setattr(lgw.fields, "_real_class_numbers", counting)
        monkeypatch.setattr(lgw.survey, "_real_class_numbers", counting)  # imported by name
        scan_real(3000)
        assert calls == [len(fundamental_discriminants(5, 3000))]
        calls.clear()
        assert class_number(1365) == 4
        assert calls == [1]
        assert not {"_distance_sums", "_unit_columns", "_wide_class_numbers"} & set(vars(lgw.survey))


class TestDeterminism:
    def test_repeat_is_byte_identical(self):
        assert_same_text(summary_to_json(scan_imaginary(100)), summary_to_json(scan_imaginary(100)))


def csv_text(recs: list[dict]) -> str:
    """The CSV of row records: the column line, then the values of each, an
    empty field for None."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join("" if r[k] is None else str(r[k]) for k in CSV_COLUMNS) for r in recs]
    return "\n".join(lines) + "\n"


def plain_text(obj: dict) -> str:
    """The plain text of a scan's JSON object: its counts, then each record's
    non-empty columns as key=value."""
    lines = [f"range {obj['range'][0]}..{obj['range'][1]}  fields_h1={obj['count_h1']}  "
             f"distinct_alpha={obj['distinct_alpha_count']}  distinct_units={obj['distinct_unit_count']}"]
    lines += ["  ".join(f"{k}={r[k]}" for k in CSV_COLUMNS if r[k] is not None) for r in obj["rows"]]
    return "\n".join(lines) + "\n"


class TestSerialization:
    def test_record_schema(self):
        recs = records(scan_imaginary(20))
        assert recs
        for rec in recs:
            assert tuple(rec.keys()) == CSV_COLUMNS

    def test_csv_header_and_rows(self):
        recs = records(scan_real(30))
        text = records_to_csv(recs)
        assert text == csv_text(recs)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(recs)

    def test_csv_empty(self):
        assert records_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"

    @pytest.mark.parametrize("scan, limit, kwargs", [
        (scan_imaginary, 300, {}),
        (scan_imaginary, 300, {"log_branch": 1}),
        (scan_real, 60, {"unit_powers": 2}),
        (scan_real, 4, {}),
        (scan_real, 60, {"unit_powers": 0}),
        (scan_real, 60, {"unit_powers": 3, "pairing": Pairing.SAME_BRANCH}),
        (scan_imaginary, 2, {}),
        (scan_imaginary, 20000, {}),
        *[(scan_imaginary, 2000, {"branch": j, "log_branch": lb}) for lb in (0, 1) for j in (0, -1, 2)],
        *[(scan_real, 1000, {"pairing": p, "unit_powers": 3}) for p in Pairing],
        (scan_real, 600, {"unit_powers": 2, "by_radicand": True}),
        *[(scan_real, 5000, {"pairing": p, "unit_powers": 2}) for p in Pairing],
        # the first fields of the group orders 6, 4 and 2, and the last h = 1 field
        *[(scan_imaginary, limit, {"log_branch": lb}) for limit in (3, 4, 7, 163) for lb in (0, 1)],
    ])
    def test_chunked_json_equals_one_dumps(self, scan, limit, kwargs, monkeypatch):
        # every writer against the scan rebuilt one field at a time from the
        # point API (tests/oracles.py), in chunks small enough that the
        # records of one scan span several of them
        s = scan(limit, **kwargs)
        want = (imaginary_scan_oracle if scan is scan_imaginary else real_scan_oracle)(limit, **kwargs)
        trailer = {"conventions": {"branch": kwargs.get("branch", 0), "log_branch": kwargs.get("log_branch", 0)}}
        texts = (json.dumps(want), json.dumps({**want, **trailer}), csv_text(want["rows"]), plain_text(want))
        # one row a chunk puts every attached row first and last in a chunk
        # of attached rows only; 2 and 7 mix attached and bare rows. The
        # scans to 600 and more run at the default chunk, and the one to
        # 20000 also in 7-row chunks: its h reaches three digits, and the
        # writers take h's text from a table. The real scans to 5000 run
        # over three default chunks, each of which starts with an attached
        # field, and the first and last of which end with one; and also in
        # 7-row chunks.
        chunks = (1, 2, 7) if limit < 600 else (lgw.survey._JSON_CHUNK_ROWS,)
        if limit == 20000:
            assert (len(s.batch.D), s.batch.h.max()) == (6079, 213)
            chunks = (7, lgw.survey._JSON_CHUNK_ROWS)
        if limit == 5000:
            assert len(s.batch.D) == 1516 and lgw.survey._JSON_CHUNK_ROWS == 512
            assert {0, 511, 512, 1024, 1515}.issubset(s.batch.index.tolist())
            chunks = (7, lgw.survey._JSON_CHUNK_ROWS)
        for rows in chunks:
            monkeypatch.setattr(lgw.survey, "_JSON_CHUNK_ROWS", rows)
            assert_same_text(summary_to_json(s), texts[0])
            assert_same_text("".join(iter_summary_json(s, trailer=trailer)), texts[1])
            assert_same_text("".join(iter_summary_csv(s)), texts[2])
            assert_same_text("".join(iter_summary_plain(s)), texts[3])
        at, n = set(s.batch.index.tolist()), len(s.batch.D)
        if 0 < len(at) < n and 7 in chunks:  # among the chunks of 7 that hold a bare row, one starts and one ends with an attached row
            mixed = [c for c in (range(i, min(i + 7, n)) for i in range(0, n, 7)) if not at.issuperset(c)]
            assert any(c[0] in at for c in mixed) and any(c[-1] in at for c in mixed)

    def test_a_shifted_log_branch_relabels_the_records(self):
        # a real unit's log is real: a real scan's log_branch changes no root
        # and labels every record
        s = scan_real(300, log_branch=3)
        assert s.batch.log_branch == 3 and s.batch.roots == scan_real(300).batch.roots
        want = real_scan_oracle(300)
        want["rows"] = [{**r, "log_branch": 3} for r in want["rows"]]
        assert_same_text(summary_to_json(s), json.dumps(want))
        assert_same_text("".join(iter_summary_csv(s)), csv_text(want["rows"]))
        assert_same_text("".join(iter_summary_plain(s)), plain_text(want))

    def test_json_round_trip(self):
        s = scan_imaginary(50)
        obj = json.loads(summary_to_json(s))
        assert obj["count_h1"] == s.count_h1
        assert obj["distinct_unit_count"] == s.distinct_unit_count
        # one row a bare field, one a torsion unit of an attached field
        assert len(obj["rows"]) == len(s.batch.D) + sum(n - 1 for n in s.batch.torsion)

    def test_real_rows_carry_unit_and_norm(self):
        recs = records(scan_real(40))
        d2 = [r for r in recs if r["d"] == 2]
        assert d2
        assert d2[0]["unit"] == "1+1*sqrt(2)"
        assert d2[0]["norm"] == -1
        assert d2[0]["regulator"] == pytest.approx(math.log(1 + math.sqrt(2)), rel=1e-13)


TOL = lgw.survey._DISTINCT_TOL

# Offsets in units of the tolerance: on it, just inside, just outside,
# and chains at 0.6 of it, where input order decides the representatives.
_STEPS = st.sampled_from([0.0, 0.5, 0.6, 1 - 1e-9, 1.0, 1 + 1e-9, 1.2, 2.0, 3.0])
_BASES = st.sampled_from([0j, 0.3 + 0j, -7.25 + 0.5j, 0.1 - 2.4j, 1e3 + 1e3j])


@st.composite
def _clustered_values(draw):
    base = draw(_BASES)
    pts = [
        base + complex(i * draw(_STEPS), j * draw(_STEPS)) * TOL
        for i, j in draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=30))
    ]
    dups = draw(st.lists(st.integers(0, max(len(pts) - 1, 0)), max_size=5)) if pts else []
    return draw(st.permutations(pts + [pts[i] for i in dups]))


def _distinct_stats(values):
    """survey._distinct_stats of complex values, given as its two columns."""
    return lgw.survey._distinct_stats([v.real for v in values], [v.imag for v in values])


def _check_seeded_inputs(seed):
    """_distinct_stats against the pairwise reference on seeded spread values
    (the sweep decides alone), one value just within 1e-9 of another,
    clusters within 1e-9 of some of them (the grid decides) and values whose
    distances overflow."""
    rng = random.Random(seed)
    spread = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(0, 80))]
    cluster = [
        c + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * TOL * rng.choice((0.3, 0.7, 1.5))
        for c in rng.sample(spread, min(len(spread), 5))
        for _ in range(rng.randint(1, 4))
    ]
    near = [c + cmath.rect(rng.uniform(0.5, 1.0) * TOL, rng.uniform(-3, 3)) for c in spread[:1]]
    far = [1.7e308 + 1.7e308j, -1.7e308 - 1.7e308j, 1.7976931348623157e308j][: rng.randint(1, 3)]
    for values in (spread, spread + near, spread + cluster, spread[:1] + far, spread + cluster + far):
        values = rng.sample(values, len(values))
        try:
            expected = distinct_stats_pairwise(values, TOL)
        except ValueError:
            with pytest.raises(ValueError):
                _distinct_stats(values)
        else:
            assert _distinct_stats(values) == expected


class TestDistinctStats:
    @settings(max_examples=300, deadline=None)
    @given(values=_clustered_values())
    def test_matches_pairwise_reference(self, values):
        assert _distinct_stats(values) == distinct_stats_pairwise(values, TOL)

    @pytest.mark.parametrize("values", [
        [],
        [1 + 1j],
        [1 + 1j, 1 + 1j],
        [k * 0.6 * TOL + 0j for k in range(12)],
        [k * TOL + 0j for k in range(12)],
        [complex(k * TOL, -k * TOL) for k in range(12)][::-1],
    ], ids=["none", "one", "duplicate", "chain-0.6", "chain-1.0", "diagonal-chain"])
    def test_edge_cases(self, values):
        assert _distinct_stats(values) == distinct_stats_pairwise(values, TOL)

    @pytest.mark.parametrize("values", [
        [1.7976931348623157e308j, 1.8941775056029057e300],  # |difference| overflows
        [1e308 + 1e308j, -1e308 - 1e308j],  # real gap overflows to inf
        [1.7e308 + 1.7e308j, 1e300 + 1e300j],  # compared in one grid cell, and overflows there
    ], ids=["modulus", "real-gap", "same-cell"])
    def test_separation_beyond_float_range_raises(self, values):
        with pytest.raises(ValueError):
            _distinct_stats(values)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_reference_on_seeded_inputs(self, seed):
        _check_seeded_inputs(seed)

    def test_order_sorted_in_two_halves(self, monkeypatch):
        # past _SORT_AT_ONCE values the order is sorted in two halves, split
        # at a sampled median; the same seeded inputs must give the same stats
        monkeypatch.setattr(lgw.survey, "_SORT_AT_ONCE", 3)
        for seed in range(10):
            _check_seeded_inputs(seed)

    def test_far_values_keep_a_finite_least_separation(self):
        values = [1.7e308 + 1.7e308j, 1e300 + 1e300j, 1.7976931348623157e308j, 1.0, 1.25]
        assert _distinct_stats(values) == (5, 0.25)

    def test_separation_keeps_the_bits_of_abs_not_hypot(self):
        # math.hypot on CPython 3.11 is not libm's hypot, which abs(complex)
        # calls: on seeded pairs where the two differ in the last bit, the
        # least separation is the abs of the difference, as the pairwise
        # reference takes it
        rng = random.Random(29)
        pairs = []
        while len(pairs) < 20:
            a, b = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
            dx, dy = b.real - a.real, b.imag - a.imag
            if math.hypot(dx, dy) != abs(complex(dx, dy)):
                pairs.append((a, b))
        for a, b in pairs:
            assert _distinct_stats([a, b]) == (2, abs(b - a)) == distinct_stats_pairwise([a, b], TOL)
            assert abs(b - a) != math.hypot(b.real - a.real, b.imag - a.imag)

    def test_scan_roots_are_checked_in_little_memory(self):
        # 384,600 roots, read from the root array where they lie: the check
        # held about 100 bytes a root as complex numbers and sorted them
        # three times (38.9 MB traced); one order of their indices, sorted in
        # two halves, takes 18 MB. The stats are those the complex numbers gave.
        s = scan_real(10_000, unit_powers=300)
        assert len(s.batch.roots) == 384_600 * lgw.survey._ROOT_FLOATS
        columns = lgw.survey._alpha_columns(s.batch.roots)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stats = lgw.survey._distinct_stats(*columns)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert stats == (378_248, 1.0000724137704253e-09)
        assert peak <= 24e6, peak


class TestCorrespondenceTable:
    def test_empty(self):
        tab = correspondence_table([])
        assert tab.entries == ()
        assert tab.n_alpha == 0
        assert tab.min_alpha_separation is None

    def test_imaginary_table(self):
        tab = correspondence_table(records(scan_imaginary(200)))
        assert tab.n_alpha == 15
        assert tab.distinct_alpha_count == 7
        assert tab.min_alpha_separation > 1e-3
        for e in tab.entries:
            assert e["residual_defining"] <= 1e-10

    def test_real_rows(self):
        tab = correspondence_table(records(scan_real(10)))
        ds = {e["D"] for e in tab.entries}
        assert ds == {5, 8}
        for e in tab.entries:
            assert abs(e["alpha_im"]) <= 1e-12


# -- the streaming table reader -------------------------------------------------------

_BIG_INTS = st.one_of(st.integers(-3000, 3000), st.integers(-(10**40), 10**40))
# scan-sized values: the distinctness statistics of roots near the float
# limit overflow, which is not what this reader test is about
_FINITE = st.floats(-1e6, 1e6, allow_nan=False)
_NULL_RECORD = dict.fromkeys(CSV_COLUMNS)


@st.composite
def _scan_record(draw):
    """A row record: bare, with a torsion root, with a real root, or with a
    real unit and no root; key order kept or shuffled."""
    rec = dict(_NULL_RECORD, D=draw(_BIG_INTS), d=draw(_BIG_INTS), h=draw(_BIG_INTS),
               log_branch=draw(st.integers(-3, 3)))
    kind = draw(st.sampled_from(["bare", "bare", "torsion", "real", "unit"]))
    if kind == "torsion":
        rec.update(unit=draw(st.sampled_from(sorted(lgw.survey._TORSION_ARGS))),
                   alpha_re=draw(_FINITE), alpha_im=draw(_FINITE),
                   residual_defining=draw(_FINITE), branch=draw(st.integers(-3, 3)))
    elif kind in ("real", "unit"):
        rec.update(unit="1+1*sqrt(2)", norm=-1, regulator=draw(_FINITE))
        if kind == "real":
            rec.update(alpha_re=draw(_FINITE), alpha_im=0.0, residual_defining=draw(_FINITE),
                       residual_split_1=0.0, residual_split_2=0.0,
                       residual_sum_equation=draw(_FINITE), branch=0)
    if draw(st.booleans()):
        rec = {k: rec[k] for k in draw(st.permutations(list(rec)))}
    return rec


@st.composite
def _scan_text(draw):
    """Scan-shaped JSON: a scan object with "rows" among other keys, or a
    bare array of records, in one of json.dumps's layouts, with some integer
    zeros written -0."""
    records = draw(st.lists(_scan_record(), max_size=25))
    if draw(st.booleans()):
        doc = records
    else:
        others = draw(st.permutations([
            ("range", [-50, -3]), ("count_h1", 9), ("min_alpha_separation", None),
            ("conventions", {"branch": 0, "pairing": "conjugate-branch", "tolerance": 1e-10}),
        ]))
        at = draw(st.integers(0, len(others)))
        doc = dict(others[:at] + [("rows", records)] + others[at:])
    style = draw(st.sampled_from([{}, {"indent": 2}, {"separators": (",", ":")}]))
    text = json.dumps(doc, **style)
    if draw(st.booleans()):
        text = re.sub(r'(":\s*)0(?=[,}\s])', r"\g<1>-0", text)
    return text


def _read(text, chunk=None):
    if chunk is None:
        return read_rooted_records(io.StringIO(text))
    with mock.patch.object(lgw.survey, "_READ_CHARS", chunk):
        return read_rooted_records(io.StringIO(text))


def _rooted(text):
    data = json.loads(text)
    rows = data["rows"] if isinstance(data, dict) else data
    return rows, [r for r in rows if r.get("alpha_re") is not None]


class TestReadRootedRecords:
    @settings(max_examples=300, deadline=None)
    @given(text=_scan_text(), chunk=st.integers(1, 40))
    def test_matches_json_loads(self, text, chunk):
        rows, rooted = _rooted(text)
        got = _read(text, chunk)
        assert got == rooted
        assert correspondence_table(got) == correspondence_table(rows)

    @pytest.mark.parametrize("chunk", [1, 7, 4096, None])
    @pytest.mark.parametrize("text", [
        summary_to_json(scan_imaginary(2000, log_branch=1)),
        summary_to_json(scan_imaginary(300, branch=-1)),
        summary_to_json(scan_real(120, unit_powers=2)),
        summary_to_json(scan_imaginary(2)),
    ], ids=["imaginary", "imaginary-branch", "real", "empty"])
    def test_scan_output(self, text, chunk):
        assert _read(text, chunk) == _rooted(text)[1]

    def test_every_chunk_size(self):
        # small buffers cut numbers ("0." of "0.03"), names and records at
        # every position
        text = summary_to_json(scan_imaginary(200)) + "\n"
        real = summary_to_json(scan_real(30))
        for chunk in range(1, 64):
            assert _read(text, chunk) == _rooted(text)[1]
            assert _read(real, chunk) == _rooted(real)[1]

    def test_bare_runs_are_not_decoded(self):
        # only rooted records, the summary keys and a record at each buffer
        # end reach the JSON decoder; the bare ones are passed over
        text = summary_to_json(scan_imaginary(20000))
        decoder = json.JSONDecoder()
        calls = []

        def counting(s, idx=0):
            calls.append(idx)
            return decoder.raw_decode(s, idx)

        with mock.patch.object(lgw.survey._DECODER, "raw_decode", counting):
            got = _read(text)
        assert got == _rooted(text)[1]
        assert len(json.loads(text)["rows"]) > 6000
        assert len(calls) < 200

    def test_bare_real_records_are_not_decoded(self):
        # a real scan's bare records carry a unit, label, norm and regulator;
        # they too are passed over, so the decoder sees little beyond the
        # rooted records
        text = summary_to_json(scan_real(5000))
        decoder = json.JSONDecoder()
        calls = []

        def counting(s, idx=0):
            calls.append(idx)
            return decoder.raw_decode(s, idx)

        with mock.patch.object(lgw.survey._DECODER, "raw_decode", counting):
            got = _read(text)
        rows, rooted = _rooted(text)
        assert got == rooted
        assert len(rows) - len(rooted) > 800
        assert len(calls) < len(rooted) + 50

    def test_every_truncation_is_an_error(self):
        text = summary_to_json(scan_imaginary(60)) + "\n"
        for cut in range(len(text) - 1):
            with pytest.raises(ValueError):
                _read(text[:cut], 5)
        assert _read(text, 5) == _rooted(text)[1]

    @pytest.mark.parametrize("tail", [" x", "{}", "]", ", 1", "\n[]"])
    def test_trailing_data_is_an_error(self, tail):
        text = summary_to_json(scan_imaginary(20))
        with pytest.raises(ValueError):
            _read(text + tail)
        assert _read(text + " \n\t\r") == _rooted(text)[1]

    @pytest.mark.parametrize("text", ["5", '"rows"', "null", "", "  ", '{"range": [-10, -3]}',
                                      '{"rows": {}}', '{"rows": 5}', '{"rows": [], "rows": null}',
                                      '{"rows": [],}', "[1,]", '{"rows" []}', '{rows: []}'])
    def test_not_scan_json(self, text):
        with pytest.raises(ValueError):
            _read(text)

    @pytest.mark.parametrize("text, row, bad_row", [
        (summary_to_json(scan_imaginary(30)), '{"D": -15, ', '{"D": -1\u0665, '),
        (summary_to_json(scan_real(30, unit_powers=0)), '{"D": 13, ', '{"D": 1\u0663, '),
    ], ids=["imaginary", "real"])
    def test_non_ascii_digit_in_bare_row_is_an_error(self, text, row, bad_row):
        # json.loads takes only ASCII digits, so a bare run must not pass
        # over an Arabic-Indic one (a Unicode decimal, as \d matches in str)
        assert '"alpha_re": null' in text.split(row, 1)[1].split("}", 1)[0]
        bad = text.replace(row, bad_row, 1)
        with pytest.raises(json.JSONDecodeError):
            json.loads(bad)
        for chunk in (None, 7):
            with pytest.raises(ValueError):
                _read(bad, chunk)

    @pytest.mark.parametrize("text, row, key", [
        (summary_to_json(scan_imaginary(300)), '{"D": -15, "d": -15, "h": 2, ', '"h"'),
        (summary_to_json(scan_real(100)), '{"D": 40, "d": 10, "h": 2, ', '"regulator"'),
    ], ids=["imaginary", "real"])
    def test_number_grammar_in_bare_row(self, text, row, key):
        # a bare run takes a number in a bare row (an integer for h, a float
        # for the regulator) as json.loads does: what it rejects is an error,
        # and what it takes reads as json.loads reads it
        at = text.index(row)
        end = text.index("}", at)
        record = text[at:end]
        assert '"alpha_re": null' in record
        pair = re.search(key + ": [^,]*,", record).group()
        value = pair[len(key) + 2 : -1]
        for n in ("02", "-", "2.", ".5", "2e", "+2", "0x2", "2_0"):
            doc = text[:at] + record.replace(pair, f"{key}: {n},", 1) + text[end:]
            with pytest.raises(json.JSONDecodeError):
                json.loads(doc)
            for chunk in (None, 7):
                with pytest.raises(ValueError):
                    _read(doc, chunk)
        for variant in [f"{key}: {n}," for n in ("-0", "2e0", "2.0", "2E+1")] + [
            f"{key}:{value},", f"{key} : {value} ,"
        ]:
            doc = text[:at] + record.replace(pair, variant, 1) + text[end:]
            for chunk in (None, 7):
                assert _read(doc, chunk) == _rooted(doc)[1], variant

    def test_bare_runs_are_possessive_where_re_has_them(self):
        # every repeat of a bare run is possessive
        for run in (lgw.survey._BARE_RUN, lgw.survey._BARE_UNIT_RUN):
            assert run.pattern.endswith("{1,1024}+")
            assert "[0-9]*+" in run.pattern
            assert "[ \t\n\r]*+" in run.pattern

    def test_duplicate_rows_last_wins(self):
        recs = records(scan_imaginary(200))  # the fields -3, -4, ... -199
        first = [r for r in recs if r["D"] == -3]
        second = recs[-1:] + [r for r in recs if r["D"] == -4]
        for doc in (
            f'{{"rows": {json.dumps(first)}, "count_h1": 9, "rows": {json.dumps(second)}}}',
            f'{{"rows": 5, "rows": {json.dumps(second)}}}',
        ):
            rooted = _read(doc, 3)
            assert rooted == _rooted(doc)[1] == [r for r in second if r["alpha_re"] is not None]
            assert rooted
