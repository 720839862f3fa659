import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgw.fields
import lgw.survey
from lgw.errors import TermLimitExceeded
from lgw.solver import Pairing
from lgw.survey import (
    CSV_COLUMNS,
    correspondence_table,
    records_to_csv,
    row_records,
    scan_imaginary,
    iter_summary_json,
    scan_real,
    summary_to_json,
)

from oracles import distinct_stats_pairwise

HEEGNER_DISCRIMINANTS = [-163, -67, -43, -19, -11, -8, -7, -4, -3]
HEEGNER_RADICANDS = [-163, -67, -43, -19, -11, -7, -3, -2, -1]

# h = 1 radicands for squarefree d <= 40, frozen after dual-route
# (forms vs analytic) agreement checks in test_fields
H1_RADICANDS_TO_40 = [2, 3, 5, 6, 7, 11, 13, 14, 17, 19, 21, 22, 23, 29, 31, 33, 37, 38]


class TestScanImaginary:
    def test_heegner_at_200(self):
        s = scan_imaginary(200)
        assert sorted(r.D for r in s.rows if r.h == 1) == sorted(HEEGNER_DISCRIMINANTS)
        assert sorted(r.d for r in s.rows if r.h == 1) == sorted(HEEGNER_RADICANDS)
        assert s.count_h1 == 9
        assert s.distinct_unit_count == 8

    def test_small_limit(self):
        s = scan_imaginary(10)
        assert sorted(r.D for r in s.rows if r.h == 1) == [-8, -7, -4, -3]

    def test_heegner_complete_from_163(self):
        # the ninth field enters exactly at limit 163 and the count stays 9
        assert scan_imaginary(162).count_h1 == 8
        for limit in (163, 500, 5000):
            assert scan_imaginary(limit).count_h1 == 9

    def test_empty_range(self):
        s = scan_imaginary(2)
        assert s.rows == ()
        assert s.count_h1 == 0

    def test_alpha_only_on_h1_rows(self):
        s = scan_imaginary(100)
        for r in s.rows:
            if r.h == 1:
                assert len(r.alpha_reports) > 0
            else:
                assert r.alpha_reports == ()

    def test_residuals(self):
        s = scan_imaginary(200)
        for r in s.rows:
            for rep in r.alpha_reports:
                assert rep.residual_defining <= 1e-10

    def test_unit_one_skipped_on_principal_log(self):
        s = scan_imaginary(50)
        row3 = next(r for r in s.rows if r.D == -3)
        labels_with_alpha = [a.unit_label for a in row3.alphas if a.report is not None]
        assert "1" not in labels_with_alpha
        assert len(labels_with_alpha) == 5  # six torsion units minus epsilon = 1

    def test_shifted_log_branch_includes_unit_one(self):
        s = scan_imaginary(50, log_branch=1)
        row7 = next(r for r in s.rows if r.D == -7)
        labels_with_alpha = [a.unit_label for a in row7.alphas if a.report is not None]
        assert set(labels_with_alpha) == {"1", "-1"}
        for r in s.rows:
            for rep in r.alpha_reports:
                assert rep.residual_defining <= 1e-10

    def test_distinct_alpha_counts_units_not_fields(self):
        # the same torsion unit recurs across fields with the same alpha, so
        # distinct roots = distinct units with usable logs (7 on principal log)
        s = scan_imaginary(200)
        n_attached = sum(len(r.alpha_reports) for r in s.rows)
        assert n_attached == 15
        assert s.distinct_alpha_count == 7
        assert s.min_alpha_separation > 1e-3

    def test_sieve_discriminants_are_not_retested(self, monkeypatch):
        # only the h = 1 rows revalidate D (through roots_of_unity); the
        # rest take D and d from the sieve
        calls = []
        original = lgw.fields.is_squarefree

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(lgw.fields, "is_squarefree", counting)
        monkeypatch.setattr(lgw.survey, "is_squarefree", counting)
        s = scan_imaginary(20000)
        assert s.count_h1 == 9
        assert len(calls) <= 20


class TestScanReal:
    def test_discriminant_mode_at_40(self):
        s = scan_real(40)
        assert sorted(r.D for r in s.rows if r.h == 1) == [5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37]
        assert all(r.h == 2 for r in s.rows if r.D == 40)

    def test_radicand_mode_reproduces_spec_list(self):
        s = scan_real(40, by_radicand=True)
        assert sorted(r.d for r in s.rows if r.h == 1) == H1_RADICANDS_TO_40

    def test_single_row_at_5(self):
        s = scan_real(5)
        assert len(s.rows) == 1
        row = s.rows[0]
        assert (row.D, row.d, row.h) == (5, 5, 1)
        rep = row.alpha_reports[0]
        assert abs(rep.alpha.imag) <= 1e-12

    def test_empty_range(self):
        s = scan_real(4)
        assert s.rows == ()
        assert s.count_h1 == 0

    def test_split_residuals(self):
        s = scan_real(100)
        assert s.count_h1 > 0
        for r in s.rows:
            for rep in r.alpha_reports:
                assert rep.residual_split_1 <= 1e-10
                assert rep.residual_split_2 <= 1e-10
                assert abs(rep.alpha.imag) <= 1e-12
                assert rep.residual_sum_equation is not None

    def test_count_nondecreasing_in_limit(self):
        counts = [scan_real(L).count_h1 for L in (5, 20, 50, 100, 150)]
        assert counts == sorted(counts)

    def test_unit_powers(self):
        s = scan_real(10, unit_powers=3)
        row = next(r for r in s.rows if r.D == 8)
        assert len(row.alpha_reports) == 3
        regs = [a.regulator for a in row.alphas]
        assert regs[1] == pytest.approx(2 * regs[0])
        assert regs[2] == pytest.approx(3 * regs[0])
        for a in row.alphas:
            assert a.report.residual_split_1 <= 1e-10

    def test_same_branch_pairing_flag(self):
        s = scan_real(10, pairing=Pairing.SAME_BRANCH)
        for r in s.rows:
            for rep in r.alpha_reports:
                assert rep.conventions["pairing"] == "same-branch"

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
        monkeypatch.setattr(lgw.survey, "is_squarefree", counting)
        s = scan_real(2000, **kwargs)
        assert len(s.rows) > 600
        assert len(calls) <= len(s.rows)

    def test_ceiling_is_a_term_limit(self):
        top = lgw.fields._MAX_REAL_D
        with pytest.raises(TermLimitExceeded):
            scan_real(top + 1)
        with pytest.raises(TermLimitExceeded):
            scan_real(top // 4 + 1, by_radicand=True)


class TestDeterminism:
    def test_real_scan_byte_identical_across_jobs(self):
        a = summary_to_json(scan_real(200, jobs=1))
        b = summary_to_json(scan_real(200, jobs=3))
        assert a == b

    def test_imaginary_scan_byte_identical_across_jobs(self):
        a = summary_to_json(scan_imaginary(400, jobs=1))
        b = summary_to_json(scan_imaginary(400, jobs=3))
        assert a == b

    def test_repeat_is_byte_identical(self):
        assert summary_to_json(scan_imaginary(100)) == summary_to_json(scan_imaginary(100))


class TestSerialization:
    def test_record_schema(self):
        recs = row_records(scan_imaginary(20).rows)
        assert recs
        for rec in recs:
            assert tuple(rec.keys()) == CSV_COLUMNS

    def test_csv_header_and_rows(self):
        s = scan_real(30)
        text = records_to_csv(row_records(s.rows))
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(row_records(s.rows))

    def test_csv_empty(self):
        assert records_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"

    @pytest.mark.parametrize("scan, limit, kwargs", [
        (scan_imaginary, 300, {}),
        (scan_imaginary, 300, {"log_branch": 1}),
        (scan_real, 60, {"unit_powers": 2}),
        (scan_real, 4, {}),
    ])
    def test_chunked_json_equals_one_dumps(self, scan, limit, kwargs, monkeypatch):
        # small chunks, so that the records of one scan span several of them
        monkeypatch.setattr(lgw.survey, "_JSON_CHUNK_ROWS", 7)
        s = scan(limit, **kwargs)
        lb = kwargs.get("log_branch", 0)
        full = {
            "range": list(s.range),
            "count_h1": s.count_h1,
            "distinct_alpha_count": s.distinct_alpha_count,
            "min_alpha_separation": s.min_alpha_separation,
            "distinct_unit_count": s.distinct_unit_count,
            "rows": row_records(s.rows, lb),
        }
        assert summary_to_json(s, lb) == json.dumps(full)
        trailer = {"conventions": {"branch": 0, "log_branch": lb}}
        assert "".join(iter_summary_json(s, lb, trailer)) == json.dumps({**full, **trailer})

    def test_json_round_trip(self):
        s = scan_imaginary(50)
        obj = json.loads(summary_to_json(s))
        assert obj["count_h1"] == s.count_h1
        assert obj["distinct_unit_count"] == s.distinct_unit_count
        assert len(obj["rows"]) == len(row_records(s.rows))

    def test_real_rows_carry_unit_and_norm(self):
        recs = row_records(scan_real(40).rows)
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


class TestDistinctStats:
    @settings(max_examples=300, deadline=None)
    @given(values=_clustered_values())
    def test_matches_pairwise_reference(self, values):
        assert lgw.survey._distinct_stats(values) == distinct_stats_pairwise(values, TOL)

    @pytest.mark.parametrize("values", [
        [],
        [1 + 1j],
        [1 + 1j, 1 + 1j],
        [k * 0.6 * TOL + 0j for k in range(12)],
        [k * TOL + 0j for k in range(12)],
        [complex(k * TOL, -k * TOL) for k in range(12)][::-1],
    ], ids=["none", "one", "duplicate", "chain-0.6", "chain-1.0", "diagonal-chain"])
    def test_edge_cases(self, values):
        assert lgw.survey._distinct_stats(values) == distinct_stats_pairwise(values, TOL)


class TestCorrespondenceTable:
    def test_empty(self):
        tab = correspondence_table([])
        assert tab.entries == ()
        assert tab.n_alpha == 0
        assert tab.min_alpha_separation is None

    def test_imaginary_table(self):
        s = scan_imaginary(200)
        tab = correspondence_table(row_records(s.rows))
        assert tab.n_alpha == 15
        assert tab.distinct_alpha_count == 7
        assert tab.min_alpha_separation > 1e-3
        for e in tab.entries:
            assert e["residual_defining"] <= 1e-10

    def test_real_rows(self):
        s = scan_real(10)
        tab = correspondence_table(row_records(s.rows))
        ds = {e["D"] for e in tab.entries}
        assert ds == {5, 8}
        for e in tab.entries:
            assert abs(e["alpha_im"]) <= 1e-12
