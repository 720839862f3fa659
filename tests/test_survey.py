import io
import json
import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgw.fields
import lgw.survey
from lgw.errors import TermLimitExceeded
from lgw.fields import class_number, fundamental_discriminants, radicand_of_discriminant
from lgw.solver import Pairing
from lgw.survey import (
    CSV_COLUMNS,
    correspondence_table,
    read_rooted_records,
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
        s = scan_imaginary(20000)
        assert s.count_h1 == 9
        assert len(calls) <= 20

    def test_lazy_rows_match_eager_rows(self):
        # the rows view, built from the columns, against rows made one D at
        # a time: class_number by forms, the radicand, and the h = 1 roots
        s = scan_imaginary(2000)
        eager = []
        for D in reversed(fundamental_discriminants(-2000, -3)):
            h = class_number(D)
            d = radicand_of_discriminant(D)
            alphas = lgw.survey._imaginary_row((D, d, 0, 0)).alphas if h == 1 else ()
            eager.append((D, d, h, alphas))
        assert [(r.D, r.d, r.h, r.alphas) for r in s.rows] == eager
        assert s.rows is s.rows  # built once
        assert s == scan_imaginary(2000)

    def test_ceiling_is_a_term_limit(self, monkeypatch):
        # raised before any sieve runs
        monkeypatch.setattr(lgw.survey, "_fundamental_discriminant_array", None)
        with pytest.raises(TermLimitExceeded):
            scan_imaginary(lgw.fields._MAX_IMAG_D + 1)


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
        s = scan_real(2000, **kwargs)
        assert len(s.rows) > 600
        assert len(calls) <= len(s.rows)

    def test_unit_takes_d_squarefree_from_the_sieve(self, monkeypatch):
        calls = []
        original = lgw.fields.is_squarefree

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(lgw.fields, "is_squarefree", counting)
        s = scan_real(2000)
        assert len(s.rows) > 600
        assert all(r.unit.pell_residual() == 0 for r in s.rows)
        assert calls == []

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

    def test_imaginary_json_same_for_two_jobs(self):
        assert summary_to_json(scan_imaginary(2000, jobs=2)) == summary_to_json(scan_imaginary(2000))

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
        summary_to_json(scan_imaginary(2000, log_branch=1), 1),
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

    def test_duplicate_rows_last_wins(self):
        s = scan_imaginary(200)
        first, second = row_records(s.rows[:1]), row_records(s.rows[-1:] + s.rows[1:2])
        for doc in (
            f'{{"rows": {json.dumps(first)}, "count_h1": 9, "rows": {json.dumps(second)}}}',
            f'{{"rows": 5, "rows": {json.dumps(second)}}}',
        ):
            rooted = _read(doc, 3)
            assert rooted == _rooted(doc)[1] == [r for r in second if r["alpha_re"] is not None]
            assert rooted
