import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lgw.cli import run
from lgw.solver import Pairing
from lgw.survey import (
    CSV_COLUMNS,
    correspondence_table,
    records_to_csv,
    row_records,
    scan_imaginary,
    scan_real,
    summary_to_json,
)

OMEGA = 0.5671432904097838


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return code, json.loads(out)


class TestWCommand:
    def test_omega_example(self, capsys):
        code, obj = run_json(capsys, ["w", "--branch", "0", "--re", "1", "--im", "0"])
        assert code == 0
        assert obj["re"] == pytest.approx(OMEGA, abs=1e-12)
        assert obj["im"] == 0.0
        assert obj["residual"] <= 1e-10
        assert obj["conventions"]["branch"] == 0
        assert obj["conventions"]["tolerance"] == 1e-10

    def test_nonzero_branch(self, capsys):
        code, obj = run_json(capsys, ["w", "--branch", "-1", "--re", "-0.1"])
        assert code == 0
        assert obj["re"] == pytest.approx(-3.577152063957297, abs=1e-12)

    @pytest.mark.parametrize("re, im, expected", [
        ("0.456", "-1.002", 0.5041774287157712 - 0.4335244549887842j),
        ("1.608", "0", 0.7554426202636394 + 0j),
    ], ids=["annulus", "real-axis"])
    def test_principal_branch_from_the_three_term_seed(self, capsys, re, im, expected):
        # With the five-term asymptotic seed, Halley lands on W_1 at the first
        # point (-1.135+3.231j, residual small enough to pass) and does not
        # settle at the second (exit 3).
        code, obj = run_json(capsys, ["w", "--re", re, "--im", im])
        assert code == 0
        assert complex(obj["re"], obj["im"]) == pytest.approx(expected, abs=1e-12)

    def test_scientific_notation_accepted(self, capsys):
        code, obj = run_json(capsys, ["w", "--re", "1e-3"])
        assert code == 0
        assert obj["re"] == pytest.approx(9.990014975021977e-4, rel=1e-9)

    def test_domain_error_exit_2(self, capsys):
        assert run(["w", "--re", "0", "--branch", "3"]) == 2
        err = capsys.readouterr().err
        assert "diverges" in err

    def test_tight_tolerance_exit_3(self, capsys):
        # W(-1/e) carries sqrt-conditioned residual; 1e-15 cannot be met there
        code = run(["w", "--re", str(-1 / math.e), "--tolerance", "1e-15"])
        assert code in (0, 3)  # depends on rounding of -1/e; either is honest
        code = run(["w", "--re", "0.5", "--tolerance", "1e-15"])
        assert code == 0


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 64
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required(self, capsys):
        assert run(["w"]) == 64

    def test_bad_tolerance_range(self, capsys):
        assert run(["w", "--re", "1", "--tolerance", "0.5"]) == 64
        assert run(["w", "--re", "1", "--tolerance", "1e-20"]) == 64

    def test_scan_needs_exactly_one_mode(self, capsys):
        assert run(["scan", "--limit", "10"]) == 64
        assert run(["scan", "--imaginary", "--real", "--limit", "10"]) == 64


class TestSolveCommand:
    def test_exp_fixed_point(self, capsys):
        code, obj = run_json(
            capsys, ["solve", "--a-re", "0", "--b-re", "1", "--c-re", "-1"]
        )
        assert code == 0
        assert obj["re"] == pytest.approx(OMEGA, abs=1e-12)

    def test_degenerate_exit_2(self, capsys):
        assert run(["solve", "--a-re", "0", "--b-re", "1", "--c-re", "0"]) == 2


class TestAlphaCommand:
    def test_real_case_from_radicand(self, capsys):
        code, obj = run_json(capsys, ["alpha", "--case", "real", "--d", "5"])
        assert code == 0
        assert obj["alpha_im"] == 0.0
        assert obj["residual_split_1"] <= 1e-10
        assert obj["residual_sum_equation"] is not None

    def test_complex_case(self, capsys):
        code, obj = run_json(
            capsys, ["alpha", "--case", "complex", "--eps-re", "0", "--eps-im", "1"]
        )
        assert code == 0
        assert obj["residual_defining"] <= 1e-10

    def test_synthetic_log(self, capsys):
        code, obj = run_json(
            capsys,
            ["alpha", "--case", "complex", "--log-eps-re", str(-math.e / (2 * math.pi))],
        )
        assert code == 0
        assert obj["alpha_im"] == pytest.approx(1 / (2 * math.pi), abs=1e-14)
        assert obj["alpha_re"] == pytest.approx(0.0, abs=1e-14)

    def test_unit_one_exit_2(self, capsys):
        assert run(["alpha", "--case", "complex", "--eps-re", "1"]) == 2


class TestUnitCommand:
    def test_d94(self, capsys):
        code, obj = run_json(capsys, ["unit", "--d", "94"])
        assert code == 0
        assert (obj["x"], obj["y"], obj["norm"]) == (2143295, 221064, 1)
        assert obj["half_integral"] is False

    def test_not_squarefree_exit_2(self, capsys):
        assert run(["unit", "--d", "12"]) == 2

    def test_expansion_cap_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("lgw.fields._CF_STEP_LIMIT", 5)
        assert run(["unit", "--d", "94"]) == 2
        assert "did not close" in capsys.readouterr().err


class TestClassnoCommand:
    def test_heegner_example(self, capsys):
        code, obj = run_json(capsys, ["classno", "--discriminant", "-163"])
        assert code == 0
        assert obj["D"] == -163
        assert obj["h"] == 1

    def test_by_radicand(self, capsys):
        code, obj = run_json(capsys, ["classno", "--d", "10"])
        assert code == 0
        assert obj["D"] == 40
        assert obj["h"] == 2

    def test_narrow_flag(self, capsys):
        code, obj = run_json(capsys, ["classno", "--discriminant", "12", "--narrow"])
        assert code == 0
        assert obj["h"] == 1
        assert obj["h_narrow"] == 2

    def test_mutually_exclusive(self, capsys):
        assert run(["classno", "--discriminant", "5", "--d", "5"]) == 64

    def test_not_fundamental_exit_2(self, capsys):
        assert run(["classno", "--discriminant", "-12"]) == 2

    def test_above_real_ceiling_exit_2_at_once(self, capsys):
        # 100000005 is squarefree and 1 mod 4: fundamental, just above the ceiling
        t0 = time.perf_counter()
        assert run(["classno", "--discriminant", "100000005"]) == 2
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "100000000" in captured.err

    def test_below_imaginary_ceiling_exit_2_at_once(self, capsys):
        # -10000003 is fundamental, just below the ceiling
        t0 = time.perf_counter()
        assert run(["classno", "--discriminant", "-10000003"]) == 2
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-10000000" in captured.err


class TestScanCommand:
    def test_empty_real_csv(self, capsys):
        code = run(["scan", "--real", "--limit", "4", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == (
            "D,d,h,unit,norm,regulator,alpha_re,alpha_im,residual_defining,"
            "residual_split_1,residual_split_2,residual_sum_equation,branch,log_branch"
        )

    def test_imaginary_json(self, capsys):
        code, obj = run_json(capsys, ["scan", "--imaginary", "--limit", "200"])
        assert code == 0
        assert obj["count_h1"] == 9
        assert obj["distinct_unit_count"] == 8
        h1 = sorted({r["D"] for r in obj["rows"] if r["h"] == 1})
        assert h1 == [-163, -67, -43, -19, -11, -8, -7, -4, -3]

    @pytest.mark.parametrize("mode, limit, branch, log_branch", [
        ("imaginary", 2000, 0, 0),
        ("imaginary", 2000, 0, 1),
        ("imaginary", 2000, -1, 0),
        ("real", 300, 0, 0),
    ])
    def test_streamed_json_matches_round_trip(self, capsys, mode, limit, branch, log_branch):
        # the streamed object must equal the summary with conventions appended
        code = run(["scan", f"--{mode}", "--limit", str(limit),
                    "--branch", str(branch), "--log-branch", str(log_branch)])
        assert code == 0
        out = capsys.readouterr().out
        if mode == "imaginary":
            s = scan_imaginary(limit, branch=branch, log_branch=log_branch)
        else:
            s = scan_real(limit, branch=branch, pairing=Pairing.CONJUGATE_BRANCH)
        conventions = {"branch": branch, "log_branch": log_branch,
                       "pairing": "conjugate-branch", "tolerance": 1e-10}
        expected = json.dumps(
            {**json.loads(summary_to_json(s, log_branch)), "conventions": conventions}
        ) + "\n"
        assert out == expected

    @pytest.mark.parametrize("argv, kwargs", [
        ([], {}),
        (["--log-branch", "1"], {"log_branch": 1}),
        (["--branch", "-1"], {"branch": -1}),
    ], ids=["default", "log-branch-1", "branch-minus-1"])
    def test_imaginary_csv_and_plain_match_row_records(self, capsys, argv, kwargs):
        # the template path against the records of every row, one by one
        s = scan_imaginary(2000, **kwargs)
        records = row_records(s.rows, kwargs.get("log_branch", 0))
        assert run(["scan", "--imaginary", "--limit", "2000", "--format", "csv", *argv]) == 0
        assert capsys.readouterr().out == records_to_csv(records)
        assert run(["scan", "--imaginary", "--limit", "2000", "--format", "plain", *argv]) == 0
        lines = [f"range -2000..-3  fields_h1={s.count_h1}  distinct_alpha={s.distinct_alpha_count}  "
                 f"distinct_units={s.distinct_unit_count}"]
        lines += ["  ".join(f"{k}={rec[k]}" for k in CSV_COLUMNS if rec[k] is not None)
                  for rec in records]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_imaginary_limit_above_ceiling_exit_2(self, capsys):
        t0 = time.perf_counter()
        assert run(["scan", "--imaginary", "--limit", "10000001"]) == 2
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-10000000" in captured.err

    def test_real_limit_above_ceiling_exit_2(self, capsys):
        assert run(["scan", "--real", "--limit", "100000001"]) == 2
        assert run(["scan", "--real", "--by-radicand", "--limit", "25000001"]) == 2
        assert capsys.readouterr().out == ""

    def test_jobs_flag_deterministic(self, capsys):
        code = run(["scan", "--real", "--limit", "120", "--jobs", "1"])
        out1 = capsys.readouterr().out
        code2 = run(["scan", "--real", "--limit", "120", "--jobs", "2"])
        out2 = capsys.readouterr().out
        assert code == code2 == 0
        assert out1 == out2

    def test_env_jobs_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("LGW_JOBS", "2")
        code = run(["scan", "--real", "--limit", "40"])
        assert code == 0
        out_env = capsys.readouterr().out
        monkeypatch.delenv("LGW_JOBS")
        run(["scan", "--real", "--limit", "40"])
        assert capsys.readouterr().out == out_env


class TestVerifyCommand:
    def test_real_example(self, capsys):
        code, obj = run_json(
            capsys,
            ["verify", "--case", "real", "--alpha-re", "0", "--log-eps-re", "1"],
        )
        assert code == 0
        assert obj["residual"] == 1.0

    def test_tolerance_check(self, capsys):
        code = run(
            ["verify", "--case", "real", "--alpha-re", "0", "--log-eps-re", "1",
             "--tolerance", "1e-6"]
        )
        assert code == 3

    def test_bad_tolerance_exits_before_output(self, capsys):
        code = run(["verify", "--case", "complex", "--alpha-re", "0.1", "--eps-re", "0",
                    "--eps-im", "1", "--tolerance", "1e-3"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "--tolerance" in captured.err


class TestPointCsv:
    @pytest.mark.parametrize("argv", [
        ["w", "--re", "1"],
        ["solve", "--a-re", "0", "--b-re", "1", "--c-re", "-1"],
        ["alpha", "--case", "real", "--d", "5"],
        ["unit", "--d", "94"],
        ["classno", "--d", "10", "--narrow"],
        ["verify", "--case", "real", "--alpha-re", "0", "--log-eps-re", "1"],
    ], ids=lambda argv: argv[0])
    def test_header_and_row_have_equal_length(self, capsys, argv):
        assert run(argv + ["--format", "csv"]) == 0
        lines = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(lines) == 2
        assert len(lines[0]) == len(lines[1])
        assert "conventions" not in lines[0]


class TestTableCommand:
    def test_from_scan_json(self, capsys, monkeypatch):
        run(["scan", "--imaginary", "--limit", "200"])
        scan_out = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(scan_out))
        code, obj = run_json(capsys, ["table"])
        assert code == 0
        assert obj["n_alpha"] == 15
        assert obj["distinct_alpha_count"] == 7
        assert obj["min_alpha_separation"] > 1e-3
        assert len(obj["entries"]) == 15

    def test_from_file(self, capsys, tmp_path):
        run(["scan", "--real", "--limit", "10"])
        scan_out = capsys.readouterr().out
        p = tmp_path / "scan.json"
        p.write_text(scan_out)
        code, obj = run_json(capsys, ["table", "--input", str(p)])
        assert code == 0
        assert {e["D"] for e in obj["entries"]} == {5, 8}

    @pytest.mark.parametrize("scan, log_branch, argv", [
        (lambda: scan_imaginary(2000, log_branch=1), 1,
         ["scan", "--imaginary", "--limit", "2000", "--log-branch", "1"]),
        (lambda: scan_real(300, unit_powers=2), 0,
         ["scan", "--real", "--limit", "300", "--powers", "2"]),
    ], ids=["imaginary", "real"])
    def test_matches_library_table(self, capsys, monkeypatch, scan, log_branch, argv):
        run(argv)
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        code, obj = run_json(capsys, ["table"])
        assert code == 0
        lib = list(correspondence_table(row_records(scan().rows, log_branch)).entries)
        assert lib == obj["entries"]
        # torsion units (D < 0) have |eps| = 1, so log |eps| is exactly 0
        assert all(e["log_eps_re"] == 0.0 for e in lib if e["D"] < 0)

    @pytest.mark.parametrize("stdin, argv", [
        ("", ["--input", "no-such-scan.json"]),
        ("not json", []),
        ('{"range": [-10, -3]}', []),
        ('{"rows": 5}', []),
        ('[{"alpha_re": 0.1}]', []),
        (json.dumps([{"D": -4, "unit": "zz", "regulator": None, "alpha_re": 0.1, "alpha_im": 0.2,
                      "residual_defining": 0.0, "residual_split_1": 0.0, "residual_split_2": 0.0,
                      "branch": 0}]), []),
        (json.dumps([{"D": 5, "unit": "(1+1*sqrt(5))/2", "regulator": 0.48, "alpha_re": math.nan,
                      "alpha_im": 0.0, "residual_defining": 0.0, "residual_split_1": 0.0,
                      "residual_split_2": 0.0, "branch": 0}]), []),
        ('[{"D": -4, "unit": "-1", "regulator": null, "alpha_re": 0.1, "alpha_im": Infinity, '
         '"residual_defining": 0.0, "residual_split_1": 0.0, "residual_split_2": 0.0, "branch": 0}]', []),
        (summary_to_json(scan_imaginary(20))[:-40], []),
        (summary_to_json(scan_imaginary(20)) + ' {"rows": []}', []),
        (json.dumps(row_records(scan_imaginary(15).rows[-1:])).replace('"D": -15,', '"D": -015,'), []),
        ("5", []),
    ], ids=["missing-file", "not-json", "no-rows", "rows-not-list", "record-lacks-key",
            "unknown-torsion-label", "nan-alpha", "infinite-alpha", "truncated", "trailing-data",
            "leading-zero", "top-level-number"])
    def test_bad_input_is_usage_error(self, capsys, monkeypatch, tmp_path, stdin, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert run(["table", *argv]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err


class TestGoldenOutput:
    """Byte-exact pins of the JSON/CSV schemas."""

    def test_w_golden(self, capsys):
        run(["w", "--re", "1"])
        assert capsys.readouterr().out == (
            '{"re": 0.5671432904097838, "im": 0.0, "residual": 0.0, "branch": 0, '
            '"iterations": 3, "conventions": {"branch": 0, "log_branch": 0, '
            '"pairing": "conjugate-branch", "tolerance": 1e-10}}\n'
        )

    def test_classno_golden(self, capsys):
        run(["classno", "--discriminant", "-163"])
        assert capsys.readouterr().out == (
            '{"D": -163, "h": 1, "d": -163, "conventions": {"branch": 0, '
            '"log_branch": 0, "pairing": "conjugate-branch", "tolerance": 1e-10}}\n'
        )

    def test_unit_golden(self, capsys):
        run(["unit", "--d", "5"])
        assert capsys.readouterr().out == (
            '{"d": 5, "x": 1, "y": 1, "half_integral": true, "norm": -1, '
            '"regulator": 0.48121182505960347, "unit": "(1+1*sqrt(5))/2", '
            '"conventions": {"branch": 0, "log_branch": 0, '
            '"pairing": "conjugate-branch", "tolerance": 1e-10}}\n'
        )

    def test_scan_csv_golden_first_rows(self, capsys):
        run(["scan", "--real", "--limit", "30", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "D,d,h,unit,norm,regulator,alpha_re,alpha_im,residual_defining,"
            "residual_split_1,residual_split_2,residual_sum_equation,branch,log_branch"
        )
        assert lines[1] == (
            "5,5,1,(1+1*sqrt(5))/2,-1,0.48121182505960347,0.263707115569417,0.0,"
            "0.3050999542980663,0.0,0.0,0.6101999085961326,0,0"
        )
        assert lines[2] == (
            "8,2,1,1+1*sqrt(2),-1,0.8813735870195432,0.2971608923118461,0.0,"
            "0.554524776912384,3.925231146709438e-17,3.925231146709438e-17,"
            "1.109049553824768,0,0"
        )


class TestBenchmarkGoldens:
    """The benchmark's smoke-size outputs, byte for byte, against its goldens."""

    GOLDENS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text())

    def sha256_of_run(self, capsys, argv):
        assert run(argv) == 0
        out = capsys.readouterr().out
        return out, hashlib.sha256(out.encode()).hexdigest()

    def test_real_scan_csv(self, capsys):
        _, digest = self.sha256_of_run(capsys, ["scan", "--real", "--limit", "2000", "--format", "csv"])
        assert digest == self.GOLDENS["real-scan/2000/scan"]

    def test_imaginary_scan_and_table(self, capsys, tmp_path):
        out, digest = self.sha256_of_run(capsys, ["scan", "--imaginary", "--limit", "20000"])
        assert digest == self.GOLDENS["imag-scan/20000/scan"]
        scan_path = tmp_path / "scan.json"
        scan_path.write_text(out)
        _, digest = self.sha256_of_run(capsys, ["table", "--input", str(scan_path)])
        assert digest == self.GOLDENS["imag-scan/20000/table"]


class TestSubprocess:
    def test_module_entry_point(self):
        res = subprocess.run(
            [sys.executable, "-m", "lgw", "classno", "--discriminant", "-163"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert (obj["D"], obj["h"]) == (-163, 1)
        assert res.stderr == ""

    def test_stderr_carries_diagnostics_only(self):
        res = subprocess.run(
            [sys.executable, "-m", "lgw", "unit", "--d", "12"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert "square factor" in res.stderr

    def test_downstream_pipe_close_is_quiet(self):
        # a consumer that stops reading (head-style) must not provoke a traceback
        res = subprocess.run(
            f"{sys.executable} -m lgw scan --imaginary --limit 3000 --format csv | head -2",
            shell=True,
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0  # head's status
        assert "Traceback" not in res.stderr
        assert res.stdout.startswith("D,d,h,unit")
