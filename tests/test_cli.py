import argparse
import contextlib
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
from hypothesis import given, settings
from hypothesis import strategies as st

from lgw.cli import _build_parser, run
from lgw.solver import Pairing
from lgw.survey import (
    CSV_COLUMNS,
    correspondence_table,
    records_to_csv,
    scan_imaginary,
    scan_real,
    summary_to_json,
)

from oracles import imaginary_scan_oracle, real_scan_oracle

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

    def test_negative_zero_imaginary_part_is_above_the_cut(self, capsys):
        outs = []
        for im in ("-0.0", "0.0"):
            assert run(["w", "--re", "-0.2", "--im", im, "--branch", "1"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_scientific_notation_accepted(self, capsys):
        code, obj = run_json(capsys, ["w", "--re", "1e-3"])
        assert code == 0
        assert obj["re"] == pytest.approx(9.990014975021977e-4, rel=1e-9)

    @pytest.mark.parametrize("value", ["-1e-3", "-1.5E+2", "-.5e1"])
    def test_negative_scientific_notation_is_a_value(self, capsys, value):
        # argparse's own pattern takes "-1e-3" for a flag
        assert run(["w", "--re", value, "--branch", "-1"]) == 0
        spaced = capsys.readouterr()
        assert run(["w", f"--re={value}", "--branch", "-1"]) == 0
        assert spaced == capsys.readouterr()

    @pytest.mark.parametrize("value", ["-x", "-1e", "-e3"])
    def test_flag_like_value_is_still_a_usage_error(self, capsys, value):
        assert run(["w", "--re", value]) == 64
        assert capsys.readouterr().out == ""

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

    def test_branches_one_and_minus_one_stay_apart_on_the_cut(self, capsys):
        # the Lambert argument -2*pi*0.05 reaches W as x - 0i, on the cut
        mpmath = pytest.importorskip("mpmath")
        alphas = []
        for j in (1, -1):
            code, obj = run_json(capsys, ["alpha", "--case", "complex", "--log-eps-re", "0.05", "--branch", str(j)])
            assert code == 0
            alpha = complex(obj["alpha_re"], obj["alpha_im"])
            w = mpmath.lambertw(-2 * mpmath.pi * mpmath.mpf(0.05), j)
            ref = complex(-w / (2j * mpmath.pi))
            assert abs(alpha - ref) <= 1e-10 * abs(ref), (j, alpha, ref)
            alphas.append(alpha)
        assert alphas[0] != alphas[1]


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

    def test_narrow_runs_one_distance_sum(self, capsys, monkeypatch):
        import lgw.fields

        calls = []
        real_sums = lgw.fields._distance_sums

        def counting(Ds):
            calls.append(Ds.tolist())
            return real_sums(Ds)

        monkeypatch.setattr(lgw.fields, "_distance_sums", counting)
        code, obj = run_json(capsys, ["classno", "--discriminant", "1365", "--narrow"])
        assert code == 0
        assert (obj["h"], obj["h_narrow"]) == (4, 8)
        assert calls == [[1365]]

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
            s = scan_real(limit, branch=branch, pairing=Pairing.CONJUGATE_BRANCH, log_branch=log_branch)
        conventions = {"branch": branch, "log_branch": log_branch,
                       "pairing": "conjugate-branch", "tolerance": 1e-10}
        expected = json.dumps({**json.loads(summary_to_json(s)), "conventions": conventions}) + "\n"
        assert out == expected

    @pytest.mark.parametrize("argv, want", [
        (["--imaginary", "--limit", "2000"], lambda: imaginary_scan_oracle(2000)),
        (["--imaginary", "--limit", "2000", "--log-branch", "1"], lambda: imaginary_scan_oracle(2000, log_branch=1)),
        (["--imaginary", "--limit", "2000", "--branch", "-1"], lambda: imaginary_scan_oracle(2000, branch=-1)),
        (["--real", "--limit", "500", "--powers", "3", "--branch", "-1"],
         lambda: real_scan_oracle(500, branch=-1, unit_powers=3)),
        (["--real", "--limit", "500", "--powers", "3", "--pairing", "same-branch"],
         lambda: real_scan_oracle(500, pairing=Pairing.SAME_BRANCH, unit_powers=3)),
    ], ids=["default", "log-branch-1", "branch-minus-1", "real-powers-3", "real-same-branch-powers-3"])
    def test_csv_and_plain_match_the_point_api(self, capsys, argv, want):
        # the template path against records made one field at a time from
        # the point API
        want = want()
        assert run(["scan", *argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == records_to_csv(want["rows"])
        assert run(["scan", *argv, "--format", "plain"]) == 0
        lines = [f"range {want['range'][0]}..{want['range'][1]}  fields_h1={want['count_h1']}  "
                 f"distinct_alpha={want['distinct_alpha_count']}  distinct_units={want['distinct_unit_count']}"]
        lines += ["  ".join(f"{k}={rec[k]}" for k in CSV_COLUMNS if rec[k] is not None)
                  for rec in want["rows"]]
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

    def test_real_limit_above_scan_ceiling_exit_2_at_once(self, capsys):
        # the real scan's own ceiling, 2e6 (5e5 by radicand), far below 10^8
        t0 = time.perf_counter()
        assert run(["scan", "--real", "--limit", "2000001"]) == 2
        assert run(["scan", "--real", "--by-radicand", "--limit", "500001"]) == 2
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2000000" in captured.err and "500000" in captured.err

    def test_roots_above_ceiling_exit_2_at_once(self, capsys):
        # 100000 powers of the 3,043 fields to 1e4: past the roots ceiling
        t0 = time.perf_counter()
        assert run(["scan", "--real", "--limit", "10000", "--powers", "100000", "--format", "csv"]) == 2
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "above 2000000," in captured.err

    @pytest.mark.parametrize("argv", [
        ["--imaginary", "--limit", "-5"],
        ["--real", "--limit", "-5"],
        ["--real", "--limit", "20", "--powers", "-2"],
    ], ids=["imaginary-limit", "real-limit", "real-powers"])
    def test_negative_size_exit_2(self, capsys, argv):
        assert run(["scan", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative" in captured.err

    @pytest.mark.parametrize("mode", ["imaginary", "real"])
    def test_limit_up_to_2_is_the_empty_scan(self, capsys, mode):
        for limit in ("0", "1", "2"):
            code, obj = run_json(capsys, ["scan", f"--{mode}", "--limit", limit])
            assert code == 0
            assert obj["rows"] == [] and obj["count_h1"] == 0

    def test_jobs_flag_is_gone(self, capsys):
        # scans run in one process; the worker-count flag was removed
        assert run(["scan", "--real", "--limit", "40", "--jobs", "2"]) == 64
        assert capsys.readouterr().out == ""


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


class TestDomainLimits:
    @pytest.mark.parametrize("argv", [
        ["solve", "--a-re", "800", "--b-re", "1", "--c-re", "1"],
        ["alpha", "--case", "complex", "--eps-re", "0", "--eps-im", "1", "--beta", "-200"],
        ["verify", "--case", "complex", "--alpha-re", "0", "--alpha-im", "-1000",
         "--eps-re", "0", "--eps-im", "1"],
        # A*C = -inf + inf*i: exp of it is 0, the log of that is infinite
        ["solve", "--a-re", "0", "--a-im", "3.8690360027392735e+231", "--b-re", "1",
         "--c-re", "4.6463592832673334e+76", "--c-im", "4.6463592832673334e+76", "--branch", "1"],
    ], ids=["solve-exp-overflow", "alpha-beta-overflow", "verify-exp-overflow",
            "solve-product-overflow"])
    def test_overflow_is_a_domain_error(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["w", "--re", "1.7e308", "--im", "1.7e308"],
        ["w", "--re", "-1.7e308", "--im", "1.7e308", "--branch", "-1"],
        ["solve", "--a-re", "0", "--b-re", "1.7e308", "--b-im", "1.7e308", "--c-re", "1", "--branch", "1"],
        ["solve", "--a-re", "0", "--b-re", "1.7e308", "--b-im", "1.7e308", "--c-re", "1"],
    ], ids=["w", "w-branch", "solve-branch", "solve"])
    def test_a_modulus_past_the_float_range_is_a_domain_error(self, capsys, argv):
        # finite parts whose modulus overflows: exit 2, not a traceback
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "float range" in captured.err

    @pytest.mark.parametrize("argv", [
        ["solve", "--a-re", "1.7e308", "--a-im", "1.7e308", "--b-re", "1.7e308", "--c-re", "0", "--c-im", "1"],
        ["alpha", "--case", "complex", "--eps-re", "1.7e308", "--eps-im", "1.7e308"],
    ], ids=["solve-root", "alpha-unit"])
    def test_a_value_past_the_float_range_in_modulus_is_still_answered(self, capsys, argv):
        # a root, or a unit, whose modulus overflows, with finite parts: its
        # residual is checked, and the command answers
        code, obj = run_json(capsys, argv)
        assert code == 0
        assert all(math.isfinite(v) for v in obj.values() if isinstance(v, float))

    @pytest.mark.parametrize("argv, key", [
        (["solve", "--a-re", "800", "--b-re", "1e-300", "--c-re", "1"], "residual"),
        (["alpha", "--case", "complex", "--log-eps-re", "1.1e-308", "--branch", "1"],
         "residual_defining"),
    ], ids=["solve", "alpha-complex"])
    def test_exp_beyond_float_range_times_tiny_factor_is_solved(self, capsys, argv, key):
        # exp alone overflows, the product (about e^109 and e^5) does not
        code, obj = run_json(capsys, argv)
        assert code == 0
        assert obj[key] < 1e-11

    @pytest.mark.parametrize("branch", ["1", "-2"])
    def test_subnormal_lambert_argument_is_solved(self, capsys, branch):
        # -B*C*exp(A*C) is about -6.3e-320: its log goes to W, not its digits
        code, obj = run_json(
            capsys, ["alpha", "--case", "complex", "--log-eps-re", "1e-320", "--branch", branch]
        )
        assert code == 0
        assert obj["residual_defining"] <= 1e-10

    @pytest.mark.parametrize("log_eps", ["1e-308", "1e-320"])
    @pytest.mark.parametrize("branch", ["1", "-1", "2"])
    def test_tiny_real_log_eps_is_solved(self, capsys, branch, log_eps):
        # exp(+-2*pi*i*alpha_i) overflows while its product with log eps does
        # not; at 1e-320 the Lambert argument +-2*pi*i*log eps is subnormal
        code, obj = run_json(
            capsys, ["alpha", "--case", "real", "--log-eps-re", log_eps, "--branch", branch]
        )
        assert code == 0
        assert max(obj["residual_split_1"], obj["residual_split_2"]) <= 1e-10

    @pytest.mark.parametrize("argv", [
        ["unit", "--d", "100000000000031"],
        ["alpha", "--case", "real", "--d", "100000000000031"],
    ], ids=["unit", "alpha-real"])
    def test_radicand_above_ceiling_exit_2_at_once(self, capsys, argv):
        t0 = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "100000000" in captured.err

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_unit_past_the_int_digit_limit_exit_2(self, capsys, fmt):
        # the unit of d = 99999971 has 5,346 digits, more than an int may be
        # written in by default; alpha and verify use its regulator alone
        assert run(["unit", "--d", "99999971", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "d=99999971 has about 5346 digits" in captured.err
        assert "Traceback" not in captured.err
        assert run(["alpha", "--case", "real", "--d", "99999971", "--format", fmt]) == 0
        assert run(["verify", "--case", "real", "--alpha-re", "0.2", "--d", "99999971",
                    "--format", fmt]) == 0
        assert capsys.readouterr().out.count("\n") >= 2

    @pytest.mark.parametrize("d", ["1000000000000000003", "-1000000000000000003"],
                             ids=["positive", "negative"])
    def test_classno_radicand_above_ceiling_exit_2_at_once(self, capsys, d):
        # D = 4d or d lies beyond the class-number ceiling, which is checked
        # before the squarefree test of d
        t0 = time.perf_counter()
        assert run(["classno", f"--d={d}"]) == 2
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "supported" in captured.err

    def test_classno_radicand_past_the_ceiling_skips_the_squarefree_test(self, capsys, monkeypatch):
        # a prime d near 10^18 costs about a second of trial division, all of
        # it for a D = 4d that no class number reaches
        import lgw.fields

        calls = []
        monkeypatch.setattr(lgw.fields, "is_squarefree", lambda n: calls.append(n) or True)
        assert run(["classno", "--d", "999999999999999999899"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "supported" in captured.err
        assert calls == []

    def test_tiny_real_log_is_usable(self, capsys):
        code, obj = run_json(capsys, ["alpha", "--case", "real", "--log-eps-re", "1e-20"])
        assert code == 0
        assert obj["alpha_re"] == pytest.approx(2e-20, rel=1e-12)


_PARSER = _build_parser()
_COMMANDS = next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
# Beside the two ranges, the edges of float: +-1.7e308, whose modulus as
# both parts of a complex number is past the float range, subnormals and
# both zeros.
_FLOAT = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e308, 1e308),
    st.sampled_from([1.7e308, -1.7e308, 5e-324, 2.2e-308, 0.0, -0.0]),
)


def _flag_value(action):
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.dest in ("d", "discriminant"):
        return st.integers(-10**4, 10**4)
    if action.type is int:
        return st.integers(-8, 300)
    assert action.type is float, action
    if action.dest == "tolerance":
        return st.one_of(st.floats(1e-15, 1e-6), _FLOAT)
    return _FLOAT


def _draw_argv(draw, command, value=_flag_value):
    """argv for `command`, from that subparser's own flags.

    Each optional flag is drawn present or absent, but a required either/or
    group (classno's --discriminant / --d, scan's --imaginary / --real) gets
    exactly one of its flags; values come from value(action) and go in as
    `--flag=value`, so a negative number is not read as a flag.
    """
    argv = [command]
    groups = [g._group_actions for g in _COMMANDS[command]._mutually_exclusive_groups if g.required]
    chosen = [draw(st.sampled_from(actions)) for actions in groups]
    for action in _COMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if any(action in actions for actions in groups):
            present = action in chosen
        else:
            present = action.required or draw(st.booleans())
        if present:
            flag = action.option_strings[-1]
            argv.append(flag if action.nargs == 0 else f"{flag}={draw(value(action))}")
    return argv


@st.composite
def _point_argv(draw):
    """argv for a point command, from that subparser's own flags."""
    command = draw(st.sampled_from(("w", "solve", "alpha", "verify", "unit", "classno")))
    return _draw_argv(draw, command)


def _scan_flag_value(action):
    if action.dest == "limit":
        return st.integers(-10, 2000)
    if action.dest == "powers":
        return st.integers(-2, 3)
    return _flag_value(action)


@st.composite
def _scan_argv(draw):
    """argv for `scan` from its own flags, with --limit <= 2000."""
    return _draw_argv(draw, "scan", _scan_flag_value)


def _run_captured(argv, stdin=""):
    """(exit code, stdout, stderr) of cli.run(argv) reading stdin from a string."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)  # an escaping exception is the traceback the fuzz guards against
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def _check_parses(text, fmt):
    """stdout of a data command parses in its format (a scan's plain output
    starts with a summary line)."""
    if fmt == "json":
        json.loads(text)
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(text))
        assert all(len(row) == len(header) for row in rows)
    else:
        assert all("=" in line for line in text.splitlines())


class TestPointCommandFuzz:
    @settings(max_examples=1000, deadline=None)
    @given(argv=_point_argv())
    def test_exit_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)  # an escaping exception is the traceback this guards against
        assert code in (0, 2, 3, 64)
        assert "Traceback" not in err.getvalue()
        text = out.getvalue()
        if not text:
            return
        fmt = _PARSER.parse_args(argv).format
        if fmt == "json":
            json.loads(text)
        elif fmt == "csv":
            header, row = csv.reader(io.StringIO(text))
            assert len(header) == len(row)
        else:
            assert all("=" in line for line in text.splitlines())


class TestScanCommandFuzz:
    @settings(max_examples=80, deadline=None)
    @given(argv=_scan_argv(), table_format=st.sampled_from(("json", "csv", "plain")))
    def test_exit_contract_of_scan_and_table(self, argv, table_format):
        code, text, err = _run_captured(argv)
        assert code in (0, 2, 3, 64)
        assert "Traceback" not in err
        if not text:
            return
        fmt = _PARSER.parse_args(argv).format
        _check_parses(text, fmt)
        if fmt != "json":
            return
        code, table, err = _run_captured(["table", f"--format={table_format}"], stdin=text)
        assert code == 0, err
        _check_parses(table, table_format)


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


def _torsion_record(alpha: complex) -> dict:
    """A torsion-unit row record with the finite root alpha."""
    return {"D": -4, "unit": "i", "regulator": None, "alpha_re": alpha.real, "alpha_im": alpha.imag,
            "residual_defining": 0.0, "residual_split_1": None, "residual_split_2": None,
            "branch": 0, "log_branch": 0}


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

    @pytest.mark.parametrize("scan, argv", [
        (lambda: imaginary_scan_oracle(2000, log_branch=1),
         ["scan", "--imaginary", "--limit", "2000", "--log-branch", "1"]),
        (lambda: real_scan_oracle(300, unit_powers=2),
         ["scan", "--real", "--limit", "300", "--powers", "2"]),
    ], ids=["imaginary", "real"])
    def test_matches_library_table(self, capsys, monkeypatch, scan, argv):
        # the table of the command's scan against the table of the records
        # made one field at a time from the point API
        run(argv)
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        code, obj = run_json(capsys, ["table"])
        assert code == 0
        lib = list(correspondence_table(scan()["rows"]).entries)
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
        (json.dumps(json.loads(summary_to_json(scan_imaginary(15)))["rows"][-1:]).replace('"D": -15,', '"D": -015,'),
         []),
        ("5", []),
        (json.dumps([_torsion_record(1.7976931348623157e308j), _torsion_record(1.8941775056029057e300)]),
         []),
        (json.dumps([_torsion_record(1e308 + 1e308j), _torsion_record(-1e308 - 1e308j)]), []),
    ], ids=["missing-file", "not-json", "no-rows", "rows-not-list", "record-lacks-key",
            "unknown-torsion-label", "nan-alpha", "infinite-alpha", "truncated", "trailing-data",
            "leading-zero", "top-level-number", "separation-overflows", "separation-infinite"])
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


class TestClassnoBytes:
    """`lgw classno` stdout in JSON, CSV and plain, pinned by the sha256 of the
    three outputs in that order. The digests were taken while class_number
    of a positive D took its regulator from a float walk of its own, before
    it shared _real_class_numbers with the real scan, and while a negative D
    still had its reduced forms listed one by one, before the walk over b."""

    SHA256 = {
        "--discriminant 5": "e204998ee58f5a5a24c0ec7b42e96f4de21029f6a37489df1930de61ba1d6954",
        "--discriminant 5 --narrow": "8514f069dc60110b8126f39b84332cac5caa57518da6c5b642ac26f0cff703a9",
        "--discriminant 12": "9c22fd470b461b72925014df64179f4f8f326b7a4460c08ead1cce0899dbd92a",
        "--discriminant 12 --narrow": "9ff84ec920de99fdbd9254f34aa76c5805cef81c299b92d17048bd82c4b38f36",
        "--discriminant 40": "56e0bb120bb6a8e1b72040c630162bc40899bc5f3d46692f12b7d404daf54def",
        "--discriminant 40 --narrow": "5162c9040d1302ed2ac1ebbfa8d4c43eea5fa33ae747a3d4eb2fb1ca410291da",
        "--discriminant 99999989": "0ece4b87a7f0800b685ac30beccf9e888f5c0550e7cda461b83cfebb69e9f962",
        "--discriminant 99999989 --narrow": "249f791d67a8ea1bb5fefbe1e06940482171735058030b526829744a85e6f9b9",
        "--discriminant 99999941": "ac40a236b2c91e2013537d0672a29beaf104cd42dd7457cd73d9bb6f9fcc95a6",
        "--discriminant 99999941 --narrow": "51db893551e2b9637c8a1b8d39324eb9232a45c3b0420b625f902ae54a20c4ff",
        "--discriminant 99999997": "1fc77309b3aeda6388b7c275796653fa8d9991efec8ff74412018eee6593bf51",
        "--discriminant 99999997 --narrow": "e8be1a735b4cacae378ad6444010054c64cd2ec589647ac3d8f6b06dd627c9fc",
        "--d 10 --narrow": "5162c9040d1302ed2ac1ebbfa8d4c43eea5fa33ae747a3d4eb2fb1ca410291da",
        "--discriminant -3": "41086493a118b66eeeb5fdaaa5692148fd15004a9f0db5d6c877630d3030beb3",
        "--discriminant -3 --narrow": "9a3a5c5851d7201082298378a0e75f9c0066e404d871fae692fce90db9fc5b15",
        "--discriminant -4": "3c40c0ddb1186bfdae30cc1d24e97e64605a4b750fa9e1121cc839d67bc3824f",
        "--discriminant -4 --narrow": "14b9d7a5ed2b6b406492808dbd3a41a3ff7714fdd7f53608a4017413273a146e",
        "--discriminant -163": "c04912c9c1cc01a4147d61cc14f4ec353a11c30311332cebcfd5ad387e1106bc",
        "--discriminant -163 --narrow": "0ad0d7c91bf654aa66c38c7b1b66d96907df1daecfb0debcfb279bcdf4371f76",
        "--discriminant -9999991": "7c29888d9a38479fc5a2245698b77526fa3f28f628090b85796f57f4f1d32dae",
        "--discriminant -9999991 --narrow": "b5b68d6258d210872ec432e53def3dfe141a12bcfb04364554cc8040a246d0a5",
    }

    @pytest.mark.parametrize("flags", ["5", "12", "40", "99999989", "99999941", "99999997", "--d 10",
                                       "-3", "-4", "-163", "-9999991"])
    def test_bytes(self, capsys, monkeypatch, flags):
        import functools

        import lgw.fields

        # a D near 10^8 takes about 0.6 s; its six runs share one class number
        monkeypatch.setattr(lgw.fields, "_class_numbers", functools.cache(lgw.fields._class_numbers))
        argv = flags.split() if flags.startswith("--") else ["--discriminant", flags]
        for narrow in ([], ["--narrow"]) if argv[0] == "--discriminant" else (["--narrow"],):
            out = ""
            for fmt in ("json", "csv", "plain"):
                assert run(["classno", *argv, *narrow, "--format", fmt]) == 0
                out += capsys.readouterr().out
            key = " ".join([*argv, *narrow])
            assert hashlib.sha256(out.encode()).hexdigest() == self.SHA256[key], (key, out)


class TestPointCommandBytes:
    """stdout and exit code of the point commands and of `lgw table`, pinned by
    the sha256 of "<exit code>\n<stdout>" for json, csv and plain in that
    order. `table` reads `scan --imaginary --limit 2000` from stdin. The
    digests were taken while every command checked --tolerance and built its
    own "conventions" echo."""

    SHA256 = {
        "w --re 1": "29733af26d976b066743e5aa0f67d199ea73aa4cb71deb6c41c4ab0f82c7ea97",
        "w --re -0.3 --im 0.2 --branch -1 --tolerance 1e-12": "eabfef8dc7b2e4fe15c01d044aa93d7336bdb5da2a8e962c6dc315e3a9988d54",
        "w --re 1e300 --im -1e300 --branch 4": "6144f2fffd200187374fceadbc6061407226e6daa1edaa2e42ceb9ba476165f6",
        "w --re 1 --tolerance 1e-3": "edc8cd811c9d7da791d5fca4cdf3699bcd9dbe67cee772cb877cfd56411eb0e3",
        "solve --a-re 1 --b-re 2 --c-re -0.5 --branch 1": "a0a347252e1a378df1b01e283e5127b9f642b69eeb0cb2f0f27f3bd09f158cd8",
        "solve --a-re 0.5 --a-im -2 --b-re 1.5 --b-im 0.25 --c-re 0.75 --c-im 1 --branch -2 --tolerance 1e-15": "217ec5dd41fe8d12fca364799881c86f9a4332ccae54dffa6c30b55a4bf2242c",
        "alpha --case complex --eps-re 0 --eps-im 1 --branch 1 --beta 0.5": "18b0c5325cc6565cfea3e7f18216b21e76b66ed13ca8b1793d1a28521d0a3099",
        "alpha --case complex --log-eps-re -0.4 --log-eps-im 0.7 --log-branch 2 --branch -3": "5e3b94268af59aedfe7e2e783149799950a3580f5ef2a6d34f433f78278cd7bb",
        "alpha --case real --log-eps-re 0.8813735870195432 --branch 2 --pairing same-branch": "54d8852273c5d827affa3518525f65f8dc129b659cd18888ed84cc9d5092dc2e",
        "alpha --case real --d 94 --branch -1": "ee169d8c17938e36f694feee10f999f077dae21b07a3094c804d23037df59a52",
        "alpha --case real --d 5": "2cc71cd5a780fb98bd60fc0176771941b11fe9bb1992a80e817562400e0166ce",
        "alpha --case real --eps-re 2.5 --branch 3 --tolerance 1e-8": "0ca2a36f61556f0749032e6f99812f51031b5f0961027affce7336201a63d0fe",
        "unit --d 5": "29cb2729f0b57c1784db8f1e6937f418e1baaa881fbcca3515a688299554d697",
        "unit --d 94": "785bdca5a3e2609e0dea94ef19833eb06bcc291dd9a85a661a952f82d751cfc9",
        "unit --d 61 --tolerance 1e-9": "980685cf3f8022300c5cf58fd91b9abbd38a3c67530b8f737a71238dee4f0919",
        "unit --d 12": "579df6754926501d51d60a23a65d15dacc5cfa485e604a2a5252243f8e8d1022",
        "verify --case complex --alpha-re 0.1 --alpha-im 0.2 --eps-re 0 --eps-im 1": "f3daec7b53ede1d03e24a5c71fa53a9a0d98dad2f7eb3e4c1561084e414a9b8b",
        "verify --case complex --alpha-re 0.1 --log-eps-re -0.4 --log-eps-im 0.7 --log-branch 1 --tolerance 1e-6": "713ebaf64a8409c8d24b94834717b657b725f1d7c388bed1ae5fc037416bdc55",
        "verify --case real --alpha-re 0.263707115569417 --d 5 --tolerance 1e-6": "0fa2f534ee8263754f4649747be00439175df31e4a6f82dd7b2f78f6927638cf",
        "verify --case real --alpha-re 0.2 --log-eps-re 1.5": "e94b5adafc127e968a32a515d97bf16f8704b17f118fdacb0a75230633f4af4f",
        "table": "b7a962e0061b8d4eba5058c7d0783a29fb8a3f28dfe1b72cc3ef1088a5da7d89",
        "table --tolerance 1e-12": "ce173121cd8947721bae3b78ffb18cd1370a15c9d00070499aa3857a2957bcb3",
    }

    @pytest.mark.parametrize("flags", list(SHA256))
    def test_bytes(self, flags):
        argv = flags.split()
        stdin = _run_captured(["scan", "--imaginary", "--limit", "2000"])[1] if argv[0] == "table" else ""
        blob = ""
        for fmt in ("json", "csv", "plain"):
            code, out, _ = _run_captured([*argv, "--format", fmt], stdin)
            blob += f"{code}\n{out}"
        assert hashlib.sha256(blob.encode()).hexdigest() == self.SHA256[flags], blob


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


# Modules that only a sieve, a scan or a worker pool needs.
_LAZY_MODULES = ("numpy", "multiprocessing", "concurrent.futures.process", "fractions")

# The public names of lgw before its layers were loaded on first use, less
# BinaryQuadraticForm and reduce_form, which left the API with form reduction,
# and SurveyRow and row_records, which left it with the row objects.
_EXPORTED = frozenset("""
    BRANCH_POINT_Z BranchPointSingularity BranchSingularity Case
    DegenerateCoefficients DegenerateD DomainError ExpLinearEquation FixedPointReport
    FundamentalUnit LgwDomainError LgwError LgwNumericalError NoConvergence NonFinite
    NotFundamental NotImaginary NotSquarefree OMEGA OddDegree Pairing PrecisionLoss
    QuadraticFieldDescriptor RootsOfUnity SquareDiscriminant SurveySummary
    TermLimitExceeded UnitInput UsageError WEvaluation ZeroLogUnit alpha_complex_case
    alpha_real_case class_number class_number_analytic correspondence_table describe_field
    discriminant_of_radicand fundamental_discriminants fundamental_unit
    is_fundamental_discriminant is_squarefree iter_summary_json kronecker_symbol lambert_w
    lambert_w_real radicand_of_discriminant records_to_csv roots_of_unity
    scan_imaginary scan_real solve_exp_linear summary_to_json unit_log unit_rank
    verify_fixed_point w_derivative w_series
""".split())


def _modules_loaded_by(commands: list[list[str]]) -> dict:
    """In a fresh interpreter: which lgw submodules and which of
    _LAZY_MODULES `import lgw` loads, and which are loaded once cli.run has
    run each of `commands` (stdout captured)."""
    code = (
        "import contextlib, io, json, sys\n"
        "import lgw\n"
        f"lazy = {_LAZY_MODULES!r}\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m in lazy or m.startswith('lgw.'))\n"
        "after_import = loaded()\n"
        "import lgw.cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert lgw.cli.run(argv) == 0, argv\n"
        "print(json.dumps({'import': after_import, 'run': loaded()}))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


class TestLazyImports:
    def test_point_commands_load_no_sieve_modules(self):
        loaded = _modules_loaded_by([
            ["w", "--re", "1"],
            ["w", "--branch", "-1", "--re", "-0.1", "--format", "csv"],
            ["solve", "--a-re", "1", "--b-re", "2", "--c-re", "0.5", "--branch", "-1"],
            ["alpha", "--case", "real", "--d", "5"],
            ["alpha", "--case", "complex", "--eps-re", "0", "--eps-im", "1", "--format", "plain"],
            ["unit", "--d", "94"],
            ["verify", "--case", "real", "--alpha-re", "0", "--log-eps-re", "1"],
            ["classno", "--discriminant", "-163"],
        ])
        layers = ["lgw.cli", "lgw.csvtext", "lgw.errors", "lgw.fields", "lgw.solver", "lgw.wfunc"]
        assert loaded == {"import": ["lgw.errors"], "run": layers}

    def test_point_csv_loads_no_scan_layer(self):
        loaded = _modules_loaded_by([["w", "--re", "1", "--format", "csv"]])
        assert loaded == {"import": ["lgw.errors"], "run": ["lgw.cli", "lgw.csvtext", "lgw.errors", "lgw.wfunc"]}

    def test_scan_loads_numpy(self):
        loaded = _modules_loaded_by([["scan", "--imaginary", "--limit", "2000"]])
        assert loaded["import"] == ["lgw.errors"]
        assert "numpy" in loaded["run"]

    def test_w_loads_only_wfunc(self):
        loaded = _modules_loaded_by([["w", "--re", "1"], ["w", "--re", "-0.2", "--format", "plain"]])
        assert loaded == {"import": ["lgw.errors"], "run": ["lgw.cli", "lgw.errors", "lgw.wfunc"]}

    def test_solver_commands_load_no_fields_or_survey(self):
        loaded = _modules_loaded_by([
            ["solve", "--a-re", "1", "--b-re", "2", "--c-re", "0.5"],
            ["alpha", "--case", "complex", "--eps-re", "0", "--eps-im", "1"],
            ["alpha", "--case", "real", "--log-eps-re", "1"],
            ["verify", "--case", "complex", "--alpha-re", "0.1", "--eps-re", "2"],
            ["verify", "--case", "real", "--alpha-re", "0", "--log-eps-re", "1"],
        ])
        assert loaded["run"] == ["lgw.cli", "lgw.errors", "lgw.solver", "lgw.wfunc"]

    def test_exports_are_the_layer_objects(self):
        import lgw
        from lgw import errors, fields, solver, survey, wfunc

        assert _EXPORTED <= set(lgw.__all__)
        assert not {"SurveyRow", "UnitAlpha", "row_records"} & {*lgw.__all__, *survey.__all__}
        assert len(lgw.__all__) == len(set(lgw.__all__))
        layers = (errors, fields, solver, survey, wfunc)
        for name in lgw.__all__:
            owners = [m for m in layers if hasattr(m, name)]
            assert owners, name
            assert all(getattr(lgw, name) is getattr(m, name) for m in owners), name

    def test_star_import_dir_and_unknown_names(self):
        import lgw

        namespace: dict = {}
        exec("from lgw import *", namespace)
        assert set(lgw.__all__) <= namespace.keys()
        assert set(lgw.__all__) <= set(dir(lgw))
        with pytest.raises(AttributeError, match="nonexistent"):
            lgw.nonexistent

    def test_layers_resolve_after_a_bare_import(self):
        code = (
            "import json, sys\n"
            "import lgw\n"
            "before = sorted(m for m in sys.modules if m.startswith('lgw'))\n"
            "from lgw import cli\n"
            "print(json.dumps([before, lgw.survey.__name__, lgw.fields.__name__, cli.__name__]))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == [["lgw", "lgw.errors"], "lgw.survey", "lgw.fields", "lgw.cli"]


def _help_text(parse, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return out.getvalue()


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_runs_in_one_process_match_a_fresh_process(self):
        # a usage error and a scan with other flags, then the scan under test
        code, out, err = _run_captured(["scan", "--real", "--imaginary", "--limit", "300"])
        assert (code, out) == (64, "")
        assert "usage: lgw" in err
        assert _run_captured(["scan", "--real", "--limit", "300", "--powers", "2"])[0] == 0
        last = _run_captured(["scan", "--real", "--limit", "300"])
        fresh = subprocess.run(
            [sys.executable, "-m", "lgw", "scan", "--real", "--limit", "300"],
            capture_output=True,
            text=True,
        )
        assert last == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert fresh.returncode == 0 and fresh.stdout

    @pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]], ids=["lgw", "scan"])
    def test_help_matches_a_newly_built_parser(self, argv):
        new = _help_text(_build_parser.__wrapped__().parse_args, argv)
        assert _help_text(run, argv) == new
        assert _run_captured(["scan", "--real", "--limit", "30", "--powers", "2"])[0] == 0
        assert _help_text(run, argv) == new


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
