"""Command-line front end: every library operation behind one tool.

Exit codes: 0 success, 2 domain error (bad mathematical input), 3 numerical
failure, 64 usage error. stdout carries data only (JSON is one object or
array, newline-terminated; CSV has a fixed header); diagnostics go to
stderr. Defaults (branch 0, log branch 0, conjugate-branch pairing,
tolerance 1e-10) are echoed in every JSON object under "conventions" so a
result is reproducible from its own output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import wfunc
from .errors import LgwDomainError, LgwNumericalError, UsageError

__all__ = ["main", "run"]

_DEFAULT_TOL = 1e-10

_USAGE_EXIT = 64
_DOMAIN_EXIT = 2
_NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's pattern has no exponent, so it takes "-1e-3" for a flag
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")

    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


@functools.cache  # parse_args keeps no state in the parser: build it once per process
def _build_parser() -> _Parser:
    p = _Parser(
        prog="lgw",
        description=(
            "Lambert W toolkit with a quadratic-field class-number survey. "
            "Defaults: --branch 0, --log-branch 0, --pairing conjugate-branch, "
            "--tolerance 1e-10."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, pairing=False, log_branch=False, branch=True):
        sp.add_argument("--format", choices=("json", "csv", "plain"), default="json",
                        help="output format (default json)")
        sp.add_argument("--tolerance", type=float, default=None,
                        help="residual tolerance override, in [1e-15, 1e-6]; default check 1e-10")
        if branch:
            sp.add_argument("--branch", type=int, default=0, help="Lambert branch index (default 0)")
        if log_branch:
            sp.add_argument("--log-branch", type=int, default=0,
                            help="complex-log branch shift (default 0)")
        if pairing:
            sp.add_argument("--pairing", choices=("conjugate-branch", "same-branch"),
                            default="conjugate-branch",
                            help="real-case branch pairing (default conjugate-branch)")

    sp = sub.add_parser("w", help="evaluate W_k(z)")
    sp.add_argument("--re", type=float, required=True)
    sp.add_argument("--im", type=float, default=0.0)
    add_common(sp)

    sp = sub.add_parser("solve", help="solve z = A + B*exp(C*z)")
    for name in ("a", "b", "c"):
        sp.add_argument(f"--{name}-re", type=float, required=True)
        sp.add_argument(f"--{name}-im", type=float, default=0.0)
    add_common(sp)

    def add_unit(sp):  # the unit that alpha and verify read through _unit_input
        sp.add_argument("--case", choices=("complex", "real"), required=True)
        sp.add_argument("--eps-re", type=float, default=None)
        sp.add_argument("--eps-im", type=float, default=None)
        sp.add_argument("--log-eps-re", type=float, default=None)
        sp.add_argument("--log-eps-im", type=float, default=None)
        sp.add_argument("--d", type=int, default=None,
                        help="real case: use the fundamental unit of Q(sqrt(d))")

    sp = sub.add_parser("alpha", help="fixed-point root alpha for a unit")
    add_unit(sp)
    sp.add_argument("--beta", type=float, default=0.0,
                    help="complex case: auxiliary constant; cancels in the root (default 0)")
    add_common(sp, pairing=True, log_branch=True)

    sp = sub.add_parser("unit", help="fundamental unit of Q(sqrt(d))")
    sp.add_argument("--d", type=int, required=True)
    add_common(sp, branch=False)

    sp = sub.add_parser("classno", help="class number of a quadratic field")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--discriminant", type=int, default=None)
    g.add_argument("--d", type=int, default=None, help="radicand instead of discriminant")
    sp.add_argument("--narrow", action="store_true", help="also report the narrow h+")
    add_common(sp, branch=False)

    sp = sub.add_parser("scan", help="survey a discriminant range")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--imaginary", action="store_true")
    g.add_argument("--real", action="store_true")
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--powers", type=int, default=1,
                    help="real case: attach alpha for unit powers up to N (default 1)")
    sp.add_argument("--by-radicand", action="store_true",
                    help="real case: bound the radicand d instead of the discriminant")
    add_common(sp, pairing=True, log_branch=True)

    sp = sub.add_parser("verify", help="residual of the defining equation at alpha")
    add_unit(sp)
    sp.add_argument("--alpha-re", type=float, required=True)
    sp.add_argument("--alpha-im", type=float, default=0.0)
    add_common(sp, log_branch=True, branch=False)

    sp = sub.add_parser("table", help="correspondence table from scan JSON")
    sp.add_argument("--input", default="-", help="scan JSON file, or - for stdin")
    add_common(sp, branch=False)

    return p


# Flags one case alone reads, by dest: that case, and the default that leaves
# the flag unset. Set with the other case, a flag would be ignored.
_CASE_FLAGS = {"d": ("real", None), "beta": ("complex", 0.0), "pairing": ("real", "conjugate-branch"),
               "powers": ("real", 1), "by_radicand": ("real", False)}


def _check_case_flags(ns) -> None:
    """UsageError naming a flag set with the case (scan's --imaginary is the
    complex one) that does not read it."""
    case = ("real" if ns.real else "complex") if ns.command == "scan" else getattr(ns, "case", None)
    for dest, (only, default) in _CASE_FLAGS.items():
        if case not in (None, only) and getattr(ns, dest, default) != default:
            raise UsageError(f"--{dest.replace('_', '-')} applies to the {only} case only")


def _tolerance(ns) -> float:
    """The residual tolerance: --tolerance, checked in run, or the default."""
    return _DEFAULT_TOL if ns.tolerance is None else ns.tolerance


def _conventions(ns) -> dict:
    return {
        "branch": getattr(ns, "branch", 0),
        "log_branch": getattr(ns, "log_branch", 0),
        "pairing": getattr(ns, "pairing", "conjugate-branch"),
        "tolerance": _tolerance(ns),
    }


def _emit(obj, ns) -> None:
    """Write a point command's result, with its conventions last."""
    if ns.format == "csv":  # scalar columns only; conventions stay in JSON
        from .csvtext import records_to_csv

        sys.stdout.write(records_to_csv([obj], list(obj)))
        return
    obj["conventions"] = _conventions(ns)
    if ns.format == "plain":
        for k, v in obj.items():
            print(f"{k}={v}")
    else:
        print(json.dumps(obj))


def _unit_input(ns) -> solver.UnitInput:
    """The unit of alpha and verify, from exactly one of its three sources (a
    part not given reads 0), checked by UnitInput as every unit is."""
    from . import solver

    eps, log = (None if re is None and im is None else complex(0.0 if re is None else re, 0.0 if im is None else im)
                for re, im in ((ns.eps_re, ns.eps_im), (ns.log_eps_re, ns.log_eps_im)))
    sources = {"--eps-re/--eps-im": eps, "--log-eps-re/--log-eps-im": log, "--d": ns.d}
    given = [flags for flags, value in sources.items() if value is not None]
    if len(given) != 1:
        raise UsageError(f"need exactly one of {', '.join(sources)}; got {' and '.join(given) or 'none'}")
    if ns.d is not None:
        from . import fields

        log = fields.fundamental_unit(ns.d).regulator
    return solver.UnitInput(eps, ns.log_branch, ns.case, log)


def _cmd_w(ns) -> int:
    ev = wfunc.lambert_w(ns.branch, complex(ns.re, ns.im))
    out = {
        "re": ev.value.real,
        "im": ev.value.imag,
        "residual": ev.residual,
        "branch": ev.branch,
        "iterations": ev.iterations,
    }
    _emit(out, ns)
    return 0 if ev.residual <= _tolerance(ns) else _NUMERICAL_EXIT


def _cmd_solve(ns) -> int:
    from . import solver

    eq = solver.ExpLinearEquation(
        complex(ns.a_re, ns.a_im), complex(ns.b_re, ns.b_im), complex(ns.c_re, ns.c_im)
    )
    z = solver.solve_exp_linear(eq, ns.branch)
    resid = eq.residual(z)
    out = {
        "re": z.real,
        "im": z.imag,
        "residual": resid,
        "branch": ns.branch,
    }
    _emit(out, ns)
    try:
        ok = resid <= _tolerance(ns) * (1.0 + abs(z))
    except OverflowError:  # |z| is past the float range, and the finite residual within it
        ok = True
    return 0 if ok else _NUMERICAL_EXIT


def _cmd_alpha(ns) -> int:
    from . import solver

    u = _unit_input(ns)
    if u.case is solver.Case.COMPLEX:
        rep = solver.alpha_complex_case(u, j=ns.branch, beta=ns.beta)
        checked = rep.residual_defining
    else:
        rep = solver.alpha_real_case(u, j=ns.branch, pairing=ns.pairing)
        checked = max(rep.residual_split_1, rep.residual_split_2)
    out = {
        "alpha_re": rep.alpha.real,
        "alpha_im": rep.alpha.imag,
        "branch": rep.branch,
        "beta": rep.beta,
        "residual_defining": rep.residual_defining,
        "residual_split_1": rep.residual_split_1,
        "residual_split_2": rep.residual_split_2,
        "residual_sum_equation": rep.residual_sum_equation,
    }
    _emit(out, ns)
    return 0 if checked <= _tolerance(ns) else _NUMERICAL_EXIT


def _cmd_unit(ns) -> int:
    from . import fields

    fu = fields.fundamental_unit(ns.d)
    out = {
        "d": fu.d,
        "x": fu.x,
        "y": fu.y,
        "half_integral": fu.half_integral,
        "norm": fu.norm,
        "regulator": fu.regulator,
        "unit": fu.as_string(),
    }
    _emit(out, ns)
    return 0


def _cmd_classno(ns) -> int:
    from . import fields

    D = ns.discriminant if ns.discriminant is not None else fields._sized_discriminant_of_radicand(ns.d)
    h_narrow, h = fields._class_numbers(D)  # one distance sum for both
    out: dict = {"D": D, "h": h}
    if ns.narrow:
        out["h_narrow"] = h_narrow
    out["d"] = fields._radicand_rule(D)  # D checked by _class_numbers
    _emit(out, ns)
    return 0


def _cmd_scan(ns) -> int:
    from . import survey

    if ns.imaginary:
        summary = survey.scan_imaginary(ns.limit, branch=ns.branch, log_branch=ns.log_branch)
    else:
        summary = survey.scan_real(
            ns.limit,
            branch=ns.branch,
            pairing=ns.pairing,
            unit_powers=ns.powers,
            by_radicand=ns.by_radicand,
            log_branch=ns.log_branch,
        )
    if ns.format == "csv":
        sys.stdout.writelines(survey.iter_summary_csv(summary))
    elif ns.format == "plain":
        sys.stdout.writelines(survey.iter_summary_plain(summary))
    else:
        sys.stdout.writelines(survey.iter_summary_json(summary, trailer={"conventions": _conventions(ns)}))
        sys.stdout.write("\n")
    return 0


def _cmd_verify(ns) -> int:
    from . import solver

    u = _unit_input(ns)
    resid = solver.verify_fixed_point(complex(ns.alpha_re, ns.alpha_im), u)
    out = {"residual": resid}
    _emit(out, ns)
    # without --tolerance, verify only reports the residual
    return 0 if ns.tolerance is None or resid <= ns.tolerance else _NUMERICAL_EXIT


def _cmd_table(ns) -> int:
    from . import survey

    try:
        if ns.input == "-":
            records = survey.read_rooted_records(sys.stdin)
        else:
            with open(ns.input) as fh:
                records = survey.read_rooted_records(fh)
    except OSError as exc:
        raise UsageError(f"cannot read --input: {exc}") from exc
    except ValueError as exc:  # not scan JSON, or bytes that are not UTF-8
        raise UsageError(f"input is not scan JSON: {exc}") from exc
    try:
        tab = survey.correspondence_table(records)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"input rows are not scan row records: {exc!r}") from exc
    if ns.format == "csv":
        sys.stdout.write(survey.records_to_csv(tab.entries, survey.TABLE_COLUMNS))
    elif ns.format == "plain":
        print(f"n_alpha={tab.n_alpha} distinct={tab.distinct_alpha_count} "
              f"min_separation={tab.min_alpha_separation}")
        for e in tab.entries:
            print("  ".join(f"{k}={v}" for k, v in e.items()))
    else:
        print(json.dumps({
            "entries": list(tab.entries),
            "n_alpha": tab.n_alpha,
            "distinct_alpha_count": tab.distinct_alpha_count,
            "min_alpha_separation": tab.min_alpha_separation,
            "conventions": _conventions(ns),
        }))
    return 0


_DISPATCH = {
    "w": _cmd_w,
    "solve": _cmd_solve,
    "alpha": _cmd_alpha,
    "unit": _cmd_unit,
    "classno": _cmd_classno,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def run(argv: list[str]) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.tolerance is not None and not (1e-15 <= ns.tolerance <= 1e-6):
            raise UsageError(f"--tolerance must lie in [1e-15, 1e-6], got {ns.tolerance}")
        _check_case_flags(ns)
        return _DISPATCH[ns.command](ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return _USAGE_EXIT
    except LgwNumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except LgwDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(128 + 13)
    sys.exit(code)


if __name__ == "__main__":
    main()
