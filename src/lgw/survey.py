"""Discriminant scans: class-number-one tables with attached fixed-point roots.

A scan walks fundamental discriminants in a range, records (D, d, h) for
every field, and for class-number-one fields attaches the fixed-point roots
alpha of the unit layer: one per torsion unit for imaginary fields, one per
fundamental-unit power for real fields. Row and summary serialization is
stable and byte-identical regardless of the worker count, so scan output
can be diffed and pinned in tests.
"""

from __future__ import annotations

import cmath
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fields import (
    FundamentalUnit,
    RootsOfUnity,
    _check_real_size,
    _fundamental_discriminant_array,
    _narrow_class_numbers,
    _squarefree_mask,
    _wide_class_number,
    class_numbers_imaginary_batch,
    fundamental_unit,
    is_squarefree,  # kept in this namespace so callers can count its calls here
    roots_of_unity,
)
from .solver import Case, FixedPointReport, Pairing, UnitInput, alpha_complex_case, alpha_real_case

__all__ = [
    "UnitAlpha",
    "SurveyRow",
    "SurveySummary",
    "scan_imaginary",
    "scan_real",
    "correspondence_table",
    "row_records",
    "summary_to_json",
    "iter_summary_json",
    "records_to_csv",
    "CSV_COLUMNS",
    "TABLE_COLUMNS",
]

CSV_COLUMNS = (
    "D",
    "d",
    "h",
    "unit",
    "norm",
    "regulator",
    "alpha_re",
    "alpha_im",
    "residual_defining",
    "residual_split_1",
    "residual_split_2",
    "residual_sum_equation",
    "branch",
    "log_branch",
)

TABLE_COLUMNS = (
    "D",
    "unit",
    "log_eps_re",
    "log_eps_im",
    "alpha_re",
    "alpha_im",
    "residual_defining",
    "residual_split_1",
    "residual_split_2",
    "branch",
)

_DISTINCT_TOL = 1e-9


@dataclass(frozen=True)
class UnitAlpha:
    """One attached root: the unit it came from and the full report."""

    unit_label: str | None
    norm: int | None
    regulator: float | None
    report: FixedPointReport | None  # None when the unit has no usable log


@dataclass(frozen=True)
class SurveyRow:
    D: int
    d: int
    h: int
    case: Case
    unit: FundamentalUnit | RootsOfUnity | None
    alphas: tuple[UnitAlpha, ...]

    @property
    def alpha_reports(self) -> tuple[FixedPointReport, ...]:
        return tuple(a.report for a in self.alphas if a.report is not None)


@dataclass(frozen=True)
class SurveySummary:
    range: tuple[int, int]
    count_h1: int
    rows: tuple[SurveyRow, ...]
    distinct_alpha_count: int
    min_alpha_separation: float | None
    distinct_unit_count: int


# Each torsion unit by its label in the row records, with arg(eps) in (-pi, pi]
_TORSION_ARGS = {
    "1": 0.0,
    "-1": math.pi,
    "i": math.pi / 2,
    "-i": -math.pi / 2,
    "(1+i*sqrt(3))/2": math.pi / 3,
    "(-1+i*sqrt(3))/2": 2 * math.pi / 3,
    "(-1-i*sqrt(3))/2": -2 * math.pi / 3,
    "(1-i*sqrt(3))/2": -math.pi / 3,
}


def _torsion_label(z: complex) -> str:
    theta = math.atan2(z.imag, z.real)
    return next(label for label, arg in _TORSION_ARGS.items() if abs(arg - theta) < 1e-9)


def _distinct_stats(values: Iterable[complex]) -> tuple[int, float | None]:
    """How many values are distinct (farther apart than _DISTINCT_TOL), and
    the least distance between two distinct ones (None if fewer than two).

    The same unit recurs across fields and contributes the same root, so
    separation is measured between distinct roots, not raw attachments.
    Values are taken in input order: each one is a new representative
    unless an earlier representative lies within _DISTINCT_TOL of it. The
    values must be finite.
    """
    # Representatives by grid cell. A cell side of twice the tolerance keeps
    # any two values within it in neighbouring cells whatever the rounding
    # of the cell index, so the 3 x 3 cells around a value hold every
    # representative that can absorb it.
    side = 2 * _DISTINCT_TOL
    cells: dict[tuple[float, float], list[complex]] = {}
    reps: list[complex] = []
    for v in values:
        x, y = v.real // side, v.imag // side
        if all(
            abs(v - r) > _DISTINCT_TOL
            for dx in (-1.0, 0.0, 1.0)
            for dy in (-1.0, 0.0, 1.0)
            for r in cells.get((x + dx, y + dy), ())
        ):
            cells.setdefault((x, y), []).append(v)
            reps.append(v)
    if len(reps) < 2:
        return len(reps), None
    # Sweep by real part: no later value can come closer than its real gap.
    reps.sort(key=lambda z: z.real)
    best = math.inf
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            if b.real - a.real >= best:
                break
            best = min(best, abs(b - a))
    return len(reps), best


# -- imaginary scan ---------------------------------------------------------------

def _imaginary_row(args: tuple[int, int, int, int]) -> SurveyRow:
    """The h = 1 row of discriminant D, radicand d, with its torsion roots."""
    D, d, branch, log_branch = args
    mu = roots_of_unity(D)
    alphas = []
    for eps in mu.elements:
        if eps == 1 and log_branch == 0:
            rep = None  # log(1) = 0 on the principal branch: no root to attach
        else:
            u = UnitInput.complex_unit(eps, log_branch)
            rep = alpha_complex_case(u, j=branch, beta=0.0)
        alphas.append(UnitAlpha(_torsion_label(eps), None, None, rep))
    return SurveyRow(D=D, d=d, h=1, case=Case.COMPLEX, unit=mu, alphas=tuple(alphas))


def scan_imaginary(
    limit: int, *, branch: int = 0, log_branch: int = 0, jobs: int = 1
) -> SurveySummary:
    """Scan fundamental D in [-limit, -3]; attach alpha to every h = 1 field.

    Discriminants and radicands come from the fundamental-discriminant
    sieve, class numbers from the batched form sieve; torsion units with a
    usable log (nonzero under the configured log branch) each contribute an
    alpha via the complex-case root formula.
    """
    limit = int(limit)
    if limit < 3:
        return SurveySummary((-limit, -3), 0, (), 0, None, 0)
    # The sieve has already proved every D fundamental, so the radicand
    # (D for D = 1 mod 4, D/4 otherwise) and h are read off whole arrays.
    D = _fundamental_discriminant_array(-limit, -3)[::-1]  # -3 first, |D| ascending
    d = D.copy()
    d[D % 4 == 0] //= 4
    h = class_numbers_imaginary_batch(limit)[-D]
    Ds, radicands, hs = D.tolist(), d.tolist(), h.tolist()
    h1_rows = _map_rows(
        _imaginary_row,
        [(Di, di, branch, log_branch) for Di, di, hi in zip(Ds, radicands, hs) if hi == 1],
        jobs,
    )
    attached = iter(h1_rows)
    rows = tuple(
        next(attached) if hi == 1
        else SurveyRow(D=Di, d=di, h=hi, case=Case.COMPLEX, unit=None, alphas=())
        for Di, di, hi in zip(Ds, radicands, hs)
    )
    units = [eps for r in h1_rows for eps in r.unit.elements]
    distinct_alpha, min_sep = _distinct_stats(
        rep.alpha for row in h1_rows for rep in row.alpha_reports
    )
    return SurveySummary(
        range=(-limit, -3),
        count_h1=len(h1_rows),
        rows=rows,
        distinct_alpha_count=distinct_alpha,
        min_alpha_separation=min_sep,
        distinct_unit_count=_distinct_stats(units)[0],
    )


# -- real scan ---------------------------------------------------------------------

def _real_row(args: tuple[int, int, int, int, str, int]) -> SurveyRow:
    """The row of discriminant D, radicand d and narrow class number h_plus."""
    D, d, h_plus, branch, pairing_value, unit_powers = args
    unit = fundamental_unit(d)
    h = _wide_class_number(h_plus, unit)
    if h != 1:
        return SurveyRow(D=D, d=d, h=h, case=Case.REAL, unit=unit, alphas=())
    pairing = Pairing(pairing_value)
    alphas = []
    for n in range(1, unit_powers + 1):
        reg_n = n * unit.regulator
        u = UnitInput.from_log(reg_n, case=Case.REAL)
        rep = alpha_real_case(u, j=branch, pairing=pairing)
        label = unit.as_string() if n == 1 else f"({unit.as_string()})^{n}"
        alphas.append(UnitAlpha(label, unit.norm**n, reg_n, rep))
    return SurveyRow(D=D, d=d, h=h, case=Case.REAL, unit=unit, alphas=tuple(alphas))


def scan_real(
    limit: int,
    *,
    branch: int = 0,
    pairing: Pairing = Pairing.CONJUGATE_BRANCH,
    unit_powers: int = 1,
    jobs: int = 1,
    by_radicand: bool = False,
) -> SurveySummary:
    """Scan fundamental D in [5, limit]; attach alpha to every h = 1 field.

    With by_radicand=True the range bounds the squarefree radicand d
    instead of the discriminant (so d <= limit, D possibly 4*limit).
    count_h1 is a raw count; it grows without any claimed bound.

    Discriminants and radicands come from the squarefree sieve, and the
    narrow class numbers of all of them from one run of the form sieve in
    this process, so the rows do not depend on the worker count. limit may
    be at most fields._MAX_REAL_D (10^8), a quarter of it with
    by_radicand=True; a larger one raises TermLimitExceeded at once.
    """
    limit = int(limit)
    _check_real_size(4 * limit if by_radicand else limit)
    if by_radicand:
        d = np.flatnonzero(_squarefree_mask(2, max(limit, 1))) + 2
        D = np.where(d % 4 == 1, d, 4 * d)
        order = np.argsort(D)
        D, d = D[order], d[order]
    else:
        # the sieve has proved every D fundamental: d is D or D/4
        D = _fundamental_discriminant_array(5, limit)
        d = np.where(D % 4 == 1, D, D // 4)
    if not len(D):
        return SurveySummary((5, limit), 0, (), 0, None, 0)
    pairing = Pairing(pairing)
    args = [
        (Di, di, hi, branch, pairing.value, int(unit_powers))
        for Di, di, hi in zip(D.tolist(), d.tolist(), _narrow_class_numbers(D).tolist())
    ]
    rows = _map_rows(_real_row, args, jobs)
    h1 = sum(1 for r in rows if r.h == 1)
    distinct_alpha, min_sep = _distinct_stats(
        rep.alpha for row in rows for rep in row.alpha_reports
    )
    return SurveySummary(
        range=(5, limit),
        count_h1=h1,
        rows=tuple(rows),
        distinct_alpha_count=distinct_alpha,
        min_alpha_separation=min_sep,
        distinct_unit_count=sum(1 for r in rows if r.h == 1 and r.unit is not None),
    )


def _map_rows(worker, args, jobs: int):
    if jobs and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(worker, args, chunksize=max(1, len(args) // (4 * jobs))))
    return [worker(a) for a in args]


# -- serialization -------------------------------------------------------------------

def _f(x: float | None) -> float | None:
    return None if x is None else float(x)


# A row without attached roots still gets one record; for a field with no
# fundamental unit (imaginary, h != 1) every unit column of it is empty.
_NO_UNIT = (UnitAlpha(None, None, None, None),)


def row_records(rows: Iterable[SurveyRow], log_branch: int = 0) -> list[dict]:
    """Flatten rows to one record per (field, unit, branch), fixed key order."""
    records = []
    for row in rows:
        alphas = row.alphas
        if not alphas:
            fu = row.unit
            alphas = (
                (UnitAlpha(fu.as_string(), fu.norm, fu.regulator, None),)
                if isinstance(fu, FundamentalUnit) else _NO_UNIT
            )
        for ua in alphas:
            rep = ua.report
            records.append(
                {
                    "D": row.D,
                    "d": row.d,
                    "h": row.h,
                    "unit": ua.unit_label,
                    "norm": ua.norm,
                    "regulator": _f(ua.regulator),
                    "alpha_re": None if rep is None else rep.alpha.real,
                    "alpha_im": None if rep is None else rep.alpha.imag,
                    "residual_defining": None if rep is None else _f(rep.residual_defining),
                    "residual_split_1": None if rep is None else _f(rep.residual_split_1),
                    "residual_split_2": None if rep is None else _f(rep.residual_split_2),
                    "residual_sum_equation": None if rep is None else _f(rep.residual_sum_equation),
                    "branch": None if rep is None else rep.branch,
                    "log_branch": log_branch,
                }
            )
    return records


_JSON_CHUNK_ROWS = 4096


def iter_summary_json(
    summary: SurveySummary, log_branch: int = 0, trailer: dict | None = None
) -> Iterator[str]:
    """The summary as one JSON object, in pieces that concatenate to it.

    The text equals json.dumps of the object with "rows" (the row records)
    after the summary keys and the keys of `trailer` after "rows". Records
    are built and encoded a fixed number of rows at a time, so a large scan
    is never held as one string or one list of records.
    """
    head = json.dumps({
        "range": list(summary.range),
        "count_h1": summary.count_h1,
        "distinct_alpha_count": summary.distinct_alpha_count,
        "min_alpha_separation": _f(summary.min_alpha_separation),
        "distinct_unit_count": summary.distinct_unit_count,
    })
    yield head[:-1] + ', "rows": ['
    rows = summary.rows
    sep = ""
    for i in range(0, len(rows), _JSON_CHUNK_ROWS):
        records = row_records(rows[i : i + _JSON_CHUNK_ROWS], log_branch)
        yield sep + json.dumps(records)[1:-1]
        sep = ", "
    yield "]" + (", " + json.dumps(trailer)[1:] if trailer else "}")


def summary_to_json(summary: SurveySummary, log_branch: int = 0) -> str:
    return "".join(iter_summary_json(summary, log_branch))


def records_to_csv(records: Iterable[dict], columns: Sequence[str] = CSV_COLUMNS) -> str:
    """A header line of `columns`, then one line per record; None is empty."""
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join("" if rec[c] is None else str(rec[c]) for c in columns))
    return "\n".join(lines) + "\n"


# -- correspondence table --------------------------------------------------------------

@dataclass(frozen=True)
class CorrespondenceTable:
    entries: tuple[dict, ...]
    n_alpha: int
    distinct_alpha_count: int
    min_alpha_separation: float | None


def correspondence_table(records: Iterable[dict]) -> CorrespondenceTable:
    """One entry (keys TABLE_COLUMNS) per record with an attached root.

    `records` are row records: the output of row_records, or the "rows" of
    a scan's JSON. log eps is the regulator for a real unit and
    i*(arg eps + 2*pi*log_branch) for a torsion unit. Supports the measured
    one-to-one story: every attached root appears with its unit, its log,
    and the pairwise-distinctness statistics of the roots. A record that
    lacks a key, or a torsion record whose unit label is not one of
    _TORSION_ARGS, raises KeyError; a non-finite alpha raises ValueError.
    """
    entries = []
    alphas = []
    for rec in records:
        if rec.get("alpha_re") is None:
            continue
        alpha = complex(rec["alpha_re"], rec["alpha_im"])
        if not cmath.isfinite(alpha):
            raise ValueError(f"non-finite alpha {alpha!r} at D={rec.get('D')!r}")
        alphas.append(alpha)
        if rec.get("regulator") is not None:
            log_re, log_im = rec["regulator"], 0.0
        else:
            theta = _TORSION_ARGS[rec["unit"]]
            log_re, log_im = 0.0, theta + 2 * math.pi * rec.get("log_branch", 0)
        entries.append(
            {
                "D": rec["D"],
                "unit": rec["unit"],
                "log_eps_re": log_re,
                "log_eps_im": log_im,
                "alpha_re": alpha.real,
                "alpha_im": alpha.imag,
                "residual_defining": rec["residual_defining"],
                "residual_split_1": rec["residual_split_1"],
                "residual_split_2": rec["residual_split_2"],
                "branch": rec["branch"],
            }
        )
    distinct, min_sep = _distinct_stats(alphas)
    return CorrespondenceTable(tuple(entries), len(alphas), distinct, min_sep)
