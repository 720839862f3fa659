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
from typing import Iterable, Iterator

from .fields import (
    FundamentalUnit,
    RootsOfUnity,
    _fundamental_discriminant_array,
    _wide_class_number,
    class_numbers_imaginary_batch,
    fundamental_unit,
    is_squarefree,
    radicand_of_discriminant,
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

_DISTINCT_TOL = 1e-9


@dataclass(frozen=True)
class UnitAlpha:
    """One attached root: the unit it came from and the full report."""

    unit_label: str
    epsilon: complex | None
    log_eps: complex
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


def _torsion_label(z: complex) -> str:
    table = {
        (1.0, 0.0): "1",
        (-1.0, 0.0): "-1",
        (0.0, 1.0): "i",
        (0.0, -1.0): "-i",
    }
    key = (round(z.real, 12), round(z.imag, 12))
    if key in table:
        return table[key]
    re_sign = "1" if z.real > 0 else "-1"
    im_sign = "+" if z.imag > 0 else "-"
    return f"({re_sign}{im_sign}i*sqrt(3))/2"


def _representatives(values: list[complex]) -> list[complex]:
    reps: list[complex] = []
    for v in values:
        if all(abs(v - r) > _DISTINCT_TOL for r in reps):
            reps.append(v)
    return reps


def _distinct_count(values: list[complex]) -> int:
    return len(_representatives(values))


def _alpha_stats(rows: Iterable[SurveyRow]) -> tuple[int, float | None]:
    # The same unit recurs across fields and contributes the same root, so
    # separation is measured between distinct roots, not raw attachments.
    alphas = [rep.alpha for row in rows for rep in row.alpha_reports]
    reps = _representatives(alphas)
    if len(reps) < 2:
        return len(reps), None
    min_sep = min(abs(a - b) for i, a in enumerate(reps) for b in reps[i + 1 :])
    return len(reps), min_sep


# -- imaginary scan ---------------------------------------------------------------

def _imaginary_row(args: tuple[int, int, int, int]) -> SurveyRow:
    """The h = 1 row of discriminant D, radicand d, with its torsion roots."""
    D, d, branch, log_branch = args
    mu = roots_of_unity(D)
    alphas = []
    for eps in mu.elements:
        label = _torsion_label(eps)
        if eps == 1 and log_branch == 0:
            # log(1) = 0 on the principal branch: no root to attach
            alphas.append(UnitAlpha(label, eps, 0j, None, None, None))
            continue
        u = UnitInput.complex_unit(eps, log_branch)
        rep = alpha_complex_case(u, j=branch, beta=0.0)
        log_eps = cmath.log(eps) + 2j * math.pi * log_branch
        alphas.append(UnitAlpha(label, eps, log_eps, None, None, rep))
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
    distinct_alpha, min_sep = _alpha_stats(h1_rows)
    return SurveySummary(
        range=(-limit, -3),
        count_h1=len(h1_rows),
        rows=rows,
        distinct_alpha_count=distinct_alpha,
        min_alpha_separation=min_sep,
        distinct_unit_count=_distinct_count(units),
    )


# -- real scan ---------------------------------------------------------------------

def _real_row(args: tuple[int, int, str, int]) -> SurveyRow:
    D, branch, pairing_value, unit_powers = args
    d = radicand_of_discriminant(D)
    unit = fundamental_unit(d)
    h = _wide_class_number(D, unit)
    if h != 1:
        return SurveyRow(D=D, d=d, h=h, case=Case.REAL, unit=unit, alphas=())
    pairing = Pairing(pairing_value)
    alphas = []
    for n in range(1, unit_powers + 1):
        reg_n = n * unit.regulator
        u = UnitInput.from_log(reg_n, case=Case.REAL)
        rep = alpha_real_case(u, j=branch, pairing=pairing)
        label = unit.as_string() if n == 1 else f"({unit.as_string()})^{n}"
        alphas.append(
            UnitAlpha(label, u.epsilon, complex(reg_n), unit.norm**n, reg_n, rep)
        )
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
    """
    limit = int(limit)
    if by_radicand:
        ds = sorted(
            d if d % 4 == 1 else 4 * d
            for d in range(2, limit + 1)
            if is_squarefree(d)
        )
    else:
        ds = _fundamental_discriminant_array(5, limit).tolist()
    if not ds:
        return SurveySummary((5, limit), 0, (), 0, None, 0)
    pairing = Pairing(pairing)
    args = [(D, branch, pairing.value, int(unit_powers)) for D in ds]
    rows = _map_rows(_real_row, args, jobs)
    h1 = sum(1 for r in rows if r.h == 1)
    distinct_alpha, min_sep = _alpha_stats(rows)
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


def row_records(rows: Iterable[SurveyRow], log_branch: int = 0) -> list[dict]:
    """Flatten rows to one record per (field, unit, branch), fixed key order."""
    records = []
    for row in rows:
        base_norm = row.unit.norm if isinstance(row.unit, FundamentalUnit) else None
        base_reg = row.unit.regulator if isinstance(row.unit, FundamentalUnit) else None
        base_label = row.unit.as_string() if isinstance(row.unit, FundamentalUnit) else None
        if not row.alphas:
            records.append(
                {
                    "D": row.D,
                    "d": row.d,
                    "h": row.h,
                    "unit": base_label,
                    "norm": base_norm,
                    "regulator": _f(base_reg),
                    "alpha_re": None,
                    "alpha_im": None,
                    "residual_defining": None,
                    "residual_split_1": None,
                    "residual_split_2": None,
                    "residual_sum_equation": None,
                    "branch": None,
                    "log_branch": log_branch,
                }
            )
            continue
        for ua in row.alphas:
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


def records_to_csv(records: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        cells = []
        for col in CSV_COLUMNS:
            v = rec[col]
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- correspondence table --------------------------------------------------------------

@dataclass(frozen=True)
class CorrespondenceTable:
    entries: tuple[dict, ...]
    n_alpha: int
    distinct_alpha_count: int
    min_alpha_separation: float | None


def correspondence_table(rows: Iterable[SurveyRow]) -> CorrespondenceTable:
    """One line per (field, unit, branch) with residuals and separation stats.

    Supports the measured one-to-one story: every attached root appears with
    its unit, its log, and the pairwise-distinctness statistics of the roots.
    """
    entries = []
    alphas = []
    for row in rows:
        for ua in row.alphas:
            if ua.report is None:
                continue
            rep = ua.report
            alphas.append(rep.alpha)
            entries.append(
                {
                    "D": row.D,
                    "unit": ua.unit_label,
                    "log_eps_re": ua.log_eps.real,
                    "log_eps_im": ua.log_eps.imag,
                    "alpha_re": rep.alpha.real,
                    "alpha_im": rep.alpha.imag,
                    "residual_defining": _f(rep.residual_defining),
                    "residual_split_1": _f(rep.residual_split_1),
                    "residual_split_2": _f(rep.residual_split_2),
                    "branch": rep.branch,
                }
            )
    reps = _representatives(alphas)
    if len(reps) < 2:
        return CorrespondenceTable(tuple(entries), len(alphas), len(reps), None)
    min_sep = min(abs(a - b) for i, a in enumerate(reps) for b in reps[i + 1 :])
    return CorrespondenceTable(tuple(entries), len(alphas), len(reps), min_sep)
