"""Discriminant scans: class-number-one tables with attached fixed-point roots.

A scan walks fundamental discriminants in a range, records (D, d, h) for
every field, and for class-number-one fields attaches the fixed-point roots
alpha of the unit layer: one per torsion unit for imaginary fields, one per
fundamental-unit power for real fields.

A scan keeps its fields as a columnar batch: int64 columns D, d and h for
every field, and a SurveyRow only for each attached field, one with a unit
or roots (the h = 1 fields of an imaginary scan, every field of a real
one). SurveySummary.rows builds the full tuple of rows on first access. The
writers (iter_summary_json, iter_summary_csv, iter_summary_plain) walk the
batch: a bare row goes through one text template per format, the text
row_records and the format give a row with no unit, and attached rows go
through row_records. Output is byte-identical regardless of the worker
count, so scan output can be diffed and pinned in tests.

read_rooted_records reads a scan's JSON back as a stream, for the
correspondence table: it passes over runs of bare records with one match of
a pattern built from the same JSON template, and decodes only the records
that may carry a root.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .fields import (
    FundamentalUnit,
    RootsOfUnity,
    _check_size,
    _fundamental_discriminant_array,
    _narrow_class_numbers,
    _squarefree_mask,
    _unit_of_squarefree,
    _wide_class_number,
    class_numbers_imaginary_batch,
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
    "iter_summary_csv",
    "iter_summary_plain",
    "read_rooted_records",
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


@dataclass(frozen=True, eq=False)
class _Batch:
    """The fields of a scan, in scan order: int64 columns D, d and h for
    every field, and the SurveyRow of each attached field (one with a unit
    or roots) with its ascending index into the columns."""

    case: Case
    D: np.ndarray
    d: np.ndarray
    h: np.ndarray
    index: np.ndarray
    attached: tuple[SurveyRow, ...]

    # arrays compare element by element, so a generated __eq__ would raise
    def __eq__(self, other):
        if not isinstance(other, _Batch):
            return NotImplemented
        return self.case is other.case and self.attached == other.attached and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in ("D", "d", "h", "index")
        )


@dataclass(frozen=True)
class SurveySummary:
    range: tuple[int, int]
    count_h1: int
    distinct_alpha_count: int
    min_alpha_separation: float | None
    distinct_unit_count: int
    batch: _Batch

    @cached_property
    def rows(self) -> tuple[SurveyRow, ...]:
        """Every row of the scan, in scan order; built on first access."""
        b = self.batch
        if len(b.attached) == len(b.D):
            return b.attached
        attached = dict(zip(b.index.tolist(), b.attached))
        return tuple(
            attached.get(i) or SurveyRow(D=Di, d=di, h=hi, case=b.case, unit=None, alphas=())
            for i, (Di, di, hi) in enumerate(zip(b.D.tolist(), b.d.tolist(), b.h.tolist()))
        )


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
    alpha via the complex-case root formula. limit may be at most
    fields._MAX_IMAG_D (10^7); a larger one raises TermLimitExceeded at once.
    """
    limit = int(limit)
    _check_size(-limit)
    # The sieve has already proved every D fundamental, so the radicand
    # (D for D = 1 mod 4, D/4 otherwise) and h are read off whole arrays.
    D = _fundamental_discriminant_array(-limit, -3)[::-1]  # -3 first, |D| ascending
    d = np.where(D % 4 == 0, D // 4, D)
    h = class_numbers_imaginary_batch(max(limit, 0))[-D]
    at = np.flatnonzero(h == 1)
    h1_rows = tuple(_map_rows(
        _imaginary_row,
        [(Di, di, branch, log_branch) for Di, di in zip(D[at].tolist(), d[at].tolist())],
        jobs,
    ))
    units = [eps for r in h1_rows for eps in r.unit.elements]
    distinct_alpha, min_sep = _distinct_stats(
        rep.alpha for row in h1_rows for rep in row.alpha_reports
    )
    return SurveySummary(
        range=(-limit, -3),
        count_h1=len(h1_rows),
        distinct_alpha_count=distinct_alpha,
        min_alpha_separation=min_sep,
        distinct_unit_count=_distinct_stats(units)[0],
        batch=_Batch(Case.COMPLEX, D, d, h, at, h1_rows),
    )


# -- real scan ---------------------------------------------------------------------

def _real_row(args: tuple[int, int, int, int, str, int]) -> SurveyRow:
    """The row of discriminant D, radicand d and narrow class number h_plus."""
    D, d, h_plus, branch, pairing_value, unit_powers = args
    unit = _unit_of_squarefree(d)  # the sieve has proved d squarefree
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
    _check_size(4 * limit if by_radicand else limit)
    if by_radicand:
        d = np.flatnonzero(_squarefree_mask(2, max(limit, 1))) + 2
        D = np.where(d % 4 == 1, d, 4 * d)
        order = np.argsort(D)
        D, d = D[order], d[order]
    else:
        # the sieve has proved every D fundamental: d is D or D/4
        D = _fundamental_discriminant_array(5, limit)
        d = np.where(D % 4 == 1, D, D // 4)
    pairing = Pairing(pairing)
    args = [
        (Di, di, hi, branch, pairing.value, int(unit_powers))
        for Di, di, hi in zip(D.tolist(), d.tolist(), _narrow_class_numbers(D).tolist())
    ]
    rows = tuple(_map_rows(_real_row, args, jobs))
    h = np.array([r.h for r in rows], dtype=np.int64)
    distinct_alpha, min_sep = _distinct_stats(
        rep.alpha for row in rows for rep in row.alpha_reports
    )
    return SurveySummary(
        range=(5, limit),
        count_h1=sum(1 for r in rows if r.h == 1),
        distinct_alpha_count=distinct_alpha,
        min_alpha_separation=min_sep,
        distinct_unit_count=sum(1 for r in rows if r.h == 1 and r.unit is not None),
        batch=_Batch(Case.REAL, D, d, h, np.arange(len(rows)), rows),
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


def _csv_line(rec: dict, columns: Sequence[str] = CSV_COLUMNS) -> str:
    return ",".join("" if rec[c] is None else str(rec[c]) for c in columns)


def _plain_line(rec: dict) -> str:
    return "  ".join(f"{k}={rec[k]}" for k in CSV_COLUMNS if rec[k] is not None)


class _Format(NamedTuple):
    sep: str  # between two records
    render: Callable[[list[dict]], str]  # records, joined by sep
    hole: str  # how _HOLE reads in the text of render


# A string no record holds, standing in for the integers of a bare row while
# its template is made.
_HOLE = "\x00"

_JSON = _Format(", ", lambda recs: json.dumps(recs)[1:-1], json.dumps(_HOLE))
_CSV = _Format("\n", lambda recs: "\n".join(map(_csv_line, recs)), _HOLE)
_PLAIN = _Format("\n", lambda recs: "\n".join(map(_plain_line, recs)), _HOLE)


def _bare_text(fmt: _Format, log_branch) -> str:
    """fmt's text of a row with no unit and no roots, fmt.hole for D, d, h."""
    row = SurveyRow(D=_HOLE, d=_HOLE, h=_HOLE, case=Case.COMPLEX, unit=None, alphas=())
    return fmt.render(row_records([row], log_branch))


_JSON_CHUNK_ROWS = 4096


def _row_text(summary: SurveySummary, log_branch: int, fmt: _Format) -> Iterator[str]:
    """fmt's text of the records of every row in scan order, in pieces of at
    most _JSON_CHUNK_ROWS rows that join with fmt.sep.

    A run of bare rows is one template filled row by row; a run of attached
    rows goes through row_records.
    """
    b = summary.batch
    n = len(b.D)
    attached = np.zeros(n, dtype=bool)
    attached[b.index] = True
    cuts = [0, *(np.flatnonzero(np.diff(attached)) + 1).tolist(), n]
    bare = _bare_text(fmt, log_branch).replace("%", "%%").replace(fmt.hole, "%d")
    taken = 0
    for lo, hi in zip(cuts, cuts[1:]):
        for i in range(lo, hi, _JSON_CHUNK_ROWS):
            j = min(i + _JSON_CHUNK_ROWS, hi)
            if attached[i]:
                yield fmt.render(row_records(b.attached[taken : taken + j - i], log_branch))
                taken += j - i
                continue
            yield fmt.sep.join(
                map(bare.__mod__, zip(b.D[i:j].tolist(), b.d[i:j].tolist(), b.h[i:j].tolist()))
            )


def iter_summary_json(
    summary: SurveySummary, log_branch: int = 0, trailer: dict | None = None
) -> Iterator[str]:
    """The summary as one JSON object, in pieces that concatenate to it.

    The text equals json.dumps of the object with "rows" (the row records)
    after the summary keys and the keys of `trailer` after "rows". Records
    are written a bounded number of rows at a time, so a large scan is never
    held as one string or one list of records.
    """
    head = json.dumps({
        "range": list(summary.range),
        "count_h1": summary.count_h1,
        "distinct_alpha_count": summary.distinct_alpha_count,
        "min_alpha_separation": _f(summary.min_alpha_separation),
        "distinct_unit_count": summary.distinct_unit_count,
    })
    yield head[:-1] + ', "rows": ['
    sep = ""
    for piece in _row_text(summary, log_branch, _JSON):
        yield sep + piece
        sep = _JSON.sep
    yield "]" + (", " + json.dumps(trailer)[1:] if trailer else "}")


def summary_to_json(summary: SurveySummary, log_branch: int = 0) -> str:
    return "".join(iter_summary_json(summary, log_branch))


def _iter_lines(first: str, summary: SurveySummary, log_branch: int, fmt: _Format) -> Iterator[str]:
    yield first
    for piece in _row_text(summary, log_branch, fmt):
        yield "\n" + piece
    yield "\n"


def iter_summary_csv(summary: SurveySummary, log_branch: int = 0) -> Iterator[str]:
    """The row records as CSV, in pieces that concatenate to
    records_to_csv(row_records(summary.rows, log_branch))."""
    return _iter_lines(",".join(CSV_COLUMNS), summary, log_branch, _CSV)


def iter_summary_plain(summary: SurveySummary, log_branch: int = 0) -> Iterator[str]:
    """A line of summary counts, then one line per row record with its
    non-empty columns as key=value, in pieces."""
    first = (f"range {summary.range[0]}..{summary.range[1]}  fields_h1={summary.count_h1}  "
             f"distinct_alpha={summary.distinct_alpha_count}  "
             f"distinct_units={summary.distinct_unit_count}")
    return _iter_lines(first, summary, log_branch, _PLAIN)


def records_to_csv(records: Iterable[dict], columns: Sequence[str] = CSV_COLUMNS) -> str:
    """A header line of `columns`, then one line per record; None is empty."""
    lines = [",".join(columns)]
    lines.extend(_csv_line(rec, columns) for rec in records)
    return "\n".join(lines) + "\n"


# -- reading scan JSON back ------------------------------------------------------------

# A run of bare records in a scan's JSON: the JSON template of a bare row,
# with an integer of JSON's grammar for each of D, d, h and log_branch,
# repeated with its separators. Text it matches is records whose alpha_re is
# null, which the correspondence table skips. The repeat is bounded, so one
# match keeps little backtracking state however long the run.
_JSON_WS = "[ \t\n\r]*"
_BARE_RUN = re.compile(
    "(?:{ws}{}{ws},){{1,1024}}".format(
        r"-?(?:0|[1-9]\d*)".join(map(re.escape, _bare_text(_JSON, _HOLE).split(_JSON.hole))),
        ws=_JSON_WS,
    )
)
_SPACE = re.compile(_JSON_WS)
_DECODER = json.JSONDecoder()

# Characters read from the input at a time.
_READ_CHARS = 1 << 16


class _JsonStream:
    """JSON text read in chunks: buf[pos:] is what is not consumed yet, and
    `seen` counts the characters dropped from the front of buf."""

    def __init__(self, fh: TextIO):
        self.fh = fh
        self.buf, self.pos, self.seen, self.eof = "", 0, 0, False

    def read(self, n: int = 0) -> None:
        """Append at least n (and _READ_CHARS) more characters, or set eof."""
        chunk = self.fh.read(max(n, _READ_CHARS))
        if not chunk:
            self.eof = True
            return
        self.seen += self.pos
        self.buf, self.pos = self.buf[self.pos :] + chunk, 0

    def fail(self, message: str):
        raise ValueError(f"{message} at char {self.seen + self.pos}")

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end of input."""
        while True:
            self.pos = _SPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos : self.pos + 1]
            self.read()

    def expect(self, chars: str) -> str:
        c = self.peek()
        if not c or c not in chars:
            self.fail(f"expecting one of {chars!r}")
        self.pos += 1
        return c

    def value(self):
        """The next JSON value, decoded."""
        self.peek()
        while True:
            try:
                v, end = _DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                if self.eof:
                    raise ValueError(f"{exc.msg} at char {self.seen + exc.pos}") from None
            else:
                # a number cut by the end of the buffer ("0." of "0.25") may
                # decode as a shorter one: accept only a value followed by
                # what may follow a value
                if end < len(self.buf) and self.buf[end] in " \t\n\r,:]}" or self.eof:
                    self.pos = end
                    return v
            # double the text held, so a long value costs O(its length) in all
            self.read(len(self.buf) - self.pos)

    def elements(self) -> list:
        """The elements of the array whose "[" was just consumed, except bare
        records (objects with a null or missing alpha_re)."""
        kept = []
        if self.peek() == "]":
            self.pos += 1
            return kept
        while True:
            if len(self.buf) - self.pos < _READ_CHARS // 2 and not self.eof:
                self.read()
            run = _BARE_RUN.match(self.buf, self.pos)
            if run:
                self.pos = run.end()
                continue
            v = self.value()
            if not (isinstance(v, dict) and v.get("alpha_re") is None):
                kept.append(v)
            if self.expect(",]") == "]":
                return kept


def read_rooted_records(fh: TextIO) -> list:
    """The row records of a scan's JSON read from fh that may carry a root.

    The JSON is a scan object (its "rows" are the records; if "rows" occurs
    twice the last one counts) or a bare array of records. It is read in
    chunks and never held whole. A record whose alpha_re is null or missing
    is dropped; every other element of the array is kept as json.loads
    would decode it, so correspondence_table gives the same table on the
    result as on all the records. Text json.loads rejects (truncated input,
    trailing data), a top level that is not an object or array and an
    object without a "rows" array raise ValueError.
    """
    s = _JsonStream(fh)
    c = s.peek()
    if c == "[":
        s.pos += 1
        rows = s.elements()
    elif c == "{":
        s.pos += 1
        rows = None
        if s.peek() == "}":
            s.pos += 1
        else:
            while True:
                if s.peek() != '"':
                    s.fail("expecting a property name in double quotes")
                key = s.value()
                s.expect(":")
                if key == "rows" and s.peek() == "[":
                    s.pos += 1
                    rows = s.elements()
                else:
                    v = s.value()
                    if key == "rows":
                        rows = v
                if s.expect(",}") == "}":
                    break
        if not isinstance(rows, list):
            raise ValueError('the JSON object has no "rows" array')
    else:
        s.value()
        s.fail("the top level is neither an object nor an array")
    if s.peek():
        s.fail("extra data")
    return rows


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
