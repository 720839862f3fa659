"""Discriminant scans: class-number-one tables with attached fixed-point roots.

A scan walks fundamental discriminants in a range, records (D, d, h) for
every field, and for class-number-one fields attaches the fixed-point roots
alpha of the unit layer: one per torsion unit for imaginary fields, one per
fundamental-unit power for real fields.

A scan keeps its fields as a columnar batch: int64 columns D, d and h for
every field, for a real scan the unit columns (x, y, half-integrality, norm
and regulator) of every field, and the roots of the attached (h = 1) fields
in one float64 array, six values a root: alpha, its defining residual and
the three residuals of the real case. There is no row object and no record
per root: the writers (iter_summary_json, iter_summary_csv,
iter_summary_plain) fill the templates of their format a column at a time,
for a chunk of rows at once; the bare rows take their values from the
columns, and the root rows from the root array and the columns of their
field (D, d, the unit label and its powers, the norm and n times the
regulator).
Output is a pure function of the arguments, so scan output can be diffed
and pinned in tests. numpy is imported where a scan first needs it.

Every record carries the scan's log_branch: a real unit's log is real, so
a real scan's only labels its records.

read_rooted_records reads a scan's JSON back as a stream, for the
correspondence table: it passes over runs of bare records with one match of
a pattern built from the writers' split JSON template, and decodes only the
records that may carry a root. Records read back are dicts keyed by CSV_COLUMNS.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice
from operator import not_, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .csvtext import csv_line
from .csvtext import records_to_csv as _records_to_csv
from .errors import DomainError, TermLimitExceeded
from .fields import (
    _check_size,
    _fundamental_discriminant_array,
    _imaginary_class_numbers,
    _radicand_array,
    _real_class_numbers,
    _TORSION_UNITS,
    _unit_label,
    _UnitColumns,
    roots_of_unity,
)
from .solver import Pairing, UnitInput, _alpha_real, alpha_complex_case
from .wfunc import _integer

__all__ = [
    "SurveySummary",
    "scan_imaginary",
    "scan_real",
    "correspondence_table",
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

# Floats a root holds in _Batch.roots: alpha_re, alpha_im, residual_defining,
# residual_split_1, residual_split_2 and residual_sum_equation.
_ROOT_FLOATS = 6


@dataclass(frozen=True, eq=False)
class _Batch:
    """The fields of a scan, in scan order: the columns, the ascending index
    of the attached fields into them, and their roots, _ROOT_FLOATS floats a
    root in `roots`, field after field. A real scan gives each attached
    field `powers` roots, one per power n of its unit; the writers take the
    label, norm and log n*R of each from the unit columns. An imaginary
    scan gives the k-th attached field one root per torsion unit that has
    one (_has_root) of its group, of order torsion[k], with NaN for the
    three residuals of the real case. The roots were computed at `branch`,
    and an imaginary scan's at `log_branch`; a real unit's log is real, so a
    real scan's `log_branch` is a label only. Every record carries it."""

    D: np.ndarray
    d: np.ndarray
    h: np.ndarray
    index: np.ndarray
    roots: array
    branch: int
    log_branch: int
    units: _UnitColumns | None = None
    powers: int = 0
    torsion: bytes = b""

    def __eq__(self, other):  # arrays compare element by element: a generated __eq__ would raise
        import numpy as np

        if not isinstance(other, _Batch):
            return NotImplemented
        fields = ("branch", "log_branch", "units", "powers", "torsion")
        return (
            [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]
            and self.roots.tobytes() == other.roots.tobytes()  # NaN != NaN: compare the bits
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in ("D", "d", "h", "index"))
        )


@dataclass(frozen=True)
class SurveySummary:
    range: tuple[int, int]
    count_h1: int
    distinct_alpha_count: int
    min_alpha_separation: float | None
    distinct_unit_count: int
    batch: _Batch


# arg(eps) in (-pi, pi] of each torsion unit, by its label in the row records
_TORSION_ARGS = {label: arg for units in _TORSION_UNITS.values() for label, _, arg in units}


def _distinct_stats(real: Sequence[float], imag: Sequence[float]) -> tuple[int, float | None]:
    """How many of the values real[p] + i*imag[p] are distinct (farther apart
    than _DISTINCT_TOL), and the least distance between two distinct ones
    (None if fewer than two).

    The same unit recurs across fields and contributes the same root, so
    separation is measured between distinct roots, not raw attachments.
    Values are taken in input order: each one is a new representative
    unless an earlier representative lies within _DISTINCT_TOL of it. The
    values must be finite, and so must the least distance: when every two
    distinct values lie farther apart than the largest float, ValueError.
    The columns are read where they lie (strided views of a scan's root
    array, or lists), through one order of their indices by real part: no
    value is kept as a Python object.
    """
    order = _by_real(real)
    close: set[int] = set()
    best = _sweep(order, real, imag, close)
    if best <= _DISTINCT_TOL:
        # Only a value within the tolerance of another can absorb one or be
        # absorbed, so every other value is a representative, and the grid
        # holds the close ones alone. A cell side of twice the tolerance
        # keeps two values within it in neighbouring cells whatever the
        # rounding of the cell index, so the 3 x 3 cells around a value hold
        # every representative that can absorb it.
        side = 2 * _DISTINCT_TOL
        cells: dict[tuple[float, float], list[tuple[float, float]]] = {}
        rep = bytearray(b"\1") * len(real)
        for p in sorted(close):  # in input order
            x, y = real[p], imag[p]
            cx, cy = x // side, y // side
            if all(
                _gap(x - rx, y - ry) > _DISTINCT_TOL
                for dx in (-1.0, 0.0, 1.0)
                for dy in (-1.0, 0.0, 1.0)
                for rx, ry in cells.get((cx + dx, cy + dy), ())
            ):
                cells.setdefault((cx, cy), []).append((x, y))
            else:
                rep[p] = 0
        order = array("q", compress(order, map(rep.__getitem__, order)))
        best = _sweep(order, real, imag)
    if len(order) < 2:
        return len(order), None
    if best == math.inf:
        raise ValueError("the least distance between the values exceeds the float range")
    return len(order), best


# A sort holds an index and a key, about 80 bytes, for each value it sorts:
# above this many values _by_real sorts two halves one after the other.
_SORT_AT_ONCE = 1 << 16


def _by_real(real: Sequence[float]) -> array:
    """The indices of `real`, ascending in value, 8 bytes an index. Above
    _SORT_AT_ONCE values they are sorted in two halves, split at the median
    of every 64th value."""
    key, index = real.__getitem__, range(len(real))
    if len(real) <= _SORT_AT_ONCE:
        return array("q", sorted(index, key=key))
    sample = sorted(real[::64])
    below = bytes(map(sample[len(sample) // 2].__gt__, real))
    order = array("q", sorted(compress(index, below), key=key))
    order.extend(sorted(compress(index, map(not_, below)), key=key))
    return order


def _sweep(order: array, real: Sequence[float], imag: Sequence[float], close: set[int] | None = None
           ) -> float:
    """The least _gap between two of the values at the indices `order`
    (inf for fewer than two), which ascend in real part, by a sweep: no
    later value can come closer than its real gap. Given `close`, it also
    adds to it every index within _DISTINCT_TOL of another value.

    The neighbours of least real gap give a first least gap, and the sweep
    starts only at the i whose next real gap lies within it (or within the
    tolerance, given close): the real gaps are taken at C speed."""
    n = len(order)
    if n < 2:
        return math.inf
    dx = array("d", map(sub, map(real.__getitem__, islice(order, 1, None)), map(real.__getitem__, order)))
    i = dx.index(min(dx))
    best = _gap(dx[i], imag[order[i + 1]] - imag[order[i]])
    tol = -math.inf if close is None else _DISTINCT_TOL
    for i in compress(range(n - 1), map(max(best, tol).__ge__, dx)):
        p = order[i]
        x, y = real[p], imag[p]
        for j in range(i + 1, n):
            q = order[j]
            d = real[q] - x
            if d >= best and d > tol:
                break
            gap = _gap(d, imag[q] - y)
            if gap < best:
                best = gap
            if gap <= tol:
                close.update((p, q))
    return best


def _gap(dx: float, dy: float) -> float:
    """|dx + i*dy|, or inf where it exceeds the largest float. abs(complex),
    not math.hypot: on CPython 3.11 the two differ in the last bit."""
    try:
        return abs(complex(dx, dy))
    except OverflowError:  # finite parts whose modulus overflows
        return math.inf


def _alpha_columns(roots: array) -> tuple[memoryview, memoryview]:
    """alpha_re and alpha_im of every root, as strided views of the root array."""
    view = memoryview(roots)
    return view[0::_ROOT_FLOATS], view[1::_ROOT_FLOATS]


# -- imaginary scan ---------------------------------------------------------------

def _has_root(eps: complex, log_branch: int) -> bool:
    """Whether torsion unit eps has a root at log_branch: log(1) = 0 on the
    principal branch leaves none to attach."""
    return eps != 1 or log_branch != 0


def scan_imaginary(limit: int, *, branch: int = 0, log_branch: int = 0) -> SurveySummary:
    """Scan fundamental D in [-limit, -3]; attach alpha to every h = 1 field.

    Discriminants and radicands come from the fundamental-discriminant
    sieve, class numbers from the form-count sieve
    (fields._imaginary_class_numbers); torsion units with a usable log
    (nonzero under the configured log branch) each contribute an alpha via
    the complex-case root formula, kept in the root array. limit may be at
    most fields._MAX_IMAG_D (10^7); a larger one raises TermLimitExceeded at
    once, a negative one DomainError (0 to 2 give the empty scan), as does a
    limit, branch or log_branch that is not integral.
    """
    import numpy as np

    limit = _integer(limit, "limit")
    branch, log_branch = _integer(branch, "branch"), _integer(log_branch, "log_branch")
    if limit < 0:
        raise DomainError(f"limit {limit} is negative")
    _check_size(-limit)
    # The sieve has proved every D fundamental: d and h are read off whole
    # arrays, each worked out in place (no int64 temporary of their length).
    D = _fundamental_discriminant_array(-limit, -3)[::-1]  # -3 first, |D| ascending
    h = _imaginary_class_numbers(D)
    d = _radicand_array(D)
    at = np.flatnonzero(h == 1)
    torsion = bytes(roots_of_unity(Di).n for Di in D[at].tolist())
    roots = array("d")
    for n in torsion:
        for _, eps, _ in _TORSION_UNITS[n]:
            if _has_root(eps, log_branch):
                rep = alpha_complex_case(UnitInput.complex_unit(eps, log_branch), j=branch)
                alpha = rep.alpha
                roots.extend((alpha.real, alpha.imag, rep.residual_defining, math.nan, math.nan, math.nan))
    distinct_alpha, min_sep = _distinct_stats(*_alpha_columns(roots))
    return SurveySummary(
        range=(-limit, -3),
        count_h1=len(at),
        distinct_alpha_count=distinct_alpha,
        min_alpha_separation=min_sep,
        # each torsion unit has its own label
        distinct_unit_count=len({label for n in set(torsion) for label, _, _ in _TORSION_UNITS[n]}),
        batch=_Batch(D, d, h, at, roots, branch, log_branch, torsion=torsion),
    )


# -- real scan ---------------------------------------------------------------------

# Largest limit of a real scan, set by time: `lgw scan --real --limit 2000000
# --format csv` took 19-21 s at a 280 MB peak RSS on a 2-vCPU VM, and the
# work grows as limit^1.5.
_MAX_REAL_SCAN = 2 * 10**6

# Most roots a real scan may attach, counted before any work as unit_powers
# times the number of fields, set by time, as _MAX_REAL_SCAN is: `lgw scan
# --real --limit 20 --powers 400000 --format csv` (5 fields, all of h = 1, so
# every counted root is made) took 30 s at a 283 MB peak RSS on a 2-vCPU VM,
# and `--limit 10000 --powers 300` (384,600 roots) 6.9 s at 67 MB. A root
# costs about 15 us; it keeps 48 bytes, and its distinctness check holds
# about 46 more while it runs.
_MAX_REAL_ROOTS = 2 * 10**6


def scan_real(
    limit: int,
    *,
    branch: int = 0,
    pairing: Pairing = Pairing.CONJUGATE_BRANCH,
    unit_powers: int = 1,
    by_radicand: bool = False,
    log_branch: int = 0,
) -> SurveySummary:
    """Scan fundamental D in [5, limit]; attach alpha to every h = 1 field.

    With by_radicand=True the range bounds the squarefree radicand d
    instead of the discriminant (so d <= limit, D possibly 4*limit).
    count_h1 is a raw count; it grows without any claimed bound. A real
    unit's log is real, so log_branch only labels the records.

    The scan is columnar, like the imaginary one: D and d come from the
    fundamental-discriminant sieve, h and the unit columns from
    fields._real_class_numbers, as for class_number, and the roots of each
    h = 1 field straight from its regulator (solver._alpha_real), into the
    root array. limit may be at most _MAX_REAL_SCAN (2*10^6), a quarter of it
    with by_radicand=True; a larger one raises TermLimitExceeded at once.
    So does unit_powers times the number of fields above _MAX_REAL_ROOTS
    (2*10^6), right after the sieve. A negative limit or unit_powers, or a
    limit, unit_powers, branch or log_branch that is not integral, raises
    DomainError.
    """
    import numpy as np

    limit, unit_powers = _integer(limit, "limit"), _integer(unit_powers, "unit_powers")
    branch, log_branch = _integer(branch, "branch"), _integer(log_branch, "log_branch")
    pairing = Pairing(pairing)
    if min(limit, unit_powers) < 0:
        raise DomainError(f"limit {limit} and unit_powers {unit_powers} may not be negative")
    top = _MAX_REAL_SCAN // 4 if by_radicand else _MAX_REAL_SCAN
    if limit > top:
        raise TermLimitExceeded(
            f"limit {limit} exceeds {top}, the largest real scan supported"
            + (" by radicand" if by_radicand else "")
        )
    D = _fundamental_discriminant_array(5, 4 * limit if by_radicand else limit)
    if by_radicand:  # radicand d <= limit: D = d <= limit for d = 1 mod 4, else D = 4d
        D = D[_radicand_array(D) <= limit]
    if unit_powers * len(D) > _MAX_REAL_ROOTS:
        raise TermLimitExceeded(
            f"{unit_powers} unit powers of {len(D)} fields make {unit_powers * len(D)} roots, "
            f"above {_MAX_REAL_ROOTS}, the most a real scan supports"
        )
    d = _radicand_array(D)
    _, h, units = _real_class_numbers(D)
    at = np.flatnonzero(h == 1)
    same_branch = pairing is Pairing.SAME_BRANCH
    attached = at if unit_powers else at[:0]  # no unit powers attach no root
    roots = array("d")
    for R in map(units.regulator.__getitem__, attached.tolist()):
        for n in range(1, unit_powers + 1):
            alpha, r_def, r1, r2, r_sum = _alpha_real(n * R, branch, same_branch)
            roots.extend((alpha.real, alpha.imag, r_def, r1, r2, r_sum))
    distinct_alpha, min_sep = _distinct_stats(*_alpha_columns(roots))
    return SurveySummary(
        range=(5, limit),
        count_h1=len(at),
        distinct_alpha_count=distinct_alpha,
        min_alpha_separation=min_sep,
        distinct_unit_count=len(at),
        batch=_Batch(D, d, h, attached, roots, branch, log_branch, units, unit_powers),
    )


# -- serialization -------------------------------------------------------------------

def _plain_line(rec: dict) -> str:
    return "  ".join(f"{k}={rec[k]}" for k in CSV_COLUMNS if rec[k] is not None)


class _Format(NamedTuple):
    sep: str  # between two records
    lead: str  # before the first record, in place of sep
    render: Callable[[list[dict]], str]  # records, joined by sep


# Values no record holds, standing in for the integers (_HOLE), the floats
# (_FLOAT_HOLE) and the unit label (_LABEL_HOLE) of a record while its
# template is made. Each reads the same in all three formats: floats written
# with an exponent, which no literal of a template holds (every number in it
# is an int), and an ASCII mark that JSON quotes as it quotes any label.
_HOLE, _FLOAT_HOLE, _LABEL_HOLE = 1e300, 2e300, "#"
_HOLE_TEXT = re.compile("(%s)" % "|".join(re.escape(str(v)) for v in (_HOLE, _FLOAT_HOLE, _LABEL_HOLE)))

# The values of a record but log_branch, as holes: a row without roots and
# without a unit (imaginary, h != 1), and one with a real unit.
_BARE = (_HOLE,) * 3 + (None,) * 10
_BARE_UNIT = (_HOLE,) * 3 + (_LABEL_HOLE, _HOLE, _FLOAT_HOLE) + (None,) * 7

# The values but branch and log_branch of an attached row, whose h is 1: a
# real root, a torsion root, and a torsion unit without one (eps = 1 on log
# branch 0). The writers add the scan's branch to a row with a root.
_ROOT = (_HOLE, _HOLE, 1, _LABEL_HOLE, _HOLE) + (_FLOAT_HOLE,) * 7
_TORSION_ROOT = (_HOLE, _HOLE, 1, _LABEL_HOLE, None, None) + (_FLOAT_HOLE,) * 3 + (None,) * 3
_TORSION = (_HOLE, _HOLE, 1, _LABEL_HOLE) + (None,) * 8

_JSON = _Format(", ", "", lambda recs: json.dumps(recs)[1:-1])
_CSV = _Format("\n", "\n", lambda recs: "\n".join([csv_line(r, CSV_COLUMNS) for r in recs]))
_PLAIN = _Format("\n", "\n", lambda recs: "\n".join(map(_plain_line, recs)))


# A row template split at its holes: the pieces of one row, fmt.sep first,
# and the positions of the holes.
_Split = tuple[list, list[int]]


def _split(fmt: _Format, holes: tuple, log_branch) -> _Split:
    """fmt's text of a row of `holes` (the values but log_branch, as holes)
    after fmt.sep, cut at the text of its holes: the literals, with each
    hole's own text between two of them, and the positions of the holes."""
    row = _HOLE_TEXT.split(fmt.sep + fmt.render([dict(zip(CSV_COLUMNS, (*holes, log_branch)))]))
    return row, list(range(1, len(row), 2))


def _fill(split: _Split, n: int, cols: Iterable[Iterable[str]]) -> list[str]:
    """The pieces of n rows of a split template, each column of text
    filling its holes by one slice assignment."""
    row, slots = split
    out = row * n
    for slot, col in zip(slots, cols):
        out[slot :: len(row)] = col
    return out


def _joined(pieces: list[str], w: int) -> list[str]:
    """The text of each run of w pieces."""
    return ["".join(pieces[k : k + w]) for k in range(0, len(pieces), w)]


def _interleave(cols: list[list]) -> list:
    """The columns read row by row: cols[0][0], cols[1][0], ..., cols[0][1], ..."""
    return cols[0] if len(cols) == 1 else list(chain.from_iterable(zip(*cols)))


def _float_texts(floats: array, width: int) -> list[list[str]]:
    """The repr of each of the first `width` of the _ROOT_FLOATS interleaved
    columns of floats; two columns of the same bits (residual_split_2 and
    residual_split_1 under conjugate pairing) share one text."""
    texts: dict[bytes, list[str]] = {}
    cols = []
    for c in range(width):
        col = floats[c::_ROOT_FLOATS]
        key = col.tobytes()
        if key not in texts:
            texts[key] = list(map(repr, col))
        cols.append(texts[key])
    return cols


def _real_root_texts(
    b: _Batch, root: _Split, lo: int, fields: list[list]
) -> Iterator[list[tuple[int, str]]]:
    """The text of the root rows of the attached fields lo, lo + 1, ... of a
    real scan, whose columns (D, d, h, unit label, norm, regulator) `fields`
    gives: b.powers rows a field, the row of power n with the label
    (label)^n, the norm norm^n and the log n*R. The rows come in groups of
    at most _JSON_CHUNK_ROWS (whole fields, or the powers of one field in
    parts), one list of (field, text) a group, field counted from lo, so the
    text held stays bounded however many powers a field has."""
    D, d, _, labels, norms, regulators = fields
    p = b.powers
    per, q = max(1, _JSON_CHUNK_ROWS // p), min(p, _JSON_CHUNK_ROWS)  # fields and powers a group
    for g in range(0, len(D), per):
        k = slice(g, g + per)
        for n0 in range(1, p + 1, q):
            ns = range(n0, min(n0 + q, p + 1))
            start = ((lo + g) * p + n0 - 1) * _ROOT_FLOATS
            floats = b.roots[start : start + len(D[k]) * len(ns) * _ROOT_FLOATS]
            cols = [
                _interleave([list(map(repr, D[k]))] * len(ns)),
                _interleave([list(map(repr, d[k]))] * len(ns)),
                _interleave([labels[k] if n == 1 else [f"({label})^{n}" for label in labels[k]] for n in ns]),
                _interleave([[repr(v**n) for v in norms[k]] for n in ns]),
                _interleave([[repr(n * R) for R in regulators[k]] for n in ns]),
                *_float_texts(floats, _ROOT_FLOATS),
            ]
            yield list(enumerate(_joined(_fill(root, len(cols[0]), cols), len(ns) * len(root[0])), g))


def _torsion_root_texts(
    b: _Batch, rooted: _Split, rootless: _Split, lo: int, fields: list[list]
) -> Iterator[list[tuple[int, str]]]:
    """The text of the rows of each of the attached fields lo, lo + 1, ... of
    an imaginary scan, whose columns (D, d, h) `fields` gives, in one group
    of (field, text), field counted from lo: one row per torsion unit of
    its group, in the order of _TORSION_UNITS, with the next root of the
    root array where the unit has one."""
    has_root = [[_has_root(eps, b.log_branch) for _, eps, _ in _TORSION_UNITS[n]] for n in b.torsion]
    rows: dict[bool, list[tuple[str, str, str]]] = {True: [], False: []}  # D, d and label of each row
    for Di, di, n, flags in zip(fields[0], fields[1], b.torsion[lo:], has_root[lo:]):
        for (label, _, _), flag in zip(_TORSION_UNITS[n], flags):
            rows[flag].append((repr(Di), repr(di), label))
    start = sum(map(sum, has_root[:lo])) * _ROOT_FLOATS
    floats = b.roots[start : start + len(rows[True]) * _ROOT_FLOATS]
    row_texts = {
        flag: iter(_joined(_fill(split, len(rows[flag]), [*zip(*rows[flag]), *extra]), len(split[0])))
        for flag, split, extra in ((True, rooted, _float_texts(floats, 3)), (False, rootless, ()))
    }
    yield [(rank, "".join([next(row_texts[flag]) for flag in flags]))
           for rank, flags in enumerate(has_root[lo : lo + len(fields[0])])]


# Rows per piece of writer text: about 135 KB of bare imaginary JSON. With
# 4,096 rows (1 MB a piece) `lgw scan --imaginary --limit 300000` peaked 4 MB
# higher and ran about 10% slower on a 2-vCPU VM: once no freed array had
# raised glibc's mmap threshold past a piece, each piece and its encoded copy
# were mapped afresh.
_JSON_CHUNK_ROWS = 512


def _row_text(summary: SurveySummary, fmt: _Format, first: str, last: str) -> Iterator[str]:
    """first, fmt's text of each row's records after fmt.sep (the first after
    fmt.lead) in scan order, then last: in pieces of the rows of up to
    _JSON_CHUNK_ROWS fields, cut again before each later group of root rows
    (_real_root_texts). The records carry the scan's batch.log_branch.

    The fields of a piece fill the bare template split at its holes, once
    per bare row; each column of the bare rows fills its holes by one slice
    assignment (repr for integers and floats, and for h a lookup in the
    scan's table of h's text with the literals around it). The rows of the
    attached fields fill their own templates the same way (_ROOT, or
    _TORSION_ROOT and _TORSION, with h and the branch written in): a column
    of text per hole, from the columns of the attached fields and the root
    array. The text of an attached field goes in after the bare rows before
    it. The values are plain ints and finite floats, so repr writes them as
    json.dumps does.
    """
    import numpy as np

    b, units = summary.batch, summary.batch.units
    row, slots = _split(fmt, _BARE if units is None else _BARE_UNIT, b.log_branch)
    # h fills the third hole (CSV_COLUMNS starts D, d, h): one table entry
    # per value up to the scan's largest h, the text from the literal before
    # the hole to the literal after it, stands for all three pieces
    k = slots[2]
    h_text = [f"{row[k - 1]}{v!r}{row[k + 1]}" for v in range(int(b.h.max(initial=0)) + 1)]
    row[k - 1 : k + 2] = [None]
    slots = [s - 2 if s > k else s for s in slots]
    slots[2] = k - 1
    # D, d and h, and a real unit's label (text already), norm and regulator
    convs = (repr, repr, h_text.__getitem__, None, repr, repr)
    w, at = len(row), b.index
    if units is None:
        rooted, rootless = (_split(fmt, (*holes, branch), b.log_branch)
                            for holes, branch in ((_TORSION_ROOT, b.branch), (_TORSION, None)))
        root_texts = partial(_torsion_root_texts, b, rooted, rootless)
    else:
        root_texts = partial(_real_root_texts, b, _split(fmt, (*_ROOT, b.branch), b.log_branch))

    def chunks() -> Iterator[str]:  # the text of the rows, each row after fmt.sep
        for i in range(0, len(b.D), _JSON_CHUNK_ROWS):
            j = min(i + _JSON_CHUNK_ROWS, len(b.D))
            lo, hi = np.searchsorted(at, (i, j)).tolist()
            attached = (at[lo:hi] - i).tolist()
            cols = [b.D[i:j].tolist(), b.d[i:j].tolist(), b.h[i:j].tolist()]
            if units is not None:
                x, y, half_integral, norm, regulator = (c[i:j] for c in units)
                cols += [list(map(_unit_label, x, y, cols[1], half_integral)), norm, regulator]
            groups = ()
            if attached:  # the attached fields apart, then the bare rows only
                mask = [False] * (j - i)
                for a in attached:
                    mask[a] = True
                groups = root_texts(lo, [list(compress(c, mask)) for c in cols])
                mask = list(map(not_, mask))
                cols = [list(compress(c, mask)) for c in cols]
            cols = [c if conv is None else map(conv, c) for conv, c in zip(convs, cols)]
            out = _fill((row, slots), j - i - len(attached), cols)
            text, start = [], 0  # the text not yet written, and the pieces of out in it
            for group in groups:
                if text:  # what comes before a later group is final: write it
                    yield "".join(text)
                    text = []
                for rank, field in group:
                    k = (attached[rank] - rank) * w  # the pieces of the bare rows before it
                    text += out[start:k]
                    text.append(field)
                    start = k
            out[:start] = text  # the pieces of out before `start` are in `text`, or written
            yield "".join(out)

    yield first
    texts = chunks()
    for text in texts:  # the first row after fmt.lead
        yield fmt.lead + text[len(fmt.sep) :]
        break
    yield from texts
    yield last


def iter_summary_json(summary: SurveySummary, *, trailer: dict | None = None) -> Iterator[str]:
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
        "min_alpha_separation": summary.min_alpha_separation,
        "distinct_unit_count": summary.distinct_unit_count,
    })
    tail = "]" + (", " + json.dumps(trailer)[1:] if trailer else "}")
    return _row_text(summary, _JSON, head[:-1] + ', "rows": [', tail)


def summary_to_json(summary: SurveySummary) -> str:
    return "".join(iter_summary_json(summary))


def iter_summary_csv(summary: SurveySummary) -> Iterator[str]:
    """The row records as CSV, in pieces that concatenate to records_to_csv
    of the "rows" of summary_to_json(summary)."""
    return _row_text(summary, _CSV, ",".join(CSV_COLUMNS), "\n")


def iter_summary_plain(summary: SurveySummary) -> Iterator[str]:
    """A line of summary counts, then one line per row record with its
    non-empty columns as key=value, in pieces."""
    first = (f"range {summary.range[0]}..{summary.range[1]}  fields_h1={summary.count_h1}  "
             f"distinct_alpha={summary.distinct_alpha_count}  "
             f"distinct_units={summary.distinct_unit_count}")
    return _row_text(summary, _PLAIN, first, "\n")


def records_to_csv(records: Iterable[dict], columns: Sequence[str] = CSV_COLUMNS) -> str:
    """A header line of `columns`, then one line per record; None is empty."""
    return _records_to_csv(records, columns)


# -- reading scan JSON back ------------------------------------------------------------

# A run of bare records in a scan's JSON: the JSON template of a bare row,
# split at its holes as the writers split it, with each literal escaped and
# a pattern of JSON's grammar for each hole (an integer for D, d, h, the norm
# and log_branch, the text of a string without escapes for a unit label,
# whose quotes are literals, a number for a regulator), repeated with its
# separators. Text it matches is records whose alpha_re is null, which the
# correspondence table skips. Every repeat is possessive, so a match saves
# no backtrack point per row: each repeated class is followed by a
# character it cannot hold, and nothing follows the run, so the match is
# the one a greedy repeat finds. _BARE_RUN matches the rows of an imaginary
# scan, _BARE_UNIT_RUN those of a real scan, which carry a unit.
_JSON_WS = "[ \t\n\r]*+"
# [0-9]: a str pattern's \d takes any Unicode digit
_JSON_INT = r"-?(?:0|[1-9][0-9]*+)"
_HOLE_GRAMMAR = {
    str(_HOLE): _JSON_INT,
    str(_FLOAT_HOLE): _JSON_INT + r"(?:\.[0-9]++)?(?:[eE][-+]?[0-9]++)?",
    _LABEL_HOLE: r'[^"\\\x00-\x1f]*+',
}


def _bare_run(holes: tuple) -> re.Pattern:
    row, _ = _split(_JSON._replace(sep=""), holes, _HOLE)
    text = "".join(_HOLE_GRAMMAR[p] if k % 2 else re.escape(p) for k, p in enumerate(row))
    return re.compile("(?:{ws}{}{ws},){{1,1024}}+".format(text, ws=_JSON_WS))


_BARE_RUN, _BARE_UNIT_RUN = _bare_run(_BARE), _bare_run(_BARE_UNIT)
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
            run = _BARE_RUN.match(self.buf, self.pos) or _BARE_UNIT_RUN.match(self.buf, self.pos)
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

    `records` are row records, dicts keyed by CSV_COLUMNS such as the
    "rows" of a scan's JSON. log eps is the regulator for a real unit and
    i*(arg eps + 2*pi*log_branch) for a torsion unit. Supports the measured
    one-to-one story: every attached root appears with its unit, its log,
    and the pairwise-distinctness statistics of the roots. A record that
    lacks a key, or a torsion record whose unit label is not one of
    fields._TORSION_UNITS, raises KeyError; a non-finite alpha raises ValueError.
    """
    entries = []
    alpha_re, alpha_im = [], []
    for rec in records:
        if rec.get("alpha_re") is None:
            continue
        alpha = complex(rec["alpha_re"], rec["alpha_im"])
        if not cmath.isfinite(alpha):
            raise ValueError(f"non-finite alpha {alpha!r} at D={rec.get('D')!r}")
        alpha_re.append(alpha.real)
        alpha_im.append(alpha.imag)
        if rec.get("regulator") is not None:
            log_re, log_im = rec["regulator"], 0.0
        else:
            theta = _TORSION_ARGS[rec["unit"]]
            log_re, log_im = 0.0, theta + 2 * math.pi * rec.get("log_branch", 0)
        entries.append(dict(zip(TABLE_COLUMNS, (
            rec["D"], rec["unit"], log_re, log_im, alpha.real, alpha.imag, rec["residual_defining"],
            rec["residual_split_1"], rec["residual_split_2"], rec["branch"],
        ))))
    distinct, min_sep = _distinct_stats(alpha_re, alpha_im)
    return CorrespondenceTable(tuple(entries), len(alpha_re), distinct, min_sep)
