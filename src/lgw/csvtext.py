"""CSV text of flat records: the one writer of the point commands' CSV and of
the scan and table CSV. It imports nothing, so a point command that writes
CSV loads no scan layer.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["csv_line", "records_to_csv"]


def csv_line(rec: dict, columns: Sequence[str]) -> str:
    """The values of `columns` in rec, comma-separated; None is empty."""
    return ",".join(["" if rec[c] is None else str(rec[c]) for c in columns])


def records_to_csv(records: Iterable[dict], columns: Sequence[str]) -> str:
    """A header line of `columns`, then one line per record; None is empty."""
    lines = [",".join(columns)]
    lines.extend(csv_line(rec, columns) for rec in records)
    return "\n".join(lines) + "\n"
