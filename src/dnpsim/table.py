"""The number format and the one CSV writer behind every file dnpsim writes."""

from __future__ import annotations

import csv
from typing import Iterable, Sequence


def fmt(x: float) -> str:
    """A number with 12 significant digits, as in every table and report."""
    return format(x, ".12g")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a header line, then one line per row. In a row, floats go
    through ``fmt``, None becomes an empty cell and anything else ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [fmt(x) if isinstance(x, float) else "" if x is None else str(x) for x in row]
            for row in rows
        )
