"""The number format and the one CSV writer behind every file dnpsim writes."""

from __future__ import annotations

import csv
from typing import Iterable, Sequence


def fmt(x: float) -> str:
    """A number with 12 significant digits, as in every table and report."""
    return format(x, ".12g")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a header line, then one line per row. In a row, floats go
    through ``fmt``, None becomes an empty cell and anything else ``str``,
    quoted as ``csv.writer`` quotes it. A row is formatted by one %-template
    per sequence of cell types, and a row of floats alone as it is."""
    templates: dict[tuple, tuple[str, bool]] = {}
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in map(tuple, rows):
            kinds = tuple(map(type, row))
            if kinds not in templates:
                cells = [_cell(k) for k in kinds]
                templates[kinds] = ",".join(cells) + "\r\n", cells.count("%.12g") == len(cells)
            template, floats = templates[kinds]
            if not floats:
                row = tuple(x if isinstance(x, float) else _text(x) for x in row if x is not None)
            fh.write(template % row)


def _cell(kind: type) -> str:
    """The template of one cell: the ``fmt`` format for floats, nothing for None."""
    return "%.12g" if issubclass(kind, float) else "" if kind is type(None) else "%s"


def _text(x) -> str:
    """``str(x)`` as one minimally quoted cell of the excel dialect."""
    text = str(x)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text
