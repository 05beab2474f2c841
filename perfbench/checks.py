"""Output checks: invariants on every run, references on recorded seeds.

Each check returns a list of problems; an empty list means the output
passed. A run with any problem counts as failed.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import re
from pathlib import Path

POL_BOUND = 0.5 + 1e-9
PHASE_BOUND = math.pi + 1e-9
REFERENCE_TOL = 1e-10
REFERENCE_DIR = Path(__file__).resolve().parent / "references"
CROSSINGS_LINE = re.compile(r"^crossings below gap \S+: (\d+)$", re.MULTILINE)


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [[float(x) for x in row] for row in reader]


def crossing_count(stdout: str) -> int | None:
    match = CROSSINGS_LINE.search(stdout)
    return int(match.group(1)) if match else None


def invariants(inputs, header: list[str], rows: list[list[float]]) -> list[str]:
    """Shape, finiteness and physical bounds of one CSV."""
    problems = []
    if header != inputs.header:
        problems.append(f"header {header} != expected {inputs.header}")
        return problems
    if len(rows) != inputs.rows:
        problems.append(f"{len(rows)} rows, expected {inputs.rows}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"row {i}: {len(row)} columns, expected {len(header)}")
            return problems
        if not all(math.isfinite(x) for x in row):
            problems.append(f"row {i}: non-finite value")
            return problems
    for name in inputs.pol_columns:
        j = header.index(name)
        worst = max((abs(row[j]) for row in rows), default=0.0)
        if worst > POL_BOUND:
            problems.append(f"{name}: |polarisation| {worst!r} exceeds 1/2")
    if "total" in header:
        j = header.index("total")
        bound = POL_BOUND * len(inputs.pol_columns)
        if any(abs(row[j]) > bound for row in rows):
            problems.append("total: exceeds the sum of the per-spin bounds")
    if inputs.verb == "spectrum":
        if any(abs(x) > PHASE_BOUND for row in rows for x in row[2:]):
            problems.append("eigenphase outside (-pi, pi]")
    return problems


def compare(header: list[str], rows: list[list[float]], ref_header: list[str],
            ref_rows: list[list[float]], tol: float = REFERENCE_TOL) -> list[str]:
    """Element-wise agreement of two CSVs within ``tol``."""
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    worst, where = 0.0, None
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for j, (x, y) in enumerate(zip(row, ref)):
            if abs(x - y) > worst:
                worst, where = abs(x - y), (i, header[j])
    if worst > tol:
        return [f"differs from reference by {worst:.3e} at row {where[0]}, column {where[1]}"]
    return []


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.csv.gz"


def reference_csv(workload: str, seed: int) -> str | None:
    path = reference_path(workload, seed)
    return gzip.decompress(path.read_bytes()).decode("utf-8") if path.exists() else None


def load_reference(workload: str, seed: int):
    """(header, rows, expected crossing count) or None if the seed has no reference."""
    text = reference_csv(workload, seed)
    if text is None:
        return None
    header, rows = parse_csv(text)
    counts = json.loads((REFERENCE_DIR / "crossings.json").read_text(encoding="utf-8"))
    return header, rows, counts.get(workload, {}).get(str(seed))


def check_output(inputs, csv_text: str, stdout: str, reference) -> list[str]:
    """All checks of one run's CSV and stdout; ``reference`` may be None."""
    try:
        header, rows = parse_csv(csv_text)
    except ValueError as exc:
        return [f"CSV does not parse: {exc}"]
    problems = invariants(inputs, header, rows)
    crossings = crossing_count(stdout)
    if inputs.verb == "spectrum" and crossings is None:
        problems.append("stdout has no crossing count")
    if reference is not None:
        ref_header, ref_rows, ref_crossings = reference
        problems += compare(header, rows, ref_header, ref_rows)
        if ref_crossings is not None and crossings != ref_crossings:
            problems.append(f"{crossings} crossings, reference has {ref_crossings}")
    return problems
