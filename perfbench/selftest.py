#!/usr/bin/env python3
"""Self-test of the benchmark's output checks; runs no simulation.

    python3 perfbench/selftest.py

For every workload it feeds the recorded seed-0 reference through the
same check a benchmark run applies (``run.check_sample``), first
unchanged and then corrupted in several ways, and requires that exactly
the corrupted outputs are counted as failed: by the invariants, by the
reference, or by disagreeing with the run's first child. Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import sys

import checks
import run
from workloads import WORKLOADS, make_inputs


def _rewrite(csv_text: str, edit) -> str:
    lines = csv_text.splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    edit(rows)
    return "\n".join([header, *(",".join(r) for r in rows)]) + "\n"


def _bump(row: int, col: int, delta: float):
    def edit(rows):
        rows[row][col] = repr(float(rows[row][col]) + delta)
    return edit


def _set(row: int, col: int, text: str):
    def edit(rows):
        rows[row][col] = text
    return edit


def _corruptions(inputs, csv_text: str, stdout: str):
    """(label, csv, stdout) of outputs that must each be counted as failed."""
    last_col = len(inputs.header) - 1
    mid = inputs.rows // 2
    yield "value off by 1e-9", _rewrite(csv_text, _bump(mid, last_col, 1e-9)), stdout
    yield "non-finite value", _rewrite(csv_text, _set(0, last_col, "nan")), stdout
    yield "row missing", _rewrite(csv_text, lambda rows: rows.pop()), stdout
    if inputs.pol_columns:
        col = inputs.header.index(inputs.pol_columns[0])
        yield "polarisation above 1/2", _rewrite(csv_text, _set(mid, col, "0.5000001")), stdout
    else:
        yield "eigenphase above pi", _rewrite(csv_text, _set(mid, 2, "3.1416")), stdout
    count = checks.crossing_count(stdout)
    if count is not None:
        wrong = stdout.replace(f": {count}", f": {count + 1}", 1)
        yield "crossing count off by one", csv_text, wrong


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    out = str((run.WORK / "out.csv").relative_to(run.ROOT))
    bad = 0
    for name in sorted(WORKLOADS):
        inputs = make_inputs(name, 0, run.ROOT, run.WORK, out)
        reference = checks.load_reference(name, 0)
        if reference is None:
            print(f"FAIL {name}: no seed-0 reference")
            bad += 1
            continue
        csv_text = checks.reference_csv(name, 0)
        stdout = "" if reference[2] is None else f"crossings below gap 0.2: {reference[2]}\n"
        first = {"csv": csv_text, "stdout": stdout, "problems": []}
        drifted = _rewrite(csv_text, _bump(inputs.rows // 2, 2, 1e-9))
        # (label, csv, stdout, reference, first child of the run, must fail)
        cases = [("unchanged", csv_text, stdout, reference, first, False),
                 ("unchanged, no reference", csv_text, stdout, None, None, False),
                 ("differs from the run's first child", drifted, stdout, None, first, True)]
        cases += [(label, c, s, reference, None, True)
                  for label, c, s in _corruptions(inputs, csv_text, stdout)]
        for label, csv_case, stdout_case, ref, first_child, must_fail in cases:
            sample = {"csv": csv_case, "stdout": stdout_case, "problems": []}
            run.check_sample(inputs, sample, ref, first_child)
            failed = bool(sample["problems"])
            ok = failed == must_fail
            bad += not ok
            verdict = "failed" if failed else "passed"
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {label} -> {verdict}")
    print(f"selftest: {bad} wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
