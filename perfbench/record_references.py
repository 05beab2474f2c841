#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks runs against.

    python3 perfbench/record_references.py

For every workload and each seed in ``SEEDS`` this runs the timed command
line once, checks its invariants, and stores the CSV (gzip, fixed header
so the bytes are reproducible) under ``perfbench/references/``, together
with the spectrum's crossing count in ``crossings.json``. Re-record only
when a change is meant to alter the program's outputs, and say so.
"""

from __future__ import annotations

import gzip
import json
import sys

import checks
import run
from workloads import WORKLOADS, make_inputs

# 0 is the benchmark's default seed.
SEEDS = (0, 1)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    out = str((run.WORK / "out.csv").relative_to(run.ROOT))
    crossings: dict[str, dict[str, int]] = {}
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            inputs = make_inputs(name, seed, run.ROOT, run.WORK, out)
            sample = run.spawn_child(inputs, inputs.argv, False, 0, timeout=120.0)
            run.check_sample(inputs, sample, None, None)
            if sample["problems"]:
                print(f"{name} seed {seed}: {sample['problems']}", file=sys.stderr)
                return 1
            with open(checks.reference_path(name, seed), "wb") as fh:
                with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0, filename="") as gz:
                    gz.write(sample["csv"].encode("utf-8"))
            count = checks.crossing_count(sample["stdout"])
            if count is not None:
                crossings.setdefault(name, {})[str(seed)] = count
            print(f"{name} seed {seed}: recorded")
    (checks.REFERENCE_DIR / "crossings.json").write_text(
        json.dumps(crossings, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
