#!/usr/bin/env python3
"""dnpsim benchmark: time to solution of the CLI verbs, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout it lives in. Each timed run
is a fresh child process (``perfbench/child.py``) that sets up the register
and calls ``dnpsim.cli.main`` on one verb. Children run one after another
until ``--seconds`` is used up (at least three), and every child's output
is checked (``perfbench/checks.py``). The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
children, times scaled to a reference machine speed); with ``--trace 1``
the children alternate between an untraced and a traced serial run, and
the metrics are the per-layer ones taken from the traced children's
spans. The line before the result is the run record (inputs, metadata,
every sample); it is also written to ``.perfbench/``.
Metric names, units and the layers they belong to are documented in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REQUIRED = ("src/dnpsim/cli.py", "configs/register27.yaml", "configs/c3_c4_c8.yaml")
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_CHILDREN = 3
# A whole invocation must end within 180 s, the first one included.
RUN_LIMIT_S = 165.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Times are reported at the machine speed at which ``child.calibrate`` takes
# this long (about its median on the 2-core Xeon the benchmark was written
# on); see "Steadiness" in README.md.
CAL_REF_S = 1.0
SCALED = ("wall_s", "setup_s")

# Hook names as ``child.py`` reports them when missing from the program.
LOAD = "dnpsim.cli.load_register_file"
BUILD = "dnpsim.cli.pulsepol_for_period"
SPECTRUM = "dnpsim.cli.compute_spectrum"
CROSSINGS = "dnpsim.cli.find_crossings"
CLI_HOOKS = (LOAD, BUILD, "dnpsim.cli.sweep_trace", "dnpsim.cli.run_schedule",
             SPECTRUM, CROSSINGS)
ENGINE_PERIOD_MAP = "dnpsim.engine.period_unitary"
FLOQUET_PERIOD_MAP = "dnpsim.floquet.period_unitary"
EIG = "dnpsim.floquet.unitary_eigensolve"
RUN_PROTOCOL = "dnpsim.engine.run_protocol"
VALIDATE = "dnpsim.engine.DensityState.validate"
LOOP = (RUN_PROTOCOL, VALIDATE, ENGINE_PERIOD_MAP)


class Spans:
    """Totals, self times, call counts and work counts per span name."""

    def __init__(self, spans: list[list]) -> None:
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.stats: dict[str, list] = {}
        for (name, start, end, _, work), child in zip(spans, covered):
            s = self.stats.setdefault(name, [0.0, 0.0, 0, 0])
            s[0] += end - start
            s[1] += end - start - child
            s[2] += 1
            s[3] += work

    def _get(self, name: str, i: int):
        return self.stats[name][i] if name in self.stats else (0.0, 0.0, 0, 0)[i]

    def total(self, name: str) -> float:
        return self._get(name, 0)

    def self_time(self, name: str) -> float:
        return self._get(name, 1)

    def calls(self, name: str) -> int:
        return self._get(name, 2)

    def work(self, name: str) -> int:
        return self._get(name, 3)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# name -> (unit, is a count, hooks it needs, value from Spans).
# A metric whose hook is missing from the program is reported absent.
LAYER_METRICS = {
    "spins.load_s": ("s", False, ("dnpsim.spins.load_register_file", LOAD),
                     lambda s: s.total("spins.load")),
    "spins.operators_s": ("s", False, ("dnpsim.spins.build_operators",),
                          lambda s: s.total("spins.operators")),
    "spins.h0_eig_s": ("s", False, ("dnpsim.spins.static_hamiltonian_eig",),
                       lambda s: s.total("spins.h0_eig")),
    "protocols.build_s": ("s", False, (BUILD,), lambda s: s.total("protocols.build")),
    "protocols.period_map_s": ("s", False, (ENGINE_PERIOD_MAP, FLOQUET_PERIOD_MAP),
                               lambda s: s.total("protocols.period_map")),
    "protocols.period_map_calls": ("count", True, (ENGINE_PERIOD_MAP, FLOQUET_PERIOD_MAP),
                                   lambda s: s.calls("protocols.period_map")),
    "linalg.unitary_eig_s": ("s", False, (EIG,), lambda s: s.total("linalg.unitary_eig")),
    "linalg.unitary_eig_calls": ("count", True, (EIG,),
                                 lambda s: s.calls("linalg.unitary_eig")),
    "engine.run_protocol_s": ("s", False, (RUN_PROTOCOL,),
                              lambda s: s.total("engine.run_protocol")),
    "engine.validate_s": ("s", False, (VALIDATE,), lambda s: s.total("engine.validate")),
    "engine.validate_calls": ("count", True, (VALIDATE,),
                              lambda s: s.calls("engine.validate")),
    "engine.loop_self_s": ("s", False, LOOP, lambda s: s.self_time("engine.run_protocol")),
    "engine.repetitions": ("count", True, (RUN_PROTOCOL,),
                           lambda s: s.work("engine.run_protocol")),
    "engine.rep_us": ("us", False, LOOP,
                      lambda s: 1e6 * _ratio(s.self_time("engine.run_protocol"),
                                             s.work("engine.run_protocol"))),
    "floquet.grid_points": ("count", True, (SPECTRUM,), lambda s: s.work("floquet.spectrum")),
    "floquet.refine_ratio": ("ratio", True, (SPECTRUM, EIG),
                             lambda s: _ratio(s.work("floquet.spectrum"),
                                              s.calls("linalg.unitary_eig"))),
    "floquet.stitch_self_s": ("s", False, (SPECTRUM, EIG, FLOQUET_PERIOD_MAP, BUILD),
                              lambda s: s.self_time("floquet.spectrum")),
    "floquet.crossings_s": ("s", False, (CROSSINGS,), lambda s: s.total("floquet.crossings")),
    "floquet.crossings": ("count", True, (CROSSINGS,), lambda s: s.work("floquet.crossings")),
    "cli.self_s": ("s", False, CLI_HOOKS, lambda s: s.self_time("cli.main")),
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn_child(inputs, argv: list[str], trace: bool, index: int, timeout: float) -> dict:
    """Run one child to completion and return its sample, checks not yet applied."""
    result = WORK / f"child-{index}.json"
    out = WORK / "out.csv"
    for stale in (result, out):
        stale.unlink(missing_ok=True)
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), str(result), str(int(trace)),
           inputs.config, "--", *argv]
    stdout_path, stderr_path = WORK / "stdout.txt", WORK / "stderr.txt"
    with open(stdout_path, "w") as so, open(stderr_path, "w") as se:
        spawned = _now()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=so, stderr=se,
                                start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.returncode is None:
                # Not reaped yet, so its pid still names its process group,
                # which holds its pool workers too.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        ended = _now()
    sample = {"trace": trace, "elapsed_s": ended - spawned, "exit": proc.returncode,
              "problems": []}
    if not result.exists():
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        sample["problems"].append(f"child wrote no result (exit {proc.returncode}): {tail}")
        return sample
    record = json.loads(result.read_text())
    sample.update(
        wall_s=record["wall_s"],
        cal_s=record["cal_s"],
        setup_s=record["ready"] - spawned,
        peak_rss_mb=record["maxrss_kib"] / 1024.0,
        python=record["python"],
        numpy=record["numpy"],
        missing=record["missing"],
    )
    if trace:
        sample["spans"] = Spans(record["spans"])
    if proc.returncode != 0 or record["rc"] != 0:
        sample["problems"].append(f"exit {proc.returncode}, cli rc {record['rc']}")
    csv_text = out.read_text() if out.exists() else ""
    sample["csv"] = csv_text
    sample["stdout"] = stdout_path.read_text(errors="replace")
    return sample


def check_sample(inputs, sample: dict, reference, first: dict | None) -> None:
    """Output checks; a later child must also agree with the first one."""
    if "csv" not in sample:
        return
    sample["problems"] += checks.check_output(inputs, sample["csv"], sample["stdout"], reference)
    if first is not None and "csv" in first and not sample["problems"]:
        h1, r1 = checks.parse_csv(first["csv"])
        h2, r2 = checks.parse_csv(sample["csv"])
        sample["problems"] += [f"not reproducible: {p}" for p in checks.compare(h2, r2, h1, r1)]


def _run_children(inputs, trace: bool, seconds: float, reference) -> list[dict]:
    """Spawn children until the time is used up.

    Untraced: the timed command line, repeated. Traced: pairs of the serial
    command line, untraced then traced, so their ratio gives the overhead.
    """
    plan = [(inputs.serial_argv, False), (inputs.serial_argv, True)] if trace \
        else [(inputs.argv, False)]
    start = _now()
    samples: list[dict] = []
    first = None
    while True:
        for argv, traced in plan:
            left = RUN_LIMIT_S - (_now() - start)
            sample = spawn_child(inputs, argv, traced, len(samples), timeout=max(left, 1.0))
            check_sample(inputs, sample, reference, first)
            if first is None and "csv" in sample:
                first = sample
            samples.append(sample)
        elapsed = _now() - start
        typical = statistics.median(s["elapsed_s"] for s in samples) * len(plan)
        enough = len(samples) >= (2 if trace else MIN_CHILDREN)
        if (enough and elapsed + typical > seconds) or elapsed + typical > RUN_LIMIT_S:
            return samples


def _end_to_end(samples: list[dict]) -> tuple[dict, dict]:
    """Medians over the children, times scaled to the reference speed.

    The machine's speed drifts for minutes at a time, and the calibration
    each child times after its verb drifts with it. Each child's times are
    scaled by ``CAL_REF_S`` over its own calibration time before the
    median is taken. Also returns the unscaled medians and the median
    scale, for the record.
    """
    done = [s for s in samples if "wall_s" in s]
    scales = [CAL_REF_S / s["cal_s"] for s in done]
    metrics = {}
    for name, unit in END_TO_END.items():
        values = [s[name] * (k if name in SCALED else 1.0) for s, k in zip(done, scales)]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    unscaled = {name: statistics.median(s[name] for s in done) for name in END_TO_END}
    return metrics, {"speed_scale": statistics.median(scales), "unscaled_medians": unscaled}


def _per_layer(samples: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics, absent metric names, and count mismatches."""
    traced = [s for s in samples if s["trace"] and "spans" in s]
    if not traced:
        return {}, [*LAYER_METRICS, "trace.overhead_frac"], []
    missing = set().union(*(s["missing"] for s in traced))
    metrics, absent, unstable = {}, [], []
    for name, (unit, is_count, hooks, value) in LAYER_METRICS.items():
        if missing.intersection(hooks):
            absent.append(name)
            continue
        values = [value(s["spans"]) for s in traced]
        if is_count and len(set(values)) > 1:
            unstable.append(f"{name} differs between traced runs: {values}")
        metrics[name] = {"value": values[0] if is_count else statistics.median(values),
                         "unit": unit}
    plain = [s["wall_s"] for s in samples if not s["trace"] and "wall_s" in s]
    if plain:
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        metrics["trace.overhead_frac"] = {
            "value": traced_wall / statistics.median(plain) - 1.0, "unit": "ratio"}
    else:
        absent.append("trace.overhead_frac")
    return metrics, absent, unstable


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _metadata(samples: list[dict]) -> dict:
    done = [s for s in samples if "python" in s]
    src = ROOT / "src" / "dnpsim"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": done[0]["python"] if done else platform.python_version(),
        "numpy": done[0]["numpy"] if done else None,
        "blas_pins": PINS,
        "repeats": len(samples),
        "repeats_traced": sum(1 for s in samples if s["trace"]),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(src.rglob("*.py"))),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=57.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    absent_files = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if absent_files:
        print(f"error: not a dnpsim checkout, missing {absent_files}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    out = str((WORK / "out.csv").relative_to(ROOT))
    inputs = make_inputs(args.workload, args.seed, ROOT, WORK, out)
    reference = checks.load_reference(args.workload, args.seed)
    samples = _run_children(inputs, bool(args.trace), args.seconds, reference)

    if not any("wall_s" in s for s in samples):
        for s in samples:
            print(f"error: {s['problems']}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, absent, unstable = _per_layer(samples)
        calibration = None
        samples[-1]["problems"] += unstable
        if absent:
            print(f"absent metrics (traced name missing): {absent}", file=sys.stderr)
    else:
        (metrics, calibration), absent = _end_to_end(samples), []
    failed = sum(1 for s in samples if s["problems"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": {"argv": inputs.argv, "serial_argv": inputs.serial_argv, **inputs.params},
        "reference_checked": reference is not None,
        "metadata": _metadata(samples),
        "error_frac": failed / len(samples),
        "calibration": calibration,
        "absent_metrics": absent,
        "samples": [{k: v for k, v in s.items() if k not in ("csv", "stdout", "spans")}
                    for s in samples],
    }
    (WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
