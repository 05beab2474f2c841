"""The benchmark's workloads and the inputs each one makes from a seed.

Every workload is one ``dnpsim`` verb on one register. The seed picks the
register (nuclei drawn from ``configs/register27.yaml``, C3 always kept)
and jitters grid offsets or stage periods. It never changes how much work
the verb does: the number of nuclei, grid points, repetitions and periods
per repetition are fixed per workload. Why each workload exists is written
next to it below and in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

TABLE = "configs/register27.yaml"
ALWAYS = "C3"


@dataclass
class Inputs:
    """Generated inputs of one workload at one seed.

    ``argv`` is the timed command line; ``serial_argv`` is the same with
    one process, used for the traced run and its untraced twin. ``rows``
    and ``header`` are what the CSV must hold, ``pol_columns`` which of its
    columns are per-spin polarisations.
    """

    verb: str
    config: str
    argv: list[str]
    serial_argv: list[str]
    rows: int
    header: list[str]
    pol_columns: list[str]
    params: dict


def _draw_register(root: Path, rng: random.Random, n_nuclei: int, out: Path) -> list[str]:
    """Write a YAML register of C3 plus n_nuclei - 1 nuclei drawn from the table."""
    table = yaml.safe_load((root / TABLE).read_text(encoding="utf-8"))
    rows = table["nuclei"]
    keep = [r for r in rows if r["label"] == ALWAYS]
    keep += rng.sample([r for r in rows if r["label"] != ALWAYS], n_nuclei - 1)
    lines = [f"b_field_gauss: {table['b_field_gauss']}", "nuclei:"]
    lines += [
        f"  - {{label: {r['label']}, a_parallel_khz: {r['a_parallel_khz']}, "
        f"a_perp_khz: {r['a_perp_khz']}}}"
        for r in keep
    ]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [r["label"] for r in keep]


def _num(x: float) -> str:
    return f"{x:.6f}"


def _grid_args(t_start: float, step: float, steps: int) -> list[str]:
    t_stop = t_start + (steps - 1) * step
    return ["--t-start", _num(t_start), "--t-stop", _num(t_stop), "--steps", str(steps)]


def _sweep_columns(labels: list[str]) -> list[str]:
    return ["tau_us", "period_us", *labels, "total"]


def sweep_blockade(root: Path, rng: random.Random, work: Path, out: str) -> Inputs:
    # Three nuclei (dim 16), 1000 repetitions per point: the per-repetition
    # Python overhead of the engine loop dominates and the period map is
    # under 1% of the time. The workload for batching and the process pool;
    # the Floquet layer is bypassed. The grid covers the criterion-9
    # window 25.4-27.0 us, its offset jittered within one step.
    config = "configs/c3_c4_c8.yaml"
    labels = ["C3", "C4", "C8"]
    step, steps = 0.08, 21
    t_start = 25.4 + (rng.random() - 0.5) * step
    base = ["sweep", "--config", config, "--out", out, "--harmonic", "11",
            *_grid_args(t_start, step, steps), "--np", "8", "--reps", "1000"]
    return Inputs(
        verb="sweep", config=config,
        argv=base + ["--workers", "2"], serial_argv=base + ["--workers", "1"],
        rows=steps, header=_sweep_columns(labels), pol_columns=labels,
        params={"nuclei": labels, "t_start_us": _num(t_start), "step_us": step,
                "steps": steps, "harmonic": 11, "np": 8, "reps": 1000, "workers": 2},
    )


def sweep_register7(root: Path, rng: random.Random, work: Path, out: str) -> Inputs:
    # Seven nuclei (dim 256), 20 repetitions per point: dense 256-dim
    # kernels (period map, joint-space conjugation, eigvalsh in the state
    # check) dominate and Python overhead is negligible. The counter-case
    # to sweep-blockade and the memory-sensitive case.
    config = str((work / "register7.yaml").relative_to(root))
    labels = _draw_register(root, rng, 7, root / config)
    step, steps = 0.3 / 7, 8
    t_start = 6.7 + (rng.random() - 0.5) * step
    argv = ["sweep", "--config", config, "--out", out,
            *_grid_args(t_start, step, steps), "--np", "4", "--reps", "20", "--workers", "1"]
    return Inputs(
        verb="sweep", config=config, argv=argv, serial_argv=argv,
        rows=steps, header=_sweep_columns(labels), pol_columns=labels,
        params={"nuclei": labels, "t_start_us": _num(t_start), "step_us": step,
                "steps": steps, "harmonic": 3, "np": 4, "reps": 20, "workers": 1},
    )


def spectrum_register5(root: Path, rng: random.Random, work: Path, out: str) -> Inputs:
    # Five nuclei (dim 64), 241 grid points: Floquet eigensolves, bisection
    # refinement, branch stitching and the crossing search. The engine loop
    # never runs, so engine changes should not move this workload.
    config = str((work / "register5.yaml").relative_to(root))
    labels = _draw_register(root, rng, 5, root / config)
    steps = 241
    argv = ["spectrum", "--config", config, "--out", out,
            *_grid_args(6.6, 0.6 / (steps - 1), steps), "--gap-threshold", "0.2",
            "--workers", "1"]
    return Inputs(
        verb="spectrum", config=config, argv=argv, serial_argv=argv,
        rows=steps, header=["tau_us", "period_us", *(f"branch_{j}" for j in range(64))],
        pol_columns=[],
        params={"nuclei": labels, "t_start_us": 6.6, "t_stop_us": 7.2, "steps": steps,
                "gap_threshold": 0.2, "workers": 1},
    )


def schedule_register5(root: Path, rng: random.Random, work: Path, out: str) -> Inputs:
    # Five nuclei, two stages of 2000 repetitions on one evolving state: the
    # engine loop as one sequential chain, which batching across grid points
    # and the process pool cannot help, while a cheaper state check or a
    # nuclear-only loop can. It also writes the most CSV rows.
    config = str((work / "register5.yaml").relative_to(root))
    labels = _draw_register(root, rng, 5, root / config)
    displaced = 7.2 + (rng.random() - 0.5) * 0.1
    on_resonance = 6.848 + (rng.random() - 0.5) * 0.1
    stages = [f"{_num(displaced)}:2000", f"{_num(on_resonance)}:2000"]
    argv = ["schedule", "--config", config, "--out", out, "--np", "8",
            "--stage", stages[0], "--stage", stages[1]]
    return Inputs(
        verb="schedule", config=config, argv=argv, serial_argv=argv,
        rows=4000, header=["time_us", "stage", "period_us", *labels, "total"],
        pol_columns=labels,
        params={"nuclei": labels, "stages": stages, "np": 8},
    )


WORKLOADS = {
    "sweep-blockade": sweep_blockade,
    "sweep-register7": sweep_register7,
    "spectrum-register5": spectrum_register5,
    "schedule-register5": schedule_register5,
}


def make_inputs(name: str, seed: int, root: Path, work: Path, out: str) -> Inputs:
    """Generate the inputs of workload ``name``; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](root, rng, work, out)
