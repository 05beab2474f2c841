"""Command-line entry points, exit codes and output files."""
from __future__ import annotations

import filecmp
import os
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from dnpsim import (
    ScheduleStage,
    cli,
    engine,
    load_register_file,
    pulsepol_for_period,
    run_schedule,
    write_schedule_csv,
)
from dnpsim.errors import NotUnitary

from conftest import CONFIG_DIR

C3 = str(CONFIG_DIR / "c3.yaml")
C3_C21 = str(CONFIG_DIR / "c3_c21.yaml")
C3_C16 = str(CONFIG_DIR / "c3_c16.yaml")


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        [
            "sweep", "--config", C3,
            "--t-start", "6.6", "--t-stop", "7.1", "--steps", "11",
            "--np", "4", "--reps", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau_us,period_us,C3,total"
    assert len(lines) == 12
    stdout = capsys.readouterr().out
    assert "peak" in stdout


def test_sweep_cpmg_protocol(tmp_path):
    out = tmp_path / "cpmg.csv"
    rc = cli.main(
        [
            "sweep", "--config", C3, "--protocol", "cpmg", "--harmonic", "1",
            "--t-start", "2.2", "--t-stop", "2.4", "--steps", "5",
            "--np", "8", "--reps", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 6


def test_sweep_scale_and_flip(tmp_path):
    base = tmp_path / "a.csv"
    flipped = tmp_path / "b.csv"
    common = [
        "--config", C3, "--t-start", "6.8", "--t-stop", "6.9", "--steps", "3",
        "--np", "4", "--reps", "1",
    ]
    assert cli.main(["sweep", *common, "--out", str(base)]) == 0
    assert cli.main(["sweep", *common, "--scale", "-1", "--out", str(flipped)]) == 0
    rows_a = [line.split(",") for line in base.read_text().strip().splitlines()[1:]]
    rows_b = [line.split(",") for line in flipped.read_text().strip().splitlines()[1:]]
    for ra, rb in zip(rows_a, rows_b):
        assert float(rb[2]) == pytest.approx(-float(ra[2]))


def test_sweep_worker_count_is_invisible_in_output(tmp_path):
    outs = []
    for i, workers in enumerate(("1", "2")):
        out = tmp_path / f"w{i}.csv"
        rc = cli.main(
            [
                "sweep", "--config", C3_C21,
                "--t-start", "6.6", "--t-stop", "7.0", "--steps", "9",
                "--np", "4", "--reps", "2", "--workers", workers,
                "--out", str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    assert filecmp.cmp(str(outs[0]), str(outs[1]), shallow=False)


def test_spectrum_verb(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = cli.main(
        [
            "spectrum", "--config", C3,
            "--t-start", "6.7", "--t-stop", "7.0", "--steps", "16",
            "--gap-threshold", "0.6", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("tau_us,period_us,branch_0")
    assert len(lines) == 17
    assert "crossings" in capsys.readouterr().out


def test_schedule_verb(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    rc = cli.main(
        [
            "schedule", "--config", C3_C16, "--np", "8",
            "--stage", "7.2:3", "--stage", "6.7977:4:2", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time_us,stage,period_us,C3,C16,total"
    assert len(lines) == 8  # one row per repetition
    assert "final" in capsys.readouterr().out


def test_schedule_scale_writes_the_library_csv(tmp_path):
    """--scale goes through the library writer, so the CLI file equals
    write_schedule_csv on the scaled result byte for byte."""
    out, want = tmp_path / "cli.csv", tmp_path / "lib.csv"
    argv = ["schedule", "--config", C3_C16, "--np", "8", "--harmonic", "5",
            "--stage", "7.2:3", "--stage", "6.7977:4:2", "--wait-us", "0.5", "--reinit", "1"]
    assert cli.main([*argv, "--scale", "-2", "--out", str(out)]) == 0
    result = run_schedule(
        partial(pulsepol_for_period, harmonic=5),
        load_register_file(C3_C16),
        (ScheduleStage(7.2, 3), ScheduleStage(6.7977, 4, 2)),
        n_periods=8,
        wait_us=0.5,
        reinit_state=1,
    )
    write_schedule_csv(replace(result, values=-2.0 * result.values), str(want))
    assert out.read_bytes() == want.read_bytes()


def test_compare_verb(capsys):
    rc = cli.main(["compare", "--config", C3_C21])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "C3" in stdout and "C21" in stdout
    assert "blockade spin: C3" in stdout
    assert "-0.148" in stdout  # the displacement ratio for the weak line


def test_compare_explicit_blockade_spin(capsys):
    rc = cli.main(["compare", "--config", C3_C21, "--blockade", "C21"])
    assert rc == 0
    assert "blockade spin: C21" in capsys.readouterr().out


def test_usage_errors_exit_one(tmp_path, capsys):
    cases = [
        ["sweep", "--config", C3],  # missing the period grid
        ["sweep", "--config", str(tmp_path / "absent.yaml"),
         "--t-start", "6", "--t-stop", "7"],
        ["sweep", "--config", C3, "--t-start", "7", "--t-stop", "6"],
        ["schedule", "--config", C3, "--stage", "oops"],
        ["schedule", "--config", C3],  # no stages at all
        ["nonsense"],
    ]
    for argv in cases:
        assert cli.main(argv) == 1, argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--t-start", "6", "--t-stop", "7", "--steps", "2", "--wait-us", "1"],
        ["schedule", "--stage", "6.8:2"],
    ],
    ids=["sweep-wait", "schedule"],
)
def test_oversized_register_exits_one_before_allocating(argv):
    """27 nuclei exceed the joint-space cap; the check runs before any
    2^27-dim array is built, so the run ends with the cap message."""
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
    config = str(CONFIG_DIR / "register27.yaml")
    proc = subprocess.run(
        [sys.executable, "-m", "dnpsim.cli", argv[0], "--config", config, *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "joint-space cap is 256" in proc.stderr
    assert "Traceback" not in proc.stderr


GRID = ["--config", C3, "--t-start", "6.6", "--t-stop", "7.0", "--steps", "3"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep", *GRID, "--wait-us", "nan"], "wait_us"),
        (["sweep", *GRID, "--wait-us", "inf"], "wait_us"),
        (["sweep", *GRID, "--scale", "nan"], "--scale"),
        (["sweep", *GRID, "--rabi", "inf"], "rabi"),
        (["sweep", "--config", C3, "--t-start", "6.6", "--t-stop", "inf"], "--t-stop"),
        (["sweep", "--config", C3, "--t-start", "nan", "--t-stop", "7.0"], "--t-start"),
        (["spectrum", *GRID, "--gap-threshold", "nan"], "gap_threshold"),
        (["schedule", "--config", C3, "--stage", "inf:3"], "period"),
        (["schedule", "--config", C3, "--stage", "6.8:3", "--wait-us", "nan"], "wait_us"),
        (["schedule", "--config", C3, "--stage", "6.8:3", "--scale=-inf"], "--scale"),
    ],
)
def test_non_finite_numbers_are_usage_errors(argv, field, capsys):
    """Exit 1 with the field named; any warning (numpy's RuntimeWarning
    among them) would fail the test."""
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_bad_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("larmor_rad_per_us: 2.7\nnuclei:\n  - {label: X, a_parallel_khz: 1,\n")
    rc = cli.main(["sweep", "--config", str(bad), "--t-start", "6", "--t-stop", "7"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_numerical_failure_exits_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NotUnitary("propagator drifted")

    monkeypatch.setattr(cli, "sweep_trace", boom)
    rc = cli.main(
        ["sweep", "--config", C3, "--t-start", "6.6", "--t-stop", "7.0", "--steps", "3"]
    )
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_state_exits_two(monkeypatch, capsys):
    """A NaN period map reaches the per-repetition state check (the pair
    check is stubbed out), which ends the run with a numerical failure."""
    monkeypatch.setattr(engine, "period_unitary", lambda seq, reg: np.full((4, 4), np.nan + 0j))
    monkeypatch.setattr(engine, "_check_completeness", lambda kraus: None)
    rc = cli.main(
        ["sweep", "--config", C3, "--t-start", "6.6", "--t-stop", "7.0", "--steps", "3"]
    )
    assert rc == 2
    assert "numerical failure: density matrix is not finite" in capsys.readouterr().err


def test_closed_stdout_exits_quietly():
    """A reader that stops early (``dnpsim spectrum ... | head -2``) must not
    produce a traceback. The read end of the pipe is closed before the
    command starts, so its first write fails every time."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "dnpsim.cli", "spectrum",
                "--config", str(CONFIG_DIR / "c3_c4_c8.yaml"),
                "--t-start", "6.6", "--t-stop", "7.2", "--steps", "41",
                "--gap-threshold", "0.5",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_broken_pipe_elsewhere_is_not_swallowed(monkeypatch):
    """A BrokenPipeError that does not come from stdout, such as an --out
    FIFO whose reader has left, is a real failure and must propagate."""

    def boom(*args, **kwargs):
        raise BrokenPipeError("output pipe closed")

    monkeypatch.setattr(cli, "sweep_trace", boom)
    with pytest.raises(BrokenPipeError):
        cli.main(["sweep", "--config", C3, "--t-start", "6.6", "--t-stop", "7.0", "--steps", "3"])
