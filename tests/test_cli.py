"""Command-line entry points, exit codes and output files."""
from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from dnpsim import (
    PolarisationTrace,
    ScheduleStage,
    cli,
    compute_spectrum,
    engine,
    errors,
    find_crossings,
    floquet,
    load_register_file,
    pulsepol_for_period,
    run_schedule,
    write_schedule_csv,
)
from dnpsim.errors import NotUnitary

from conftest import CONFIG_DIR, broken_frame

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


def test_sweep_prints_peak_and_dip_at_the_vertex(monkeypatch, capsys):
    """A total that samples a parabola around each extremum gives its vertex
    to the printed 12 significant digits, even a dip as shallow as -0.003."""
    t = np.linspace(25.0, 27.0, 21)
    total = np.where(t < 26.0, 0.4 - (t - 25.63) ** 2, -0.003 + (t - 26.37) ** 2)
    trace = PolarisationTrace(periods=t, labels=("C3",), values=total[:, None])
    monkeypatch.setattr(cli, "sweep_trace", lambda *args, **kwargs: trace)
    argv = ["sweep", "--config", C3, "--t-start", "25", "--t-stop", "27", "--steps", "21"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "points: 21",
        "peak: period_us=25.63 tau_us=6.4075 total=0.4",
        "dip: period_us=26.37 tau_us=6.5925 total=-0.003",
    ]


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


def test_sweep_scale_and_flip(tmp_path, capsys):
    # On resonance <I_z> passes 1/4, so --scale 2 writes values above 1/2.
    common = [
        "--config", C3, "--t-start", "6.8", "--t-stop", "6.9", "--steps", "3",
        "--np", "8", "--reps", "5",
    ]
    rows = {}
    for scale in ("1", "-1", "2"):
        out = tmp_path / f"s{scale}.csv"
        assert cli.main(["sweep", *common, "--scale", scale, "--out", str(out)]) == 0
        rows[scale] = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows["1"][:, 2].max() > 0.25
    for scale in ("-1", "2"):
        np.testing.assert_array_equal(rows[scale][:, :2], rows["1"][:, :2])
        np.testing.assert_allclose(rows[scale][:, 2:], float(scale) * rows["1"][:, 2:], rtol=1e-11)
    peaks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("peak:")]
    assert float(peaks[2].rsplit("=", 1)[1]) == pytest.approx(2 * float(peaks[0].rsplit("=", 1)[1]))


WORKER_VERBS = {
    "sweep": ["--np", "4", "--reps", "2"],
    "spectrum": ["--gap-threshold", "0.5"],
}


@pytest.mark.parametrize("verb", WORKER_VERBS)
def test_worker_count_is_invisible_in_output(verb, tmp_path, capsys):
    """--workers is accepted and ignored: the CSV and stdout are the same
    bytes for 1 and 2."""
    out = tmp_path / "out.csv"
    seen = []
    for workers in ("1", "2"):
        rc = cli.main(
            [
                verb, "--config", C3_C21,
                "--t-start", "6.6", "--t-stop", "7.0", "--steps", "9",
                *WORKER_VERBS[verb], "--workers", workers, "--out", str(out),
            ]
        )
        assert rc == 0
        seen.append((out.read_bytes(), capsys.readouterr().out))
    assert seen[0] == seen[1]


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
    write_schedule_csv(result._replace(values=-2.0 * result.values), str(want))
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


COMPARE_PINS = {
    "c3_c4_c8": (
        [],
        """\
blockade spin: C3  harmonic: k=3
label       omega_i        T_r          g  N_opt      shift  T_shifted  g_blocked
C3         2.752584   6.847949   0.067385      3          -          -          -
C4         2.686234   7.017094   0.023899      9  -0.025477   6.838323   0.025255
C8         2.686540   7.016295   0.004552     49  -0.025592   6.836735   0.004817
""",
        """\
label,omega_i,resonant_period_us,g,n_opt,shift_ratio,shifted_period_us,g_blocked
C3,2.75258430448,6.84794863172,0.0673851950094,3,,,
C4,2.68623382309,7.01709425275,0.0238994949366,9,-0.0254765776742,6.83832270597,0.0252545490615
C8,2.68653993359,7.01629470899,0.00455228474983,49,-0.0255917433073,6.83673549583,0.00481746074262
""",
    ),
    "c3_c21": (
        ["--blockade", "C21"],
        """\
blockade spin: C21  harmonic: k=3
label       omega_i        T_r          g  N_opt      shift  T_shifted  g_blocked
C3         2.752584   6.847949   0.067385      3   0.001056   6.855183   0.124229
C21        2.741449   6.875765   0.005690     40          -          -          -
""",
        """\
label,omega_i,resonant_period_us,g,n_opt,shift_ratio,shifted_period_us,g_blocked
C3,2.75258430448,6.84794863172,0.0673851950094,3,0.00105638034988,6.85518267009,0.124229183823
C21,2.74144859422,6.87576486433,0.00569035593729,40,,,
""",
    ),
}


@pytest.mark.parametrize("config", COMPARE_PINS)
def test_compare_output_is_pinned(config, tmp_path, capsys):
    """compare's stdout and CSV, byte for byte."""
    extra, stdout, csv_text = COMPARE_PINS[config]
    out = tmp_path / "compare.csv"
    argv = ["compare", "--config", str(CONFIG_DIR / f"{config}.yaml"), *extra, "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == stdout + f"wrote {out}\n"
    assert out.read_bytes() == csv_text.replace("\n", "\r\n").encode()


@pytest.mark.parametrize(
    "argv, warned",
    [
        (["compare", "--config", str(CONFIG_DIR / "c3_c4_c8.yaml"), "--blockade", "C8",
          "--harmonic", "5"], "zero flip-flop rate"),
        (["sweep", "--config", C3, "--t-start", "6.6", "--t-stop", "7.0", "--steps", "3",
          "--rabi", "20"], "pulse errors will be visible"),
        (["spectrum", "--config", C3, "--t-start", "6.6", "--t-stop", "7.0", "--steps", "3",
          "--rabi", "20"], "pulse errors will be visible"),
    ],
    ids=["compare-k5", "sweep", "spectrum"],
)
def test_warnings_are_one_line_each(argv, warned):
    """Each warning is one "warning: ..." line on stderr, without the source
    file and code line Python would print. At k = 5 every g is 0, so every
    shift is 0, printed without a sign."""
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "dnpsim.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("warning: ") for line in lines)
    assert all(warned in line for line in lines)
    assert ".py" not in proc.stderr
    assert "-0.0" not in proc.stdout
    if argv[0] == "compare":
        assert [row.split()[5] for row in proc.stdout.splitlines()[2:4]] == ["0.000000"] * 2


def test_degenerate_compare_prints_nothing(tmp_path, capsys):
    """Two spins with equal couplings make the blockade row a usage error,
    raised before the title and header lines are printed."""
    twins = tmp_path / "twins.yaml"
    twins.write_text(
        "larmor_rad_per_us: 2.7106474\nnuclei:\n"
        "  - {label: A, a_parallel_khz: -11.346, a_perp_khz: 59.21}\n"
        "  - {label: B, a_parallel_khz: -11.346, a_perp_khz: 59.21}\n"
    )
    assert cli.main(["compare", "--config", str(twins), "--blockade", "A"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


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
    # A malformed number is named by its plain type, as argparse's own int
    # and float types name it.
    typed = [
        (["sweep", "--config", C3, "--t-start", "x", "--t-stop", "7"], "float"),
        (["sweep", "--config", C3, "--t-start", "6", "--t-stop", "7", "--workers", "x"], "int"),
        (["compare", "--config", C3, "--harmonic", "x"], "int"),
        (["spectrum", "--config", C3, "--t-start", "6", "--t-stop", "7",
          "--gap-threshold", "x"], "float"),
        (["schedule", "--config", C3, "--stage", "6.8:2", "--scale", "x"], "float"),
    ]
    for argv, name in typed:
        assert cli.main(argv) == 1, argv
        assert f"invalid {name} value: 'x'" in capsys.readouterr().err, argv


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verb", ["sweep", "spectrum", "compare"])
def test_non_finite_config_numbers_are_usage_errors(verb, tmp_path, capsys):
    """A .nan coupling in the register file ends the run with exit 1 and the
    field named, before numpy sees it: no ``warning:`` line, no traceback."""
    config = tmp_path / "nan.yaml"
    config.write_text("nuclei:\n  - {label: C3, a_parallel_khz: .nan, a_perp_khz: 40}\n")
    argv = [verb, "--config", str(config), *VERB_ARGS[verb]]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: nuclei[0].a_parallel_khz: must be finite, got nan\n"


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_gap_threshold_is_rejected_before_any_work(value, tmp_path, capsys, monkeypatch):
    """No spectrum is computed and no --out file is written."""
    def never(*args, **kwargs):
        raise AssertionError("the spectrum was computed")

    monkeypatch.setattr(cli, "compute_spectrum", never)
    out = tmp_path / "gt.csv"
    argv = ["spectrum", "--config", C3, "--t-start", "6.6", "--t-stop", "7.0",
            "--steps", "5", f"--gap-threshold={value}", "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --gap-threshold: ")
    assert "Traceback" not in err
    assert not out.exists()


VERB_ARGS = {
    "sweep": ["--t-start", "6.6", "--t-stop", "7.0", "--steps", "3"],
    "spectrum": ["--t-start", "6.6", "--t-stop", "7.0", "--steps", "3"],
    "schedule": ["--stage", "6.8:2"],
    "compare": [],
}


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize(
    "verb, option",
    [(verb, option) for option in ("--harmonic", "--workers") for verb in VERB_ARGS
     if (verb, option) != ("compare", "--workers")],
)
def test_counts_below_one_are_usage_errors(verb, option, value, capsys):
    """Every verb that takes the option refuses it before any output: exit
    1, the option named, nothing on stdout."""
    argv = [verb, "--config", C3, *VERB_ARGS[verb], f"{option}={value}"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: argument {option}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "extra", [["--protocol", "cpmg"], ["--rabi", "300"], ["--workers", "2"]], ids=lambda e: e[0]
)
def test_compare_refuses_the_options_it_does_not_read(extra, tmp_path, capsys):
    """compare tabulates the closed forms of ideal PulsePol alone: a period
    builder option is a usage error (exit 1, nothing written), not a table
    that silently ignores it."""
    out = tmp_path / "compare.csv"
    assert cli.main(["compare", "--config", C3_C21, *extra, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"error: unrecognized arguments: {extra[0]}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep", "--config", C3, "--t-start", "6.6", "--t-stop", "7.0", "--steps", "1"],
         "--steps"),
        (["schedule", "--config", C3, "--stage", "6.8:x"], "--stage"),
        (["schedule", "--config", C3, "--stage", "6.8:3", "--reps", "5"], "--reps"),
    ],
    ids=["one-step", "stage-reps-not-a-number", "schedule-reps"],
)
def test_run_options_a_verb_cannot_honour_exit_one(argv, field, capsys):
    """A one-point grid, a malformed stage and a ``--reps`` on ``schedule``
    (whose repetitions come from its stages alone) are usage errors with
    nothing on stdout."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err
    assert "Traceback" not in captured.err


def test_compare_on_a_register_without_nuclei_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty.yaml"
    empty.write_text("larmor_rad_per_us: 2.7106474\nnuclei: []\n")
    assert cli.main(["compare", "--config", str(empty)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config contains no nuclei\n"


def _args_read(name: str, functions: dict, seen: set) -> set:
    """Attributes of ``args`` that the cli function ``name`` reads, itself or
    through the cli functions it passes ``args`` to."""
    if name in seen:
        return set()
    seen.add(name)
    read = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in functions
            and any(getattr(arg, "id", None) == "args" for arg in node.args)
        ):
            read |= _args_read(node.func.id, functions, seen)
    return read


def test_every_option_a_verb_accepts_is_one_it_reads():
    """No flag is parsed and then dropped. ``--workers`` alone is accepted
    and ignored, as the README documents."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    verbs = next(
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    unread = []
    for verb, sub in verbs.items():
        read = _args_read(sub.get_default("func").__name__, functions, set())
        unread.extend(
            f"{verb} {action.option_strings[0]}"
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            and action.dest not in read | {"workers"}
        )
    assert sorted(verbs) == ["compare", "schedule", "spectrum", "sweep"]
    assert unread == []


#: For each verb a valid argv, a usage error and -h; then the top-level help,
#: no arguments and an unknown verb; each with what ``main`` gives.
PARSER_CASES = [
    (0, ["sweep", "--config", C3, "--t-start", "6.7", "--t-stop", "6.9", "--steps", "3",
         "--reps", "2"]),
    (1, ["sweep", "--config", C3]),
    (("exit", 0), ["sweep", "-h"]),
    (0, ["spectrum", "--config", C3, "--t-start", "6.7", "--t-stop", "6.9", "--steps", "5",
         "--gap-threshold", "0.4"]),
    (1, ["spectrum", "--config", C3, "--t-start", "6", "--t-stop", "7", "--gap-threshold", "x"]),
    (("exit", 0), ["spectrum", "-h"]),
    (0, ["schedule", "--config", C3, "--stage", "6.8:2", "--stage", "6.9:1", "--scale", "2"]),
    (1, ["schedule", "--config", C3, "--stage", "6.8:2", "--reps", "5"]),
    (("exit", 0), ["schedule", "-h"]),
    (0, ["compare", "--config", C3_C21, "--blockade", "C21"]),
    (1, ["compare", "--config", C3, "--rabi", "300"]),
    (("exit", 0), ["compare", "-h"]),
    (("exit", 0), ["-h"]),
    (1, []),
    (1, ["nonsense", "--config", C3]),
]


def _outcome(run, argv, capsysbinary):
    """What ``run(argv)`` returns, or the code it exits with, or the usage
    error it raises; and the bytes it wrote to stdout and stderr."""
    try:
        got = run(argv)
    except SystemExit as exc:
        got = ("exit", exc.code)
    except errors.ValidationError as exc:
        got = ("usage error", str(exc))
    captured = capsysbinary.readouterr()
    return got, captured.out, captured.err


_KIND = {0: "run", 1: "error", ("exit", 0): "help"}


@pytest.mark.parametrize(
    ("rc", "argv"), PARSER_CASES, ids=[f"{(a or ['none'])[0]}-{_KIND[rc]}" for rc, a in PARSER_CASES]
)
def test_the_one_verb_parser_equals_the_full_parser(rc, argv, monkeypatch, capsysbinary):
    """A run builds only the verb it names; the parsed namespace, the exit
    code and every byte of help, usage and error text are those of the
    full four-verb parser, which anything but a verb name builds."""
    full = cli.build_parser
    one = full(argv[0] if argv else None)
    verbs = next(a.choices for a in one._actions if isinstance(a, argparse._SubParsersAction))
    assert list(verbs) == ([argv[0]] if argv and argv[0] in cli._VERBS else list(cli._VERBS))
    parsed = _outcome(lambda a: vars(one.parse_args(a)), argv, capsysbinary)
    assert parsed == _outcome(lambda a: vars(full().parse_args(a)), argv, capsysbinary)
    ran = _outcome(cli.main, argv, capsysbinary)
    monkeypatch.setattr(cli, "build_parser", lambda verb=None: full())
    assert ran == _outcome(cli.main, argv, capsysbinary)
    assert ran[0] == rc


def test_bad_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("larmor_rad_per_us: 2.7\nnuclei:\n  - {label: X, a_parallel_khz: 1,\n")
    rc = cli.main(["sweep", "--config", str(bad), "--t-start", "6", "--t-stop", "7"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_a_config_with_both_larmor_and_field_exits_one(tmp_path, capsys):
    both = tmp_path / "both.yaml"
    both.write_text("larmor_rad_per_us: 2.7\nb_field_gauss: 806\nnuclei: []\n")
    rc = cli.main(["compare", "--config", str(both)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: larmor_rad_per_us, b_field_gauss: give one")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_numerical_failure_exits_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NotUnitary("propagator drifted")

    monkeypatch.setattr(cli, "sweep_trace", boom)
    rc = cli.main(
        ["sweep", "--config", C3, "--t-start", "6.6", "--t-stop", "7.0", "--steps", "3"]
    )
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def _subclasses(base):
    return [base, *(t for sub in base.__subclasses__() for t in _subclasses(sub))]


# Bad input exits 1, a numerical breakdown exits 2.
EXIT_CODES = {
    "DnpsimError": 1,
    "DimensionOverflow": 1,
    "ParseError": 1,
    "ValidationError": 1,
    "InvalidTau": 1,
    "NotIdealPulses": 1,
    "DegenerateSpins": 1,
    "NumericalError": 2,
    "NotHermitian": 2,
    "NotUnitary": 2,
    "NoConvergence": 2,
    "DimensionMismatch": 2,
    "SectorLeak": 2,
    "FileNotFoundError": 1,
    "LinAlgError": 2,
}


@pytest.mark.parametrize(
    "error",
    [*_subclasses(errors.DnpsimError), FileNotFoundError, np.linalg.LinAlgError],
    ids=lambda t: t.__name__,
)
def test_each_error_family_has_its_exit_code(error, monkeypatch, capsys):
    """Every package error, raised from a verb, ends the run with its
    family's exit code and stderr prefix and no traceback."""
    def boom(*args, **kwargs):
        raise error("stubbed failure")

    monkeypatch.setattr(cli, "sweep_trace", boom)
    rc = cli.main(["sweep", "--config", C3, "--t-start", "6.6", "--t-stop", "7.0", "--steps", "3"])
    assert rc == EXIT_CODES[error.__name__]
    prefix = "error: " if rc == 1 else "numerical failure: "
    assert capsys.readouterr().err == f"{prefix}stubbed failure\n"


def test_kraus_pair_leaking_out_of_its_parity_sectors_exits_two(monkeypatch, capsys, tmp_path):
    """A complete Kraus pair with an entry of ~1e-9 between the nuclear
    parity sectors ends a sweep with one numerical-failure line, no
    traceback and no CSV: every period map is followed by a rotation of
    1e-9 rad between nuclear states 0 and 1 (even and odd) under the
    electron's reset state, which keeps it unitary and the pair complete."""
    eps = 1e-9
    mix = np.eye(4, dtype=complex)
    mix[:2, :2] = [[np.cos(eps), -1j * np.sin(eps)], [-1j * np.sin(eps), np.cos(eps)]]
    real_period_unitary = engine.period_unitary
    monkeypatch.setattr(
        engine, "period_unitary", lambda seqs, reg: real_period_unitary(seqs, reg) @ mix
    )
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["sweep", "--config", C3, "--t-start", "6.6", "--t-stop", "7.0", "--steps", "3",
         "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("numerical failure: Kraus pair leaks ")
    assert err.endswith("e-09 out of its nuclear parity sectors\n")
    assert not out.exists()


def test_non_finite_state_exits_two(monkeypatch, capsys):
    """A NaN period map reaches the per-repetition state check (the pair
    check is stubbed out), which ends the run with a numerical failure."""
    monkeypatch.setattr(
        engine, "period_unitary", lambda seqs, reg: np.full((len(seqs), 4, 4), np.nan + 0j)
    )
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


def test_a_map_leaking_out_of_its_sectors_exits_two(monkeypatch, capsys):
    """Ideal PulsePol conserves Q_z, and so does its half-period root; a
    root rotated by 1e-9 between basis states 0 and 1, of opposite parity,
    is still unitary but is never solved: the spectrum ends with a numerical
    failure naming the leak."""
    real_roots = floquet.period_roots

    def leaky(seqs, register):
        u, squared = real_roots(seqs, register)
        mix = np.eye(register.dim, dtype=complex)
        mix[:2, :2] = [[np.cos(1e-9), -1j * np.sin(1e-9)], [-1j * np.sin(1e-9), np.cos(1e-9)]]
        return mix @ u, squared

    monkeypatch.setattr(floquet, "period_roots", leaky)
    rc = cli.main(["spectrum", "--config", C3_C21, "--t-start", "6.7", "--t-stop", "7.0",
                   "--steps", "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: period map leaks ")
    assert captured.err.endswith(" out of its Q_z sectors\n")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cpmg_csvs_write_tau_as_half_the_period(tmp_path, capsys):
    """The refocusing train spans two pulse intervals: tau_us = period_us / 2
    in the sweep CSV, on the sweep's peak line and in the spectrum CSV."""
    grid = ["--protocol", "cpmg", "--harmonic", "1", "--t-start", "2.2", "--t-stop", "2.4",
            "--steps", "5"]
    sweep, spectrum = tmp_path / "sweep.csv", tmp_path / "spectrum.csv"
    assert cli.main(["sweep", "--config", C3, *grid, "--out", str(sweep)]) == 0
    assert cli.main(["spectrum", "--config", C3, *grid, "--out", str(spectrum)]) == 0
    for out in (sweep, spectrum):
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], rows[:, 1] / 2)
    peak = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("peak:"))
    period, tau = (float(field.split("=")[1]) for field in peak.split()[1:3])
    assert tau == period / 2


def test_spectrum_counts_the_protected_crossings(tmp_path, capsys):
    """On two nuclei, the printed count of crossings between different
    sectors equals a count from <v|Q_z|v> = +/-1 of the two branch states
    at the grid sample nearest each crossing."""
    argv = ["spectrum", "--config", C3_C21, "--t-start", "6.6", "--t-stop", "7.2",
            "--steps", "121", "--gap-threshold", "0.2"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("crossings below gap 0.2: ")
    assert lines[2].startswith("protected crossings (different sectors): ")
    printed = int(lines[2].rsplit(" ", 1)[1])

    register = load_register_file(C3_C21)
    spec = compute_spectrum(pulsepol_for_period, register, np.linspace(6.6, 7.2, 121))
    q_z = 1 - 2 * (np.array([bin(i).count("1") for i in range(spec.dim)]) % 2)
    count = 0
    for c in find_crossings(spec, gap_threshold=0.2):
        m = int(np.argmin(np.abs(spec.periods - c.period)))
        v = spec.eigenvectors(np.array([m, m]), np.array([c.branch_a, c.branch_b]))
        q = [np.vdot(x, q_z * x).real for x in v]
        assert np.allclose(np.abs(q), 1.0, atol=1e-12)
        count += round(q[0]) != round(q[1])
    assert 0 < printed == count < len(find_crossings(spec, gap_threshold=0.2))


@pytest.mark.parametrize(
    "pulses, noted",
    [(["--protocol", "cpmg"], True), (["--protocol", "cpmg", "--rabi", "2000"], False),
     (["--protocol", "pulsepol", "--t-start", "6.6", "--t-stop", "7.0"], False)],
    ids=["ideal-cpmg", "finite-cpmg", "pulsepol"],
)
def test_spectrum_notes_the_degenerate_cpmg_spectrum(capsys, pulses, noted):
    """Ideal CPMG's doubly degenerate spectrum gets one caveat line after
    the crossing counts; finite CPMG and PulsePol do not."""
    argv = ["spectrum", "--config", C3_C16, "--harmonic", "1",
            "--t-start", "2.0", "--t-stop", "2.6", "--steps", "21", "--gap-threshold", "0.5"]
    assert cli.main(argv + pulses) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("protected crossings (different sectors): ")
    note = "note: ideal CPMG is doubly degenerate; gap=0 partner crossings are rounding noise"
    assert [i for i, line in enumerate(lines) if line.startswith(note)] == ([3] if noted else [])


@pytest.mark.parametrize(
    "verb, refusal",
    [("spectrum", "period map leaks"), ("sweep", "period propagator drifted off unitarity")],
    ids=["spectrum", "sweep"],
)
def test_a_hamiltonian_that_breaks_the_spin_flip_exits_two(
    verb, refusal, patch_frame, capsys, tmp_path
):
    """Every period map is half built from the spin flip T; a frame of an
    H0 with 1e-3 S_z (x) I_z, which breaks T, ends either verb with one
    numerical-failure line and no CSV instead of a mirrored guess: the
    mirrored half leaks out of the spectrum's parity sectors, and off
    unitarity in the sweep."""
    patch_frame(broken_frame)
    out = tmp_path / "out.csv"
    rc = cli.main([verb, "--config", C3_C21, "--t-start", "6.7", "--t-stop", "7.0",
                   "--steps", "5", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("numerical failure: " + refusal)
    assert captured.out == "" and not out.exists()
