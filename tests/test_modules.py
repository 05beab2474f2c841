"""Package structure: modules share only public names."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dnpsim"


def test_no_private_name_is_imported_from_a_sibling_module():
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                leaks.extend(
                    f"{path.name}: {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert leaks == []


def _callers(name: str) -> list[str]:
    """``module.function`` for every call of ``name`` in the package; a call
    outside any top-level definition is listed as ``module.<module>``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if called == name:
                        found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def _bench_hooks() -> tuple:
    """``perfbench/child.py``'s HOOKS, read from the file and never changed."""
    path = SRC.parent.parent / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.HOOKS


def test_no_module_imports_a_name_it_never_uses():
    """An import whose name nothing reads is dead, except floquet's
    ``period_unitary``, which the benchmark traces under that name."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                names = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unused.extend(f"{path.stem}.{name}" for name in names if name not in used)
    assert unused == ["floquet.period_unitary"]
    assert ("dnpsim.floquet", "period_unitary") in {hook[:2] for hook in _bench_hooks()}


def _defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each defaulted parameter; None for keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(i, positional[i].arg) for i in range(first, len(positional))]
    found += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def test_every_defaulted_parameter_is_passed_somewhere():
    """Each defaulted parameter of a public function or public method in the
    package is passed, by keyword or by position, by some call of that name
    in ``src`` or ``tests``: a default no caller overrides is a constant."""
    public = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                public.append((f"{path.stem}.{top.name}", top, 0))
            elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                for fn in top.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                        public.append((f"{path.stem}.{top.name}.{fn.name}", fn, 0 if static else 1))
    calls: dict[str, list[ast.Call]] = {}
    files = sorted(SRC.glob("*.py")) + sorted((SRC.parent.parent / "tests").glob("*.py"))
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, position: int | None, name: str) -> bool:
        if any(k.arg in (name, None) for k in call.keywords):  # by name, or **kwargs
            return True
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        return position is not None and (starred or len(call.args) > position)

    unpassed = [
        f"{where}({name})"
        for where, fn, bound in public
        for position, name in _defaulted(fn)
        if not any(
            passes(call, None if position is None else position - bound, name)
            for call in calls.get(fn.name, [])
        )
    ]
    assert unpassed == []


def test_only_free_propagator_reads_the_h0_eigensystems():
    """One source for the electron-conditioned nuclear Hamiltonian: every
    propagator, the period gaps' phases, the finite steps and the waits of
    ``protocols.free_propagator`` alike, comes from H0's eigenframe,
    ``protocols._eigenframe``, the one reader of the closed-form
    eigensystems."""
    assert _callers("static_hamiltonian_eig") == ["protocols._eigenframe"]
    assert sorted(_callers("_eigenframe")) == [
        "protocols._finite_step", "protocols._pattern_maps", "protocols.free_propagator"
    ]


MOVED_OR_GONE = ("static_hamiltonian", "average_hamiltonian_numeric", "free_sequence",
                 "ModulationFunctions")


def test_the_dense_operators_belong_to_the_oracle():
    """No module of the package calls ``build_operators``, and no module
    defines or names the dense H0, the numeric average Hamiltonian (both
    now in ``tests/reference_engine.py``), the pulse-free period or the
    modulation-function record, nor does ``dnpsim.__all__``.
    ``build_operators`` stays public only because the benchmark's set-up
    times it (``spins.operators_s`` in ``perfbench/child.py``)."""
    import dnpsim

    assert _callers("build_operators") == []
    child = (SRC.parent.parent / "perfbench" / "child.py").read_text()
    assert 'setup_step("spins.operators", "build_operators"' in child
    assert not set(MOVED_OR_GONE) & set(dnpsim.__all__)
    named = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in MOVED_OR_GONE
        if re.search(rf"\b{name}\b", path.read_text())
    ]
    assert named == []


def test_only_parity_sectors_computes_a_parity():
    """One parity index: the popcount of a basis state is taken in
    ``protocols.parity_sectors`` alone, and the Floquet sectors and the
    engine's Kraus blocks both read it."""
    assert _callers("bin") + _callers("bit_count") == ["protocols.parity_sectors"]
    assert {c.split(".")[0] for c in _callers("parity_sectors")} == {"engine", "floquet"}


def test_floquet_sorts_phases_once_per_spectrum():
    """A Floquet branch is a block column: its phases are sorted at the
    first grid point of each spectrum only, and the crossing search sorts
    its weights; no per-point phase order is kept."""
    floquet = [c for c in _callers("argsort") if c.startswith("floquet.")]
    assert floquet == ["floquet.compute_spectrum", "floquet.find_crossings"]


def test_floquet_gathers_the_flip_flops_without_the_dense_operators():
    """The crossing search takes each F_n gather from bit arithmetic; no
    embedded operator is built for it."""
    assert not [c for c in _callers("build_operators") if c.startswith("floquet.")]


def test_one_resonant_period_formula():
    """2 pi k / omega_i is written once, in ``protocols.resonant_period``;
    the closed forms and the ``compare`` table call it."""
    callers = _callers("resonant_period")
    assert "cli._cmd_compare" in callers
    assert any(c.startswith("analytic.") for c in callers)


def test_no_polyfit_in_the_package():
    """Sweeps and spectra share the closed-form vertex of
    ``floquet.local_minima``."""
    assert _callers("polyfit") == []


def test_degenerate_spins_is_raised_at_one_site():
    """One degeneracy test, with one message, behind every blockade formula."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if getattr(node.exc.func, "id", None) == "DegenerateSpins":
                    sites.append(f"{path.stem}:{node.lineno}")
    assert len(sites) == 1, sites


def test_common_period_is_checked_at_one_site():
    """``blockade_pair`` and ``excitation_manifold`` share one check that
    their spins were evaluated at one period and harmonic."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and "common period" in ast.unparse(node):
                sites.append(f"{path.stem}:{node.lineno}")
    assert len(sites) == 1, sites
    assert set(_callers("_require_common_period")) == {
        "analytic.blockade_pair", "analytic.excitation_manifold"
    }


def test_one_kraus_builder_in_the_engine():
    """Every Kraus stack is powered and checked in one place."""
    for name in ("_check_completeness", "matrix_power"):
        assert [c for c in _callers(name) if c.startswith("engine.")] == ["engine._kraus_stack"]


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_the_table_module_imports_csv():
    """Every CSV file is written by ``table.write_csv``."""
    importers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if any(name.split(".")[0] == "csv" for name in _imported_modules(path))
    ]
    assert importers == ["table.py"]


def test_write_csv_is_byte_identical_to_the_csv_module(tmp_path):
    """The per-row %-templates write what ``csv.writer`` writes from the
    cells converted one by one: ``fmt`` for floats, an empty cell for None,
    ``str`` otherwise, quoted where a cell holds a comma, quote or newline."""
    import csv
    import io

    import numpy as np

    from dnpsim.table import fmt, write_csv

    row = [0.1, -0.0, float("nan"), None, 7, "plain", "a, b"]
    rows = [
        row,
        [np.float64(1 / 3), float("inf"), None, np.int64(-2), 'say "hi"', "two\nlines", 2.5e-300],
        iter(row),
        [1e22, -12345678901234.5, 0.0, True, "", "x\ry", None],
    ]
    header = [f"c{i}" for i in range(len(row))]
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(header)
    for cells in [row, rows[1], row, rows[3]]:
        writer.writerow(
            [fmt(x) if isinstance(x, float) else "" if x is None else str(x) for x in cells]
        )
    path = tmp_path / "rows.csv"
    write_csv(str(path), header, rows)
    assert path.read_bytes() == want.getvalue().encode()
    assert path.read_bytes().splitlines()[1] == b'0.1,-0,nan,,7,plain,"a, b"'


def test_importing_the_cli_loads_no_process_pool():
    """Every verb runs in one process: neither importing the CLI nor a
    ``spectrum`` run with ``--workers 2`` loads a process pool's machinery."""
    config = str(SRC.parent.parent / "configs" / "c3.yaml")
    argv = ["spectrum", "--config", config, "--t-start", "6.6", "--t-stop", "7.0",
            "--steps", "5", "--workers", "2"]
    code = (
        "import sys, dnpsim.cli; "
        f"rc = dnpsim.cli.main({argv!r}); "
        "print(rc, sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 []"


def _fresh_modules(code: str) -> list[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; {code}; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout.split()


def test_start_up_loads_only_what_the_verbs_need():
    """``import dnpsim`` loads no submodule, and the CLI with the register
    layer, as the benchmark imports them, loads neither ``analytic``, which
    only ``compare`` reads, nor ``dataclasses``."""
    assert [m for m in _fresh_modules("import dnpsim") if m.startswith("dnpsim.")] == []
    loaded = set(_fresh_modules("from dnpsim import cli, spins"))
    assert {"dnpsim.cli", "dnpsim.spins"} <= loaded
    assert loaded.isdisjoint({"dataclasses", "dnpsim.analytic"})


def test_all_is_exactly_the_public_names():
    """Every name of ``dnpsim.__all__`` resolves, is bound by ``import *``
    and listed by ``dir``; no submodule is in it, and an unknown name raises
    AttributeError."""
    import dnpsim

    names = dnpsim.__all__
    assert len(set(names)) == len(names) and "__version__" in names
    assert not {path.stem for path in SRC.glob("*.py")} & set(names)
    star: dict = {}
    exec("from dnpsim import *", star)
    for name in names:
        assert star[name] is getattr(dnpsim, name)
        assert not name.startswith("_") or name == "__version__"
    assert set(names) <= set(dir(dnpsim))
    public = {name for name in dir(dnpsim) if not name.startswith("_")}
    assert public - set(names) <= {path.stem for path in SRC.glob("*.py")}  # loaded submodules
    with pytest.raises(AttributeError, match="no_such_name"):
        dnpsim.no_such_name


def test_every_benchmark_trace_hook_still_resolves():
    """The benchmark's traced run wraps each ``(module, attribute)`` of
    ``perfbench/child.py``'s HOOKS; a renamed target would silently read 0."""
    hooks = _bench_hooks()
    missing = []
    for module_name, attr_path, _, _ in hooks:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr_path}")
    assert hooks and missing == []


TRACED_RUNS = {
    "sweep": (
        "configs/c3_c4_c8.yaml",
        ["--harmonic", "11", "--t-start", "25.4", "--t-stop", "25.56", "--steps", "3",
         "--np", "8", "--reps", "1000"],
    ),
    "spectrum": ("configs/c3.yaml", ["--t-start", "6.6", "--t-stop", "7.2", "--steps", "5"]),
}


@pytest.mark.parametrize("verb", TRACED_RUNS)
def test_the_benchmark_traced_run_finds_every_hook(verb, tmp_path):
    """``perfbench/child.py RESULT 1 CONFIG -- VERB ...`` in its own process,
    as the benchmark runs it: it exits 0 with nothing ``missing`` (no set-up
    step of ``spins`` and no HOOKS name gone, and every work count fits its
    call), and the spans hold the layers the traced metrics read."""
    root = SRC.parent.parent
    config, args = TRACED_RUNS[verb]
    result, out = tmp_path / "result.json", tmp_path / "out.csv"
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "perfbench/child.py", str(result), "1", config, "--",
           verb, "--config", config, "--out", str(out), *args]
    run = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    record = json.loads(result.read_text())
    assert record["rc"] == 0 and record["missing"] == []
    spans = {}
    for name, _, _, _, work in record["spans"]:
        spans.setdefault(name, []).append(work)
    if verb == "sweep":
        assert {"spins.h0_eig", "protocols.period_map"} <= spans.keys()
    else:
        assert spans["floquet.spectrum"] == [5] and "linalg.unitary_eig" in spans


def _refuse_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


BENCHMARK = json.loads((SRC.parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_the_benchmark_traced_run_ends_with_a_strict_json_result(workload):
    """``perfbench/run.py --workload W --seed 0 --seconds 1 --trace 1`` for
    each workload of ``BENCHMARK.json``, as the benchmark runs it but short:
    it exits 0, its last stdout line is strict JSON (no NaN or Infinity),
    correct, and holds exactly the ``per_layer`` metrics, none absent.
    A result line that is missing or malformed would fail the whole run."""
    root = SRC.parent.parent
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", "1"]
    run = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    *_, record, result = run.stdout.splitlines()
    result = json.loads(result, parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert json.loads(record.removeprefix("record: "))["absent_metrics"] == []


def test_source_stays_within_the_line_budget():
    """``wc -l src/dnpsim/*.py`` stays at most 2866 lines; a ``telemetry.py``
    has a budget of its own of up to 120 lines."""
    lines = {path.name: path.read_bytes().count(b"\n") for path in SRC.glob("*.py")}
    assert lines.pop("telemetry.py", 0) <= 120
    assert sum(lines.values()) <= 2866, lines
