"""Package structure: modules share only public names."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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


def test_only_free_propagator_reads_the_h0_eigensystems():
    """One source for the electron-conditioned nuclear Hamiltonian: every
    free-evolution propagator, period gaps and waits alike, comes from
    ``protocols.free_propagator``."""
    assert _callers("static_hamiltonian_eig") == ["protocols.free_propagator"]


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


def test_every_benchmark_trace_hook_still_resolves():
    """The benchmark's traced run wraps each ``(module, attribute)`` of
    ``perfbench/child.py``'s HOOKS; a renamed target would silently read 0."""
    path = SRC.parent.parent / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = []
    for module_name, attr_path, _, _ in child.HOOKS:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr_path}")
    assert child.HOOKS and missing == []


def test_source_stays_within_the_line_budget():
    """``wc -l src/dnpsim/*.py`` stays at most 2866 lines; a ``telemetry.py``
    has a budget of its own of up to 120 lines."""
    lines = {path.name: path.read_bytes().count(b"\n") for path in SRC.glob("*.py")}
    assert lines.pop("telemetry.py", 0) <= 120
    assert sum(lines.values()) <= 2866, lines
