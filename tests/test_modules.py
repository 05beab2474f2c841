"""Package structure: modules share only public names."""
from __future__ import annotations

import ast
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
