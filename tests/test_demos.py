"""The demos run against the package's exports, and every export has a user
outside the tests."""

import ast
import importlib.util
from pathlib import Path

import pytest

import mefsc

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports(path):
    assert callable(load(path).main)


def test_three_mode_demo_runs(capsys):
    demo = load(ROOT / "demos" / "three_mode_interaction.py")
    demo.main(["--samples", "200", "--duration", "0.05"])
    assert "max |E[u1]| over time, solver" in capsys.readouterr().out


def references(path: Path) -> set[str]:
    """Names a file reads, reads as attributes, or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_outside_the_tests():
    # Code that only tests reach is deleted, not exported: each public name
    # must be used by the package itself, a demo or the benchmark.
    package = sorted((ROOT / "src" / "mefsc").glob("*.py"))
    users = [p for p in package if p.name != "__init__.py"] + DEMOS
    users += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(references, users))
    assert sorted(set(mefsc.__all__) - used) == []
