"""The demos' prtrack imports resolve, checked without running the demos."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def prtrack_imports(path):
    """(module, name) of each ``from prtrack... import name`` and (module,
    None) of each ``import prtrack...`` in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "prtrack"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "prtrack")


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(prtrack_imports(path))
    assert imports, f"{path.name} imports nothing from prtrack"
    missing = []
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:  # ``from package import submodule``
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{module_name}.{name}")
    assert not missing, f"{path.name} imports missing names {missing}"
