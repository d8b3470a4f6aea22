import ast
import importlib
from pathlib import Path

import pytest

import lgholling

PACKAGE_DIR = Path(lgholling.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if not p.stem.startswith("_"))


def top_level_names(path: Path) -> set:
    """Names a module defines at its top level: functions, classes and assigned names."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_the_package_has_ten_modules():
    assert MODULES == ["cli", "errors", "expr", "fixedpoint", "integrator", "model", "pap", "permanence",
                       "presets", "stability"]


@pytest.mark.parametrize("name", MODULES)
def test_each_module_declares_its_public_names_once_and_the_package_republishes_them(name):
    """__all__ is exactly the module's non-underscore top-level definitions,
    and each of them is the same object in the package."""
    module = importlib.import_module(f"lgholling.{name}")
    public = {n for n in top_level_names(PACKAGE_DIR / f"{name}.py") if not n.startswith("_")}
    assert sorted(module.__all__) == sorted(public)
    assert [n for n in module.__all__ if getattr(lgholling, n, None) is not getattr(module, n)] == []
