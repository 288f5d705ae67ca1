"""The demos import only names that exist. The demos themselves are not run
here: two of them train for 600 epochs."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    missing = []
    for node in ast.walk(ast.parse(demo.read_text(), filename=str(demo))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fedaudit":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)
                        and importlib.util.find_spec(f"{node.module}.{alias.name}") is None]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fedaudit":
                    importlib.import_module(alias.name)
    assert not missing, f"{demo.name} imports names that do not exist: {missing}"
