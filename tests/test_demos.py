"""The demos and README's Python blocks import only names that exist. The
demos themselves are not run here: two of them train for 600 epochs."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def python_source(path):
    """A demo's code, or README's ```python blocks joined."""
    text = path.read_text()
    if path.suffix == ".md":
        return "\n".join(re.findall(r"^```python\n(.*?)^```", text, re.M | re.S))
    return text


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS + [README], ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    source = python_source(demo)
    assert "fedaudit" in source
    missing = []
    for node in ast.walk(ast.parse(source, filename=str(demo))):
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
