"""src/ keeps only what a run reaches: every function, class and non-dunder
method defined in the package is named by other package code, a demo or
the benchmark. Test files do not count, so a helper that only tests call
belongs in tests/ (tests/oracles.py holds the references)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the non-dunder methods of
    those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _used_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def unreached(root: Path) -> list[str]:
    """Package definitions that no non-test code under src/fedaudit (apart
    from __init__.py's re-exports), demos/ or perfbench/ names."""
    package = root / "src" / "fedaudit"
    users = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    users += [path for folder in ("demos", "perfbench")
              for path in (root / folder).glob("*.py") if not path.name.startswith("test_")]
    used = set()
    for path in users:
        used |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    return sorted(f"{path.stem}.{name}" for path in package.glob("*.py")
                  for name in _definitions(ast.parse(path.read_text(), filename=str(path)))
                  if name not in used)


def test_every_package_definition_is_reached():
    assert unreached(ROOT) == []
