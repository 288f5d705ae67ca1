"""Sample operator-swap mutants of src/fedaudit and run the suite on each.

Usage: PYTHONPATH=src python tests/mutants.py SEED COUNT [--only FILE[:FIRST-LAST]]...

Every binary + - * /, every comparison < <= > >= == != and every `and`/`or`
in src/fedaudit (apart from cli.py, __init__.py and __main__.py) is a
mutation site: + and - swap, * and /, < and <=, > and >=, == and !=, `and`
and `or`. SEED picks COUNT sites at random; each --only keeps the sites of
one file of src/fedaudit, optionally of its lines FIRST to LAST, so a
sample can target recently rewritten code. The repository's src/, tests/,
demos/ and perfbench/ are copied to a temporary directory once; each mutant
is written into that copy alone, and the tier-1 suite runs there without
acceptance criteria 1 and 3 (the two slowest), stopping at the first
failure. A mutant is killed when the suite fails or times out, and survives
when it passes. The unmutated copy must pass first. Only the standard
library is used, and pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "fedaudit"
SKIPPED = {"cli.py", "__init__.py", "__main__.py"}
COPIED = ("src", "tests", "demos", "perfbench", "README.md", "pyproject.toml",
          "BENCHMARK.json")
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
         ast.Div: ("/", "*"), ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
         ast.Gt: (">", ">="), ast.GtE: (">=", ">"), ast.Eq: ("==", "!="),
         ast.NotEq: ("!=", "=="), ast.And: ("and", "or"), ast.Or: ("or", "and")}
SUITE = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--deselect", "tests/test_acceptance.py::TestCriterion1",
         "--deselect", "tests/test_acceptance.py::TestCriterion3"]
TIMEOUT_S = 900
PADDING = " ()\n\\"  # what may stand between an operand and its operator


def _operator_gaps(tree: ast.Module):
    """(op type, node before the operator, node after it) for every site."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            yield type(node.op), node.left, node.right
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) in SWAPS:
                    yield type(op), left, right
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                yield type(node.op), left, right


def sites(root: Path) -> list[tuple[str, int, int, int, str, str]]:
    """Every mutation site as (file, line, start byte, end byte, old, new):
    the bytes between two operands that hold the operator, so a swap edits
    only that span (parentheses and line breaks around it stay)."""
    found = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        if path.name in SKIPPED:
            continue
        source = path.read_bytes()
        starts = [0]
        for line in source.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        for op, left, right in _operator_gaps(ast.parse(source)):
            start = starts[left.end_lineno - 1] + left.end_col_offset
            end = starts[right.lineno - 1] + right.col_offset
            old, new = SWAPS[op]
            gap = source[start:end].decode()
            if gap.strip(PADDING) == old:  # an operator with a comment beside it is skipped
                found.append((path.name, left.end_lineno, start, end, gap,
                              gap.replace(old, new, 1)))
    return found


def only_filter(spec: str):
    """A site filter from FILE or FILE:FIRST-LAST (lines, inclusive)."""
    name, _, lines = spec.partition(":")
    first, _, last = lines.partition("-")
    try:
        low, high = (int(first), int(last)) if lines else (1, float("inf"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{spec!r}: lines must be FIRST-LAST") from None
    return lambda site: site[0] == name and low <= site[1] <= high


def run_suite(copy: Path) -> tuple[bool, str]:
    """Whether the suite passes on the copy, and the tail of its output."""
    # no bytecode cache: a swap that keeps the file's size, written within
    # the second, would otherwise run the cached unmutated module
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, *SUITE], cwd=copy, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    return proc.returncode == 0, "\n".join(proc.stdout.splitlines()[-15:])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("count", type=int)
    parser.add_argument("--only", type=only_filter, action="append", default=[],
                        metavar="FILE[:FIRST-LAST]",
                        help="sample only sites of this file (and line range); repeatable")
    args = parser.parse_args(argv)
    everything = [site for site in sites(ROOT)
                  if not args.only or any(keep(site) for keep in args.only)]
    chosen = random.Random(args.seed).sample(everything, min(args.count, len(everything)))
    print(f"{len(everything)} sites; seed {args.seed}, {len(chosen)} mutants")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, copy / name)
        passed, tail = run_suite(copy)
        if not passed:
            print(f"the unmutated suite fails; no mutant can be judged\n{tail}")
            return 1
        survivors = 0
        for filename, line, start, end, old, new in chosen:
            path = copy / PACKAGE / filename
            original = path.read_bytes()
            path.write_bytes(original[:start] + new.encode() + original[end:])
            try:
                survived, _ = run_suite(copy)
            finally:
                path.write_bytes(original)
            survivors += survived
            text = original.splitlines()[line - 1].decode().strip()
            print(f"{'SURVIVED' if survived else 'killed  '} {filename}:{line}: "
                  f"{old.strip(PADDING)!r} -> {new.strip(PADDING)!r} in `{text}`",
                  flush=True)
    print(f"killed {len(chosen) - survivors} of {len(chosen)}; {survivors} survived")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
