"""Count code lines per module of ``src/mlnexact``.

A code line is a non-blank line outside comments and docstrings. Lines of a
multi-line string that is not a docstring count as code. Run it from any
directory; it counts the package of the checkout it sits in:

    python3 tools/code_lines.py

Given another checkout, it prints that checkout's count (before), this one's
(after) and the delta, per module and in total; a module that one side lacks
counts 0 there:

    python3 tools/code_lines.py OTHER_CHECKOUT
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mlnexact"


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _string_lines(tree: ast.AST) -> set[int]:
    """Lines inside a string literal, where a leading '#' is not a comment."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Constant, ast.JoinedStr)) and node.end_lineno > node.lineno:
            lines.update(range(node.lineno + 1, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    tree = ast.parse(source)
    skip = _docstring_lines(tree)
    in_string = _string_lines(tree)
    count = 0
    for lineno, text in enumerate(source.splitlines(), start=1):
        stripped = text.strip()
        if not stripped or lineno in skip:
            continue
        if stripped.startswith("#") and lineno not in in_string:
            continue
        count += 1
    return count


def package_counts(package: Path) -> dict[str, int]:
    """Code lines of every module of a package directory, by file name."""
    return {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: code_lines.py [OTHER_CHECKOUT]", file=sys.stderr)
        return 2
    after = package_counts(PACKAGE)
    if not args:
        for name, n in after.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(after.values()):6d}  total")
        return 0
    other = Path(args[0]) / "src" / "mlnexact"
    if not other.is_dir():
        print(f"error: no package at {other}", file=sys.stderr)
        return 2
    before = package_counts(other)
    names = sorted(before.keys() | after.keys())
    rows = [(name, before.get(name, 0), after.get(name, 0)) for name in names]
    rows.append(("total", sum(before.values()), sum(after.values())))
    print(f"{'before':>6}  {'after':>6}  {'delta':>6}  module")
    for name, b, a in rows:
        print(f"{b:6d}  {a:6d}  {a - b:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
