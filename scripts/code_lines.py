"""Count the code lines of the qpgap package, module by module.

    python3 scripts/code_lines.py [--root CHECKOUT ...]

Counts the lines of every ``src/qpgap/*.py`` module of each checkout
(default: the one holding this script) that hold code: a line counts
when a token other than a comment or a docstring starts on it or a
multi-line string literal spans it.  Blank lines, comment-only lines
and module, class and function docstrings do not count.  Prints one row
per module and a total row, with one column per ``--root``; a module
missing from a checkout reads ``-``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count_modules(root: Path) -> dict[str, int]:
    """Code lines of each module under ``root/src/qpgap``, by file name."""
    return {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted((root / "src" / "qpgap").glob("*.py"))
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, action="append",
        help="checkout to count (repeatable; default: this script's)",
    )
    args = parser.parse_args(argv)
    roots = args.root or [Path(__file__).resolve().parent.parent]
    counts = [count_modules(root) for root in roots]
    modules = sorted(set().union(*counts))
    width = max(len(name) for name in [*modules, "src/qpgap"])
    print(f"{'module':<{width}}" + "".join(f"  {str(r):>10}" for r in roots))
    for name in modules:
        cells = "".join(f"  {c.get(name, '-'):>10}" for c in counts)
        print(f"{name:<{width}}{cells}")
    totals = "".join(f"  {sum(c.values()):>10}" for c in counts)
    print(f"{'src/qpgap':<{width}}{totals}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
