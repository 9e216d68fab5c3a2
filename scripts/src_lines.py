"""Total and code lines of each module under ``src/``.

    python3 scripts/src_lines.py [ROOT]

A code line is a line that is neither blank, nor only a comment, nor part
of a docstring (the string that opens a module, class or function body).
Prints one line per module, ``total code path``, and the sums last.
ROOT defaults to the checkout holding this script.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """(total, code) lines of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT,
                        help="checkout whose src/ is counted (default: this one)")
    root = parser.parse_args(argv).root
    totals = [0, 0]
    for path in sorted((root / "src").rglob("*.py")):
        total, code = count_lines(path.read_text())
        totals[0] += total
        totals[1] += code
        print(f"{total:6d} {code:6d}  {path.relative_to(root)}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total")


if __name__ == "__main__":
    main()
