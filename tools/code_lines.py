"""Count the code lines of the cishift package: no blanks, comments or docstrings.

A line counts when a token other than a comment or layout token (newline,
indent, dedent) starts on it or a multi-line token spans it, unless it lies
inside a docstring: the leading string statement of a module, class or
function, as ``ast`` finds it.  Prints one line per module and the total.

Usage: python3 tools/code_lines.py [PACKAGE_DIR]   (default: src/cishift)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/cishift")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,d}  {path.name}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
