"""Count the code lines of the twistlab package.

    python3 tools/code_lines.py [SRC]

Prints one JSON object: per module of SRC (default src/twistlab), the
physical lines that hold code, and their total.  Blank lines,
comment-only lines and docstrings (a string statement that opens a
module, class or function body) are left out; every other line that
holds a token counts, including the continuation lines of a statement
and of a string that is not a docstring.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of lines of Python source `text` that hold code."""
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else ROOT / "src" / "twistlab"
    modules = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py"))
    }
    print(json.dumps({"modules": modules, "total": sum(modules.values())},
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
