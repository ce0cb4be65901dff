"""Count the code lines of Python sources: no docstrings, comments or blanks.

A line counts when it holds a token other than a comment and is not part
of a module, class or function docstring.  A line of a multi-line string
that is not a docstring counts, and so does each line of a statement
that spans several.  This is the count the change log reports per change
for src/clutterlab.

    python tests/code_lines.py src/clutterlab

prints one line per file and the total.  It has no test_ prefix, so
tier-1 does not collect it; tests/test_code_lines.py pins the definition.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for root in argv or ["src/clutterlab"]:
        paths = sorted(Path(root).rglob("*.py")) if Path(root).is_dir() else [Path(root)]
        for path in paths:
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
