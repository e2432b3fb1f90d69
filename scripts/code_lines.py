"""Count code lines: non-blank, non-comment, non-docstring.

The simplicity ledger's yardstick -- a line counts when it carries at
least one token that is not a comment, a blank, or part of a docstring
(a string expression statement), so reformatting comments or prose
cannot move the number.

Usage::

    python scripts/code_lines.py src/repro/runtime src/repro
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    doc: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            doc.update(range(node.lineno, node.end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def main(argv: list[str]) -> int:
    for root in argv or ["src/repro"]:
        path = Path(root)
        files = [path] if path.is_file() else sorted(path.rglob("*.py"))
        total = sum(code_lines(p.read_text()) for p in files)
        print(f"{root}: {total} code lines in {len(files)} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
