"""Count the code lines of a package's Python files.

A code line holds part of a token that is not a comment: blank lines,
comment-only lines and the lines of a docstring (the string a module,
class or function opens with) are not counted, and a statement or
string that spans several lines counts each line it spans.

    python tests/code_lines.py src/stackseg

prints each file's count and then the total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that do not make a line code on their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The line numbers every docstring in ``source`` spans."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and \
                ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(root):
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return total


if __name__ == "__main__":
    main(sys.argv[1])
