"""Print the code lines of each module of a package, and their total.

A code line is a line that is not blank, not only a comment and not part
of a docstring (the string that opens a module, class or function body).
Each line of a statement or expression that spans several lines counts.

    python scripts/code_lines.py [path]

`path` is a directory of modules, src/ontodesc by default, or one file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ontodesc"
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)  # the nodes a docstring can open
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            docstrings.update(range(docstring.lineno, docstring.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: code_lines.py [path]", file=sys.stderr)
        return 2
    path = Path(argv[0]) if argv else PACKAGE
    files = sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for file in files:
        lines = code_lines(file.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:6d}  {file.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
