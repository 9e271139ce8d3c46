"""Count the lines of each module of a tree's `src/qarm`: all of them, as
`wc -l` does, and the lines of code, those left without docstrings,
comments and blank lines.

    python3 tools/code_lines.py [TREE]

TREE is a checkout (default: this one).  A line counts as code when some
token other than a comment starts or runs on it, outside a docstring: the
string that opens a module, class or function body.  A string that spans
lines counts each of its lines.  Standard library only.
"""
from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


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


def count(source: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docs)


def main(argv: list[str]) -> int:
    root = os.path.join(argv[0] if argv else HERE, "src", "qarm")
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            lines, code = count(fh.read())
        total_lines += lines
        total_code += code
        print(f"{name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
