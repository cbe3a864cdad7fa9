"""Count the code lines of a Python source tree, without docstrings, comments or blanks.

A line counts when it holds a token other than a comment, a line break
or an indentation change, and is not part of a module, class or
function docstring. A token that spans lines, such as a triple-quoted
string, counts every line it spans.

Usage: python tools/code_lines.py [--defs] [DIR]   (DIR defaults to src/bracelearn)

Prints one ``<count> <module>`` line per ``.py`` file under DIR, sorted by
path, and then ``<count> total``. With ``--defs`` it prints instead one
``<count> <module>:<name>`` line per top-level function or class, its
decorators included, in source order. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code.
_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}

_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.Module, *_DEFS)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> set[int]:
    """The line numbers of the code lines in the Python module text ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstring_lines(ast.parse(source))


def count_code_lines(source: str) -> int:
    """The number of code lines in the Python module text ``source``."""
    return len(code_lines(source))


def count_defs(source: str) -> list[tuple[str, int]]:
    """``(name, code lines)`` of each top-level function and class in ``source``."""
    lines = code_lines(source)
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, _DEFS):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            defs.append((node.name, len(lines.intersection(range(first, node.end_lineno + 1)))))
    return defs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of a Python source tree.")
    parser.add_argument("--defs", action="store_true",
                        help="one line per top-level function or class")
    parser.add_argument("dir", nargs="?", default="src/bracelearn")
    args = parser.parse_args(argv)
    root = Path(args.dir)
    rows = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        module = path.relative_to(root)
        if args.defs:
            rows += [(count, f"{module}:{name}") for name, count in count_defs(source)]
        else:
            rows.append((count_code_lines(source), str(module)))
    if not args.defs:
        rows.append((sum(count for count, _ in rows), "total"))
    for count, label in rows:
        print(f"{count:6d} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
