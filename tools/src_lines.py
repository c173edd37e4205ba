"""Line counts of a Python source tree: `wc -l` total and code lines.

A code line holds a token other than COMMENT, NL, NEWLINE, INDENT, DEDENT
or ENDMARKER, outside every module, class and function docstring. A token
that spans lines, such as a multi-line string, makes each of its lines a
code line. Blank lines, comment lines and docstring lines are not.

    python3 tools/src_lines.py [PATH]    # PATH defaults to src/rvredeem

prints `wc -l <total>` and `code <count>` for the `.py` files under PATH,
or for PATH itself when it is a file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_source(source: str) -> tuple[int, int]:
    """(`wc -l` lines, code lines) of one Python source text."""
    docstrings = _docstring_starts(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def count_tree(root) -> tuple[int, int]:
    """Summed `count_source` over the `.py` files under `root`, or of the
    file `root`."""
    root = Path(root)
    paths = [root] if root.is_file() else root.rglob("*.py")
    totals = [count_source(path.read_text(encoding="utf-8")) for path in paths]
    return sum(t[0] for t in totals), sum(t[1] for t in totals)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "rvredeem"
    wc, code = count_tree(root)
    print(f"wc -l {wc}")
    print(f"code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
