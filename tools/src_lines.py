"""Line counts of a Python source tree: `wc -l` total and code lines.

A code line holds a token other than COMMENT, NL, NEWLINE, INDENT, DEDENT
or ENDMARKER, outside every module, class and function docstring. A token
that spans lines, such as a multi-line string, makes each of its lines a
code line. Blank lines, comment lines and docstring lines are not.

    python3 tools/src_lines.py [PATH]    # PATH defaults to src/rvredeem

prints `wc -l <total>` and `code <count>` for the `.py` files under PATH,
or for PATH itself when it is a file.

    python3 tools/src_lines.py --base REV [PATH]

prints both counts at git revision REV (read with `git show`, no checkout)
and in the working tree, for each `.py` file under PATH whose text differs
between the two, then for all of them: one `<path> wc -l A -> B, code
C -> D` line each, paths relative to the repository root, and a last line
starting `total`. A file missing on one side counts 0 there.
"""

from __future__ import annotations

import ast
import io
import subprocess
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


def _git(cwd: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout


def base_and_tree(root, rev: str) -> dict[str, tuple[str | None, str | None]]:
    """(text at `rev`, text in the working tree), None where absent, of each
    `.py` path under `root`, keyed by its path from the repository root."""
    root = Path(root).resolve()
    cwd = root if root.is_dir() else root.parent
    top = Path(_git(cwd, "rev-parse", "--show-toplevel").strip())
    rel = root.relative_to(top).as_posix()
    listed = _git(top, "ls-tree", "-r", "--name-only", rev, "--", rel).splitlines()
    base = {name: _git(top, "show", f"{rev}:{name}") for name in listed if name.endswith(".py")}
    paths = [root] if root.is_file() else root.rglob("*.py")
    tree = {path.relative_to(top).as_posix(): path.read_text(encoding="utf-8") for path in paths}
    return {name: (base.get(name), tree.get(name)) for name in sorted(base.keys() | tree.keys())}


def _counts(text: str | None) -> tuple[int, int]:
    return (0, 0) if text is None else count_source(text)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    rev = None
    if args[:1] == ["--base"]:
        if len(args) < 2:
            print("usage: src_lines.py [--base REV] [PATH]", file=sys.stderr)
            return 2
        rev, args = args[1], args[2:]
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "rvredeem"
    if rev is None:
        wc, code = count_tree(root)
        print(f"wc -l {wc}")
        print(f"code {code}")
        return 0
    totals = [0, 0, 0, 0]
    for name, (old, new) in base_and_tree(root, rev).items():
        counts = (*_counts(old), *_counts(new))
        totals = [t + c for t, c in zip(totals, counts)]
        if old != new:
            print(f"{name} wc -l {counts[0]} -> {counts[2]}, code {counts[1]} -> {counts[3]}")
    print(f"total wc -l {totals[0]} -> {totals[2]}, code {totals[1]} -> {totals[3]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
