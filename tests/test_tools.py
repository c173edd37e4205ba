"""The repository's command-line tools."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Code lines are marked "# code"; every other line is not one.
FIXTURE = '''"""Module docstring,
over two lines."""

import math  # code

# A comment line.


class Shape:  # code
    """Class docstring."""

    sides = 0  # code

    def area(self):  # code
        """Function docstring,

        with a blank line inside.
        """
        return 0.0  # code


def text():  # code
    x = 1  # code
    """Not a docstring: a string statement after the first."""
    return """a string  # code
over two lines"""  # code


async def fetch():  # code
    r"""Raw docstring."""
    return (  # code
        1,  # code
    )  # code
'''


class TestSrcLines:
    def test_counts_the_fixture(self):
        tool = load_tool("src_lines")
        wc, code = tool.count_source(FIXTURE)
        assert wc == FIXTURE.count("\n") == 33
        # The string statement in text() is code: it is no docstring.
        assert code == sum("# code" in line for line in FIXTURE.splitlines()) + 1 == 14

    def test_tree_sums_its_python_files(self, tmp_path, capsys):
        tool = load_tool("src_lines")
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
        (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n', encoding="utf-8")
        (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
        assert tool.count_tree(tmp_path) == (33 + 3, 14 + 1)
        assert tool.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == "wc -l 36\ncode 15\n"

    def test_file_path_counts_that_file(self, tmp_path, capsys):
        tool = load_tool("src_lines")
        (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
        assert tool.count_tree(tmp_path / "a.py") == (33, 14)
        assert tool.main([str(tmp_path / "a.py")]) == 0
        assert capsys.readouterr().out == "wc -l 33\ncode 14\n"

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_base_compares_changed_files_and_the_total(self, tmp_path, capsys):
        tool = load_tool("src_lines")

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, check=True, capture_output=True, text=True,
            ).stdout

        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text(FIXTURE, encoding="utf-8")
        (pkg / "same.py").write_text("x = 1\n", encoding="utf-8")
        (pkg / "gone.py").write_text('"""Doc."""\ny = 2\n', encoding="utf-8")
        (tmp_path / "outside.py").write_text("z = 3\n", encoding="utf-8")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "base")
        # a.py loses `fetch` (5 lines, 4 of them code) and its blank lines,
        # gone.py is deleted, new.py is not yet added, and outside.py changes
        # outside PATH.
        shorter = FIXTURE[: FIXTURE.index("\n\n\nasync def")] + "\n"
        (pkg / "a.py").write_text(shorter, encoding="utf-8")
        (pkg / "gone.py").unlink()
        (pkg / "new.py").write_text("w = 4\n", encoding="utf-8")
        (tmp_path / "outside.py").write_text("z = 5\n", encoding="utf-8")
        status = git("status", "--porcelain")
        assert tool.main(["--base", "HEAD", str(pkg)]) == 0
        assert capsys.readouterr().out == (
            "src/pkg/a.py wc -l 33 -> 26, code 14 -> 10\n"
            "src/pkg/gone.py wc -l 2 -> 0, code 1 -> 0\n"
            "src/pkg/new.py wc -l 0 -> 1, code 0 -> 1\n"
            "total wc -l 36 -> 28, code 16 -> 12\n"
        )
        # The base is read, not checked out.
        assert git("status", "--porcelain") == status
        assert (pkg / "a.py").read_text(encoding="utf-8") == shorter
