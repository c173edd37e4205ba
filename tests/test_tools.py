"""The repository's command-line tools."""

import importlib.util
from pathlib import Path

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
