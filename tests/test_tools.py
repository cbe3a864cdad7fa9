"""The repository's own tools: the code-line counter."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

#: 10 code lines: a docstring of a module, class, function or coroutine
#: is not code, a comment or blank line is not, and a string that is not
#: a body's first statement counts every line it spans.
SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment

# a whole-line comment


class A:
    """Class docstring."""

    x = """a string
that is not a docstring"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)


async def g():
    \'\'\'Coroutine docstring.\'\'\'
    pass
    "a second statement, not a docstring"
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_a_known_module():
    assert load_tool().count_code_lines(SOURCE) == 10


def test_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert load_tool().main([str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["1", "b.py"], ["10", "pkg/a.py"], ["11", "total"]]


def test_defs_prints_each_top_level_function_and_class(tmp_path, capsys):
    # a decorator counts with its function; module-level code counts nowhere
    decorated = '\n\n@staticmethod\ndef h():\n    """Docstring."""\n    return 1\n'
    (tmp_path / "a.py").write_text(SOURCE + decorated)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert load_tool().main(["--defs", str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["6", "a.py:A"], ["3", "a.py:g"], ["3", "a.py:h"]]
