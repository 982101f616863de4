"""`tools/code_lines.py`: code lines are those with a token that is not a
comment or part of a docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,

over three lines."""

import os  # a comment after code


# a comment line
def f(x):
    """A function docstring."""
    s = """a string that is
    not a docstring"""
    return (x,
            s)


class C:
    \'\'\'A class docstring.\'\'\'

    y = 1
'''


def test_docstrings_comments_and_blanks_are_not_code():
    # import, def, the two-line string, the two-line return, class and y
    assert _tool().code_lines(SOURCE) == 8


def test_the_total_is_the_sum_of_the_modules(capsys):
    _tool().main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total" and len(rows) > 5
    assert int(rows[-1][1]) == sum(int(n) for _, n in rows[:-1])
