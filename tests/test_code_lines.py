"""The code-line counter's definition, pinned on a small synthetic source."""

from __future__ import annotations

from code_lines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Thing:
    """Class docstring."""

    x = """a multi-line string
that is not a docstring"""

    def method(self):
        """Method docstring."""
        return (1 +
                2)


async def run():
    """Async docstring,

    with a blank line inside."""
    "a second string statement is code"


def empty():
    pass
'''


def test_code_lines_skips_docstrings_comments_and_blanks():
    # import, class, x (2 lines), def, return (2 lines), async def, the
    # second string, def, pass
    assert code_lines(SOURCE) == 11


def test_code_lines_of_nothing():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0
