"""The README's examples run, and print and return what the README shows.

The examples are read out of README.md itself: the clutter file in the
first text block, the `$ clutterlab ...` commands with the output lines
under them ("..." stands for lines the README leaves out), and the
library snippet with the value in each line's comment.
"""

from __future__ import annotations

import ast
import re
import shlex
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

from clutterlab import validate_lambda
from clutterlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def _block(lang: str, marker: str) -> str:
    (text,) = [body for tag, body in BLOCKS if tag == lang and marker in body]
    return text


def _examples() -> list[tuple[str, list[str]]]:
    """(command, output lines shown under it) for each `$ clutterlab` line."""
    examples: list[tuple[str, list[str]]] = []
    for line in _block("", "$ clutterlab").splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


EXAMPLES = _examples()


def test_readme_shows_every_command():
    assert [cmd.split()[:2] for cmd, _ in EXAMPLES] == [
        ["clutterlab", "check"], ["clutterlab", "invariants"],
        ["clutterlab", "lambda"], ["clutterlab", "lambda"],
        ["clutterlab", "generate"]]


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_cli_example(command, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CLUTTERLAB_MAX_N", raising=False)
    (tmp_path / "example.txt").write_text(_block("", "five circuits"))
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    if "..." in shown:
        # the shown lines appear in order, with gaps where "..." stands
        rest = iter(out)
        for line in shown:
            assert line == "..." or line in rest, line
    else:
        assert out == shown
    if "-o" in command:
        written = shlex.split(command)[-1]
        assert main(["check", written]) == 0


def test_library_snippet():
    snippet = _block("python", "from clutterlab import")
    ns: dict = {}
    exec(snippet, ns)
    prose = {
        'None would mean "not chordal"': lambda v: v is not None,
        "same f, counted face by face": lambda v: v == ns["f_vector_from_multiset"](5, 3, ns["ms"]),
        "same Betti, via homology": lambda v: v == ns["betti_from_multiset"](5, 3, ns["ms"]),
        "True: l-sequence (1, 1, 0)":
            lambda v: v is True and validate_lambda(5, 3, (4, 2)).l_sequence == (1, 1, 0),
    }
    checked = 0
    for line in snippet.splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code or not comment or code.startswith("from "):
            continue
        expr = code.split(" = ", 1)[-1]
        value = eval(expr, ns)
        if comment in prose:
            assert prose[comment](value), line
        else:
            assert value == eval(comment, {"Counter": Counter}), line
        checked += 1
    assert checked == 9


def test_star_import_binds_the_api_only():
    # The snippet's star import must not shadow the standard library's
    # io (or bind any other submodule, or the __future__ feature).
    ns: dict = {}
    exec("from clutterlab import *", ns)
    assert not [name for name, value in ns.items() if isinstance(value, ModuleType)]
    assert "annotations" not in ns
    snippet = ast.parse(_block("python", "from clutterlab import"))
    used = {node.id for node in ast.walk(snippet)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = {node.id for node in ast.walk(snippet)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert len(used - bound) >= 10
    assert used - bound <= ns.keys()
