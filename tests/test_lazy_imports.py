"""Each command loads only the modules it runs, in a fresh interpreter.

`import clutterlab` loads no submodule; `check` loads none of the
invariant, homology and Macaulay modules, and `lambda` none of the
search and homology modules.  No well-formed command loads `argparse`
or `gettext`, and none loads `dataclasses` or `__future__` unless a
bare interpreter already has it; help and usage errors still go
through argparse.  A `check` that greedy decides loads no `heapq`.
Both entry paths are covered: the module run as `__main__` through
runpy, as `python -m clutterlab.cli` runs it, and `from clutterlab.cli
import main`, as the console script runs it.  Each child runs real
jobs, checks their exit codes and prints its sys.modules at exit.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

FILES = {
    "chordal.txt": "5 3\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n1 4 5\n",
    "cycle.txt": "4 2\n1 2\n2 3\n3 4\n1 4\n",
    # the octahedron: greedy gets stuck at once, and the driver decides
    "octahedron.txt": "6 3\n" + "".join(f"{a} {b} {c}\n" for a in (1, 2)
                                        for b in (3, 4) for c in (5, 6)),
}

# (argv, expected exit code) per command
JOBS = {
    "check": [(["check", "chordal.txt", "--json"], 0),
              (["check", "cycle.txt"], 1),
              (["check", "octahedron.txt", "--json"], 1)],
    "lambda": [(["lambda", "validate", "5", "3", "3,1", "--json"], 0),
               (["lambda", "validate", "5", "3", "9,9"], 1),
               (["lambda", "max", "8", "3", "2"], 0),
               (["lambda", "profile", "8", "3", "3", "--json"], 0),
               (["lambda", "complete", "8", "3"], 0)],
    "invariants": [(["invariants", "chordal.txt", "--verify", "--json"], 0),
                   (["invariants", "chordal.txt", "--h", "--max-states", "50"], 0),
                   (["invariants", "cycle.txt"], 1)],
}

NEEDED = {"check": {"chordality", "clutter", "guards", "io"},
          "lambda": {"macaulay", "clutter", "guards", "io"},
          "invariants": {"chordality", "homology", "invariants", "macaulay"}}

FORBIDDEN = {
    "check": {"homology", "invariants", "macaulay", "polynomials", "generators"},
    "lambda": {"chordality", "homology", "invariants", "generators"},
    "invariants": {"generators"},
}

# loaded by argparse, which only help, --version and usage errors need
ARGPARSE = {"argparse", "gettext"}


def _run(code: str, cwd: Path) -> list[str]:
    """The stdout lines of a fresh interpreter running code; the last one
    lists its sys.modules at exit."""
    script = ("import atexit, sys\n"
              "atexit.register(lambda: print(sorted(sys.modules)))\n" + code)
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("CLUTTERLAB_MAX_N", None)
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _modules(code: str, cwd: Path) -> set[str]:
    return set(ast.literal_eval(_run(code, cwd)[-1]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("lazy_imports")
    for name, text in FILES.items():
        (path / name).write_text(text)
    return path


@pytest.fixture(scope="module")
def bare(workdir) -> set[str]:
    return _modules("", workdir)


def _submodules(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("clutterlab.")}


def test_importing_the_package_loads_no_submodule(workdir):
    loaded = _modules("import clutterlab\nassert clutterlab.__version__", workdir)
    assert "clutterlab" in loaded
    assert _submodules(loaded) == set()


def _via_main(jobs) -> str:
    """Every job through the console script's entry point, in one process."""
    return ("from clutterlab.cli import main\n"
            f"for argv, code in {jobs!r}:\n"
            "    assert main(argv) == code, argv\n")


def _via_dash_m(jobs) -> str:
    """The first job as `python -m clutterlab.cli` runs it."""
    argv, code = jobs[0]
    return ("import runpy\n"
            f"sys.argv = ['clutterlab', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('clutterlab.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            f"    assert exc.code == {code}, exc.code\n"
            "else:\n"
            "    raise AssertionError('the module did not exit')\n")


@pytest.mark.parametrize("entry", [_via_main, _via_dash_m], ids=["main", "dash_m"])
@pytest.mark.parametrize("command", sorted(JOBS))
def test_a_command_loads_only_what_it_runs(command, entry, workdir, bare):
    loaded = _modules(entry(JOBS[command]), workdir)
    submodules = _submodules(loaded)
    assert NEEDED[command] <= submodules
    assert not submodules & FORBIDDEN[command], submodules & FORBIDDEN[command]
    assert not loaded & ARGPARSE, loaded & ARGPARSE
    for module in ("dataclasses", "__future__"):
        if module not in bare:
            assert module not in loaded, module


@pytest.mark.parametrize("entry", [_via_main, _via_dash_m], ids=["main", "dash_m"])
@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["check", "--help"], 0),
    (["check", "chordal.txt", "--bogus"], 64), (["lambda", "max", "8", "3"], 64),
    (["check", "chordal.txt", "--js"], 0),  # argparse's abbreviation of --json
])
def test_help_and_usage_errors_still_go_through_argparse(argv, code, entry, workdir):
    if entry is _via_main:
        # help exits through argparse, which the console script lets through
        script = ("from clutterlab.cli import main\n"
                  f"try:\n    sys.exit(main({argv!r}))\n"
                  f"except SystemExit as exc:\n    assert exc.code == {code}, exc.code\n")
    else:
        script = entry([(argv, code)])
    assert ARGPARSE <= _modules(script, workdir)


def test_a_check_greedy_decides_loads_no_heapq(workdir, bare):
    # greedy completes on chordal.txt, and d = 2 decides cycle.txt when
    # it gets stuck; only a stuck run for d >= 3 merges witnesses
    jobs = [(["check", "chordal.txt", "--json"], 0), (["check", "cycle.txt"], 1)]
    loaded = _modules(_via_main(jobs), workdir)
    assert "heapq" in bare or "heapq" not in loaded


def test_tracer_wrappers_survive_each_commands_first_load(workdir):
    # The tracer reads cli's library names before any command runs, which
    # binds them; a command's first load must not put the originals back.
    code = (f"sys.path.insert(0, {str(ROOT)!r})\n"
            "from perfbench.tracing import Tracer\n"
            "from clutterlab import cli\n"
            "with Tracer() as tracer:\n"
            "    for argv in (['check', 'chordal.txt'], ['invariants', 'chordal.txt'],\n"
            "                 ['lambda', 'complete', '8', '3']):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(tracer.counts)\n")
    counts = ast.literal_eval(_run(code, workdir)[-2])
    assert counts["cli.main"] == 3
    assert counts["chordality.find_simplicial_order"] == 2
    assert counts["invariants.f_vector_from_multiset"] == 1
    assert counts["macaulay.validate_lambda"] == 1
    assert counts["macaulay.complete_lambda"] == 1
