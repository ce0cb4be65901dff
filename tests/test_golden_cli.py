"""Golden CLI corpus: every pinned invocation keeps its exit code and output.

tests/golden/corpus.json maps each invocation below, shell-quoted with
any CLUTTERLAB_MAX_N setting in front, to its exit code and the SHA-256
digests of its stdout and stderr.  The input files are checked in under
tests/golden/inputs.  Each replay runs `cli.main` in-process from a
scratch directory holding a copy of them, so every path in the output
is relative and `generate -o` writes nowhere in the tree.

    PYTHONPATH=src python tests/test_golden_cli.py           # list entries that differ
    PYTHONPATH=src python tests/test_golden_cli.py --write   # rewrite corpus.json

A rewrite changes the pinned contract; say in the change log which
entries moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

from clutterlab.cli import main
from clutterlab.guards import ENV_VAR

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.json"


def invocations() -> list[tuple[str | None, list[str]]]:
    """(CLUTTERLAB_MAX_N value or None, argv) for every pinned run.

    Inputs are grouped by name: c_* chordal, n_* not chordal, b_* malformed.
    """
    names = sorted(p.name for p in (GOLDEN / "inputs").iterdir())
    files = {kind: ["inputs/" + s for s in names if s.startswith(kind + "_")]
             for kind in "cnb"}
    runs: list[list[str]] = []
    for f in files["c"]:
        runs += [["check", f], ["check", f, "--json"], ["invariants", f, "--json"],
                 ["invariants", f, "--verify"]]
    for f in files["c"][::3]:
        runs += [["invariants", f], ["invariants", f, "--verify", "--json"]]
    for f in ("inputs/c_example.txt", "inputs/c_rand_8_3.txt", "inputs/c_k43.txt",
              "inputs/c_empty_1_3.txt"):
        runs += [["invariants", f, *flags] for flags in (
            ["--f"], ["--h"], ["--betti"], ["--f", "--h"], ["--betti", "--json"],
            ["--h", "--verify"], ["--f", "--betti", "--verify", "--json"])]
    for f in ("inputs/c_example.txt", "inputs/c_rand_9_4.json", "inputs/c_path6.txt"):
        for budget in ("0", "1", "1000"):
            runs += [["check", f, "--max-states", budget],
                     ["invariants", f, "--json", "--max-states", budget]]
    for f in files["n"]:
        runs += [["check", f], ["check", f, "--json"], ["invariants", f],
                 ["check", f, "--max-states", "0"], ["check", f, "--max-states", "1"],
                 ["invariants", f, "--json", "--max-states", "5"]]
    for f in files["b"] + ["inputs/missing.txt", "inputs"]:
        runs += [["check", f], ["invariants", f, "--json"]]
    for mode, args in (("max", ["6", "3", "1"]), ("max", ["6", "3", "2"]),
                       ("max", ["10", "4", "3"]), ("max", ["60", "5", "7"]),
                       ("max", ["6", "3", "0"]), ("max", ["3", "5", "1"]),
                       ("profile", ["6", "3", "1"]), ("profile", ["8", "3", "4"]),
                       ("profile", ["10", "4", "2"]), ("profile", ["6", "3", "9"]),
                       ("complete", ["6", "3"]), ("complete", ["10", "4"]),
                       ("complete", ["5", "5"]), ("complete", ["400", "4"]),
                       ("complete", ["3", "5"]), ("complete", ["6", "0"]),
                       ("validate", ["5", "3", "4,2"]), ("validate", ["5", "3", "9"]),
                       ("validate", ["6", "3", "4,3,2,1"]), ("validate", ["6", "3", ""]),
                       ("validate", ["6", "3", "a,b"]), ("validate", ["60", "4", "3,3,3"])):
        runs += [["lambda", mode, *args], ["lambda", mode, *args, "--json"]]
    runs += [["lambda", "max", "1000000", "500000", "3"],
             ["lambda", "profile", "200000", "100000", "50"],
             ["lambda", "complete", "100000", "50000"],
             ["lambda", "validate", "100000", "50000", "1"],
             ["lambda", "complete", "3000000", "3"],
             ["lambda", "validate", "3000000", "3", "1"]]
    for args in (["complete", "5", "3"], ["complete", "6", "2"], ["complete", "4", "6"],
                 ["extremal", "6", "3", "2"], ["extremal", "7", "3", "1"],
                 ["extremal", "6", "3", "0"], ["extremal", "6", "3", "99"],
                 ["complete", "5", "-1"], ["complete", "60", "6"],
                 ["extremal", "60", "6", "1"]):
        runs += [["generate", *args], ["generate", *args, "--json"]]
    runs += [["generate", "extremal", "6", "3", "2", "-o", "ext.txt"],
             ["generate", "complete", "5", "3", "--json", "--output", "k53.json"],
             ["generate", "complete", "5", "3", "-o", "missing/x.txt"],
             ["generate", "complete", "5", "3", "-o", "inputs"]]
    runs += [[], ["--version"], ["check"], ["lambda"], ["generate", "complete", "5"],
             ["lambda", "max", "6", "3"], ["lambda", "max", "x", "3", "1"],
             ["check", "inputs/c_example.txt", "--bogus"],
             ["check", "inputs/c_example.txt", "--max-states", "-1"],
             ["invariants", "inputs/c_example.txt", "--max-states", "abc"]]
    pinned: list[tuple[str | None, list[str]]] = [(None, argv) for argv in runs]
    for cap in ("abc", "5", "13"):
        pinned += [(cap, ["invariants", f, "--verify", "--json"])
                   for f in ("inputs/c_example.txt", "inputs/c_path13.txt")]
    return pinned


def key(cap: str | None, argv: list[str]) -> str:
    return (f"{ENV_VAR}={cap} " if cap is not None else "") + shlex.join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(cap: str | None, argv: list[str]) -> list:
    """[exit code, sha256(stdout), sha256(stderr)] of one in-process run."""
    saved = os.environ.pop(ENV_VAR, None)
    if cap is not None:
        os.environ[ENV_VAR] = cap
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --version exits through argparse
                code = exc.code
    finally:
        os.environ.pop(ENV_VAR, None)
        if saved is not None:
            os.environ[ENV_VAR] = saved
    return [code, digest(out.getvalue()), digest(err.getvalue())]


def replay(workdir: Path, order=list) -> dict[str, list]:
    """Every invocation's outcome, run in the given order from a copy of
    the inputs in workdir."""
    shutil.copytree(GOLDEN / "inputs", workdir / "inputs")
    home = os.getcwd()
    os.chdir(workdir)
    try:
        return {key(cap, argv): run(cap, argv) for cap, argv in order(invocations())}
    finally:
        os.chdir(home)


def test_corpus_replays(tmp_path):
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = replay(tmp_path)
    assert list(got) == list(expected)
    assert [k for k in got if got[k] != expected[k]] == []


def test_corpus_replays_in_reverse(tmp_path):
    """One process, one parser, the opposite call order: same outcomes."""
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = replay(tmp_path, order=reversed)
    assert sorted(got) == sorted(expected)
    assert [k for k in got if got[k] != expected[k]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = replay(Path(tmp))
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else {}
    for k in sorted(fresh.keys() | old.keys()):
        if fresh.get(k) != old.get(k):
            print(("changed: " if k in fresh and k in old
                   else "added: " if k in fresh else "removed: ") + k)
    if "--write" in sys.argv[1:]:
        lines = (f" {json.dumps(k)}: {json.dumps(v)}" for k, v in fresh.items())
        CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"wrote {len(fresh)} entries to {CORPUS}")
