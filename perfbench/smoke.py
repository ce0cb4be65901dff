"""Smoke test of the benchmark itself, run from the repository root:

    python3 perfbench/smoke.py

On one or two jobs per family it checks that

* every workload emits every metric named in BENCHMARK.json, with its
  unit, with tracing off and on, and that all its jobs pass;
* a deliberately wrong expected answer is counted as a failure;
* without networkx, the traced run counts its d = 2 jobs as failed;
* in a directory without the program's sources the benchmark exits
  non-zero and prints no result.

It takes about 25 s and exits non-zero on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

SEED = 7


def measure(name: str, trace: bool, corrupt=None) -> dict:
    return harness.measure(name, SEED, 0, trace, run.ROOT, small=True,
                           corrupt=corrupt)


def check_metric_names(spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            result = measure(name, trace)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics {got} != {want}"
            assert not result["failures"], f"{name}: {result['failures']}"
            if name == "verify_invariants":
                assert result["planted"] > 0, "the planted n=13 jobs did not run"
            print(f"ok   {name} trace={int(trace)}: {len(got)} metrics")


def check_corrupted_answers_fail() -> None:
    wrong = {}

    def raise_lambda_max(workload):
        job = next(j for j in workload.jobs if "lambda_max" in j.expect)
        job.expect["lambda_max"] += 1
        wrong["lambda_arith"] = job.id

    def expect_not_chordal(workload):
        job = workload.jobs[0]
        job.expect["code"] = workloads.EXIT_FALSE
        wrong["chordal_check"] = job.id

    for name, corrupt in (("lambda_arith", raise_lambda_max),
                          ("chordal_check", expect_not_chordal)):
        result = measure(name, False, corrupt)
        assert list(result["failures"]) == [wrong[name]], result["failures"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            harness.report(result)
        last = json.loads(out.getvalue().splitlines()[-1])
        assert last["failed"] == 1 and last["correct"] is False, last
        print(f"ok   {name}: a wrong expected answer counts as 1 failure")


def check_missing_networkx_fails() -> None:
    saved = sys.modules.get("networkx")
    sys.modules["networkx"] = None  # makes `import networkx` raise ImportError
    try:
        result = measure("nonchordal_check", True)
    finally:
        if saved is None:
            del sys.modules["networkx"]
        else:
            sys.modules["networkx"] = saved
    assert result["failures"], "a traced run without networkx passed"
    print(f"ok   without networkx: {len(result['failures'])} d = 2 jobs fail")


def check_fails_without_sources() -> None:
    bare = run.ROOT / harness.RUNS_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "chordal_check",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "succeeded without the program's sources"
    assert not proc.stdout.strip(), f"printed a result: {proc.stdout!r}"
    print("ok   without ./src: exit", proc.returncode, "and no result")


if __name__ == "__main__":
    if not run.load_program():
        sys.exit(f"no clutterlab sources under {run.SRC}")
    import harness
    import workloads

    check_metric_names(json.loads((run.ROOT / "BENCHMARK.json").read_text()))
    check_corrupted_answers_fail()
    check_missing_networkx_fails()
    check_fails_without_sources()
    print("smoke test passed")
