"""Run the benchmark on many seeds and summarise how steady it is.

    python3 perfbench/steadiness.py --out FILE.json

For every workload of BENCHMARK.json it makes one untraced run of
run_seconds per seed (seeds 1..RUNS) and reports, for each end-to-end
metric, the median, the quartiles and the spread: the distance between
the quartiles as a share of the median (statistics.quantiles(values,
n=4)).  It then makes two traced runs on seed TRACE_SEED and records
whether every count-valued per-layer metric came out exactly the same.  Runs are made one at a time, each in a fresh
interpreter, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("calls", "count")
RUNS = 10
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results = [run_once(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        end_to_end = {}
        for metric, bound in bounds.items():
            stats = summarise([r["metrics"][metric]["value"] for r in results])
            stats["bound"] = bound
            end_to_end[metric] = stats
            print(f"{name:18} {metric:24} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bound})", flush=True)
        traced = [run_once(name, TRACE_SEED, seconds, 1) for _ in range(2)]
        counts = {m: [t["metrics"][m]["value"] for t in traced]
                  for m, v in traced[0]["metrics"].items() if v["unit"] in COUNT_UNITS}
        repeat = all(a == b for a, b in counts.values())
        print(f"{name:18} traced counters repeat exactly: {repeat}", flush=True)
        summary["workloads"][name] = {
            "failed": [r["failed"] for r in results],
            "correct": [r["correct"] for r in results],
            "end_to_end": end_to_end,
            "traced_counters_repeat": repeat,
            "traced": traced,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
