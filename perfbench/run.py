"""Benchmark of the clutterlab command line, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: chordal_check, nonchordal_check, verify_invariants,
lambda_arith (see workloads.py and README.md).  With --trace 0 it
prints the end-to-end metrics, with --trace 1 the per-layer ones; the
last stdout line is always the JSON result.  It imports the program
from ./src and exits 2 without a result when the sources are missing.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program() -> bool:
    """Put ./src first on sys.path; False when the sources are missing."""
    if not (SRC / "clutterlab" / "__init__.py").is_file():
        return False
    # The oracle caps stay at their defaults: the program gets only argv and files.
    os.environ.pop("CLUTTERLAB_MAX_N", None)
    sys.path.insert(0, str(SRC))
    return True


def pin_to_current_cpu() -> None:
    """Keep this process, and the processes it starts, on the CPU it runs on.

    The reference kernel and the work it is compared with then share
    one CPU, whatever the other CPUs of a shared machine are doing.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            stat = fh.read()
        cpu = int(stat[stat.rindex(")") + 2:].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass  # not Linux, or not allowed: run unpinned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_program():
        print(f"perfbench: no clutterlab sources under {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    pin_to_current_cpu()
    result = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), ROOT)
    harness.report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
