"""Closed-loop, single-client load generator for clutterlab.cli.main.

One run serves one workload in one interpreter:

1. set-up: import the package afresh, generate the seeded inputs,
   write their files, run one untimed warm-up job.  The first set-up
   makes the inputs used; more run between the first passes, at least
   SETUP_REPS in all and until SETUP_MIN_S of set-up time is spent, so
   the reported median rests on many samples from the whole run.  Each
   writes the same files over again: creating ~100 files in a new
   directory took from 3 to 68 ms on the machine described below, and
   rewriting them in place was far steadier;
2. timed round-robin passes over the fixed job list, each job called
   in-process with stdout captured, until the time budget is spent
   (at least MIN_PASSES);
3. with tracing off, peak RSS, and fresh `python -m clutterlab.cli`
   runs on the smallest input, COLD_STARTS_PER_PASS after each pass
   (at least COLD_STARTS), each between two bare `python -c pass`
   starts; with tracing on, the passes are split between an untraced
   series and a series under tracing.Tracer;
4. only then, every captured report is checked (workloads.check).

Timing.  A job's wall time is the best of its samples.  The machine
this was built on (2 vCPUs shared with other tenants) runs the same
code up to 1.8x slower in phases lasting seconds to tens of seconds,
so best-of-R wall times still spread by ~20% between runs.  Every job
sample is therefore also divided by the time of reference_kernel, a
fixed pure-Python task run right before and right after it (the
faster of the two counts); phases slow both alike, so the ratio holds
still.  The gated end-to-end timings are medians of these ratios, in
"ref" units (one reference-kernel time, ~1 ms on that machine).  Cold
starts are measured the same way against a bare interpreter start.
setup_s, which must be in seconds, is the median set-up ratio times
REF_NOMINAL_S: set-up time at the kernel's nominal speed.  The raw
wall-clock figures are printed beside them.

The last stdout line is the JSON result; the lines before it repeat
every metric by name with its unit.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from clutterlab import cli

import workloads
from tracing import Tracer

SETUP_REPS = 5
SETUP_MIN_S = 1.0  # total set-up time to sample: ~20 set-ups when one takes 50 ms
MIN_PASSES = 6
MIN_TRACE_PASSES = 3
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run, for the overhead baseline
COLD_STARTS = 12
COLD_STARTS_PER_PASS = 2
COLD_START_LIMIT_S = 60
JOB_TIME_LIMIT_S = 5.0
RUNS_DIR = ".perfbench_runs"
REF_NOMINAL_S = 1e-3  # reference_kernel's time in a quiet phase on a 2-vCPU Xeon VM

# name, unit, better; the gated metrics of BENCHMARK.json
END_TO_END = [
    ("service_jobs_per_kref", "1/kref", "higher"),
    ("job_p50_ref", "ref", "lower"),
    ("job_p90_ref", "ref", "lower"),
    ("cold_start_vs_bare", "ratio", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# Raw wall-clock counterparts, printed but not gated.
WALL_CLOCK = [
    ("service_jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("cold_start_ms", "ms"),
    ("bare_start_ms", "ms"),
    ("ref_kernel_ms", "ms"),
    ("setup_wall_s", "s"),
]

MACAULAY_ENTRY = ("macaulay.lambda_max", "macaulay.extremal_lambda_profile",
                  "macaulay.complete_lambda", "macaulay.validate_lambda",
                  "macaulay.lsequence_from_lambda")
FORMULAS = ("invariants.delta_from_multiset", "invariants.f_vector_from_multiset",
            "invariants.h_vector_from_multiset", "invariants.betti_from_multiset")

# name, unit, better, source: span keys whose durations are summed (a
# tuple) or a counter key (a string) of tracing.Tracer; None marks values
# computed in layer_metrics.
PER_LAYER = [
    ("chordality.search_s", "s", "lower", ("chordality.find_simplicial_order",)),
    ("chordality.states_expanded", "calls", "lower", "clutter.neighborhood_map"),
    ("chordality.order_steps", "count", "lower", "chordality.order_steps"),
    ("clutter.clique_tests", "calls", "lower", "clutter.mask_is_clique"),
    ("clutter.verts_of_calls", "calls", "lower", "clutter.verts_of"),
    ("homology.oracle_s", "s", "lower", ("homology.hochster_betti",)),
    ("homology.faces_s", "s", "lower", ("homology.clique_complex_faces",)),
    ("homology.rank_s", "s", "lower", ("homology.reduced_homology_ranks",)),
    ("homology.subsets_visited", "calls", "lower", "homology.clique_complex_faces"),
    ("homology.subsets_ranked", "calls", "lower", "homology.reduced_homology_ranks"),
    ("homology.cone_pruned_ratio", "ratio", "higher", None),
    ("homology.rank_calls", "calls", "lower", "homology.integer_matrix_rank"),
    ("homology.matrix_cells", "count", "lower", "homology.matrix_cells"),
    ("invariants.f_direct_s", "s", "lower", ("invariants.f_vector_direct",)),
    ("invariants.faces_counted", "count", "lower", "invariants.faces_counted"),
    ("invariants.formula_s", "s", "lower", FORMULAS),
    ("macaulay.lambda_s", "s", "lower", MACAULAY_ENTRY),
    ("macaulay.alpha_s", "s", "lower", ("macaulay.alpha_sequence",)),
    ("macaulay.alpha_calls", "calls", "lower", "macaulay.alpha_sequence"),
    ("macaulay.representation_calls", "calls", "lower",
     "macaulay.macaulay_representation"),
    ("polynomials.mul_calls", "calls", "lower", "polynomials.mul_calls"),
    ("polynomials.mul_coeff_ops", "count", "lower", "polynomials.mul_coeff_ops"),
    ("io.parse_s", "s", "lower", ("io.parse_clutter_file",)),
    ("io.circuits_parsed", "count", "lower", "io.circuits_parsed"),
    ("cli.self_s", "s", "lower", None),
    ("trace.overhead_ratio", "ratio", "lower", None),
    ("ref.networkx_is_chordal_s", "s", "lower", None),
]


_REF_RNG = random.Random(0)
_REF_MASKS = tuple(_REF_RNG.getrandbits(30) for _ in range(150))


def reference_kernel() -> float:
    """Seconds taken by one run of a fixed pure-Python task (~1 ms).

    It uses the interpreter as the program does (integer bit tricks,
    dict, set and frozenset building, sorting, str formatting), touches
    nothing of clutterlab, and must never change: it is the yardstick
    the gated timings are measured in.
    """
    start = perf_counter()
    nbrs: dict[int, int] = {}
    for m in _REF_MASKS:
        rest = m
        while rest:
            low = rest & -rest
            nbrs[m ^ low] = nbrs.get(m ^ low, 0) | low
            rest ^= low
    kept = frozenset(sorted(nbrs, key=lambda x: (x.bit_count(), x))[:100])
    str(list(kept))
    return perf_counter() - start


@dataclass
class Series:
    """Wall times of one job's samples, and each over its reference time."""

    times: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)

    def add(self, elapsed: float, ref_before: float, ref_after: float) -> None:
        self.times.append(elapsed)
        self.ratios.append(elapsed / min(ref_before, ref_after))

    @property
    def best(self) -> float:
        return min(self.times)

    @property
    def ref(self) -> float:
        return statistics.median(self.ratios)


@dataclass
class Record:
    """Samples of one job: untraced and traced series, the outcome, the best trace."""

    plain: Series = field(default_factory=Series)
    traced: Series = field(default_factory=Series)
    outcome: tuple | None = None  # (exit code, stdout) of the first sample
    stable: bool = True
    best_trace: tuple | None = None  # (spans, counts) of the fastest traced sample

    def observe(self, code, stdout: str) -> None:
        if self.outcome is None:
            self.outcome = (code, stdout)
        elif self.outcome != (code, stdout):
            self.stable = False


def run_job(job: workloads.Job) -> tuple[float, object, str]:
    """One in-process CLI call: (seconds, exit code or exception, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(job.argv)
        except Exception as exc:  # a crashing job is a failed job, not a failed run
            code = f"raised {exc!r}"
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


def timed_passes(jobs, records, seconds: float, min_passes: int,
                 tracer: Tracer | None = None, after_pass=None) -> int:
    """Round-robin whole passes until the next one would overrun `seconds`."""
    deadline = perf_counter() + seconds
    passes, last = 0, 0.0
    while passes < min_passes or perf_counter() + last <= deadline:
        begin = perf_counter()
        gc.collect()
        ref_before = reference_kernel()
        for job, rec in zip(jobs, records):
            if tracer is not None:
                tracer.begin_job(job.id)
            elapsed, code, stdout = run_job(job)
            ref_after = reference_kernel()
            rec.observe(code, stdout)
            if tracer is None:
                rec.plain.add(elapsed, ref_before, ref_after)
            else:
                if not rec.traced.times or elapsed < rec.traced.best:
                    rec.best_trace = (tracer.spans, tracer.counts)
                rec.traced.add(elapsed, ref_before, ref_after)
            ref_before = ref_after
        if after_pass is not None:
            after_pass()
        passes += 1
        last = perf_counter() - begin
    return passes


def _clutterlab_modules() -> dict:
    return {key: mod for key, mod in sys.modules.items()
            if key == "clutterlab" or key.startswith("clutterlab.")}


def fresh_import() -> None:
    """Import the clutterlab package afresh, then put the first modules back.

    The run keeps using (and tracing) the modules it loaded at start;
    this only repeats the import's cost inside each set-up.
    """
    loaded = _clutterlab_modules()
    for key in loaded:
        del sys.modules[key]
    try:
        importlib.import_module("clutterlab")
    finally:
        for key in _clutterlab_modules():
            del sys.modules[key]
        sys.modules.update(loaded)


def set_up(name: str, seed: int, workdir: Path, small: bool,
           series: Series) -> workloads.Workload:
    """One set-up (import, inputs, files, warm-up job), timed into series."""
    ref_before = reference_kernel()
    start = perf_counter()
    fresh_import()
    workload = workloads.build(name, seed, workdir, small)
    run_job(workload.jobs[0])  # warm-up, untimed
    series.add(perf_counter() - start, ref_before, reference_kernel())
    return workload


class ColdStarts:
    """Fresh `python -m clutterlab.cli` runs of one job, between bare starts.

    Each run is timed against the faster of the bare `python -c pass`
    starts just before and just after it, as job samples are against
    the reference kernel.
    """

    BARE = ["-c", "pass"]

    def __init__(self, job: workloads.Job, root: Path):
        self.job, self.root = job, root
        self.argv = ["-m", "clutterlab.cli", *job.argv]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), self.env.get("PYTHONPATH")) if p)
        self.series = Series()
        self.bare: list[float] = []
        self.codes: list[int] = []

    def _spawn(self, args: list[str]) -> tuple[float, int]:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout) polls with growing sleeps,
        # which would round every sample up to its next poll.
        guard = threading.Timer(COLD_START_LIMIT_S, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        return perf_counter() - start, code

    def sample(self, count: int) -> None:
        """bare, then count times (cold start, bare)."""
        before = self._spawn(self.BARE)[0]
        self.bare.append(before)
        for _ in range(count):
            elapsed, code = self._spawn(self.argv)
            after = self._spawn(self.BARE)[0]
            self.series.add(elapsed, before, after)
            self.codes.append(code)
            self.bare.append(after)
            before = after

    def all_exits_right(self) -> bool:
        return all(code == workloads.expected_code(self.job) for code in self.codes)


def networkx_reference(jobs, records, failures: dict) -> float:
    """Time networkx.is_chordal on every d = 2 input; disagreements fail."""
    try:
        import networkx as nx
    except ImportError:
        for job in jobs:
            if job.d == 2:
                failures.setdefault(job.id, "networkx is not installed: no d = 2 cross-check")
        return 0.0
    total = 0.0
    for job, rec in zip(jobs, records):
        if job.d != 2 or job.id in failures:
            continue
        graph = nx.Graph()
        graph.add_nodes_from(range(1, job.n + 1))
        graph.add_edges_from(job.circuits)
        start = perf_counter()
        answer = nx.is_chordal(graph)
        total += perf_counter() - start
        if json.loads(rec.outcome[1]).get("chordal") is not answer:
            failures[job.id] = "networkx.is_chordal disagrees"
    return total


def check_all(jobs, records) -> dict[str, str]:
    """job id -> reason, for every job whose samples are not all right."""
    failures = {}
    for job, rec in zip(jobs, records):
        if not rec.stable:
            failures[job.id] = "report or exit code differs between samples"
        elif max(rec.plain.times + rec.traced.times) > JOB_TIME_LIMIT_S:
            failures[job.id] = f"a sample took over {JOB_TIME_LIMIT_S} s"
        else:
            reason = workloads.check(job, *rec.outcome)
            if reason:
                failures[job.id] = reason
    return failures


def layer_metrics(records) -> dict[str, float]:
    """Per-layer totals over jobs, each from the job's fastest traced sample."""
    span_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    cli_self = 0.0
    for rec in records:
        spans, job_counts = rec.best_trace
        for key, value in job_counts.items():
            counts[key] = counts.get(key, 0) + value
        covered = [0.0] * len(spans)
        for key, start, end, parent, _job in spans:
            span_s[key] = span_s.get(key, 0.0) + end - start
            if parent >= 0:
                covered[parent] += end - start
        cli_self += sum(end - start - covered[i]
                        for i, (key, start, end, _p, _j) in enumerate(spans)
                        if key == "cli.main")
    out = {}
    for name, _unit, _better, source in PER_LAYER:
        if isinstance(source, tuple):
            out[name] = sum(span_s.get(s, 0.0) for s in source)
        elif isinstance(source, str):
            out[name] = counts[source]
    visited = counts["homology.clique_complex_faces"]
    ranked = counts["homology.reduced_homology_ranks"]
    out["homology.cone_pruned_ratio"] = (visited - ranked) / visited if visited else 0.0
    out["cli.self_s"] = cli_self
    return out


def write_spans(path: Path, name: str, seed: int, jobs, records) -> None:
    """Gzipped JSON: per job, [name, start_us, end_us, parent] from its root span."""
    spans = {}
    for job, rec in zip(jobs, records):
        trace = rec.best_trace[0]
        origin = trace[0][1] if trace else 0.0
        spans[job.id] = [[key, round((start - origin) * 1e6), round((end - origin) * 1e6),
                          parent] for key, start, end, parent, _job in trace]
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed,
                   "fields": ["name", "start_us", "end_us", "parent"], "spans": spans},
                  fh, separators=(",", ":"))


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            small: bool = False, corrupt=None) -> dict:
    """Run one workload end to end and return the result object.

    corrupt, when given, is called with the built workload before the
    timed passes, so the smoke test can plant a wrong expected answer.
    """
    base = root / RUNS_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    try:
        setup = Series()
        workload = set_up(name, seed, base, small, setup)
        if corrupt is not None:
            corrupt(workload)
        jobs = workload.jobs
        records = [Record() for _ in jobs]
        metrics: dict[str, float] = {}
        if trace:
            passes = timed_passes(jobs, records, seconds * UNTRACED_SHARE,
                                  MIN_TRACE_PASSES)
            with Tracer() as tracer:
                passes += timed_passes(jobs, records, seconds * (1 - UNTRACED_SHARE),
                                       MIN_TRACE_PASSES, tracer)
            metrics.update(layer_metrics(records))
            metrics["trace.overhead_ratio"] = (sum(r.traced.ref for r in records)
                                               / sum(r.plain.ref for r in records))
        else:
            smallest = min(jobs, key=lambda j: (len(j.circuits), len(" ".join(j.argv))))
            cold = ColdStarts(smallest, root)

            def set_ups_left() -> bool:
                return len(setup.times) < SETUP_REPS or sum(setup.times) < SETUP_MIN_S

            def between_passes():
                # Set-ups take at most about a MIN_PASSES-th of SETUP_MIN_S
                # per pass, one at least, so they spread over the run.
                cold.sample(COLD_STARTS_PER_PASS)
                spent = 0.0
                while set_ups_left() and spent < SETUP_MIN_S / MIN_PASSES:
                    set_up(name, seed, base, small, setup)
                    spent += setup.times[-1]

            passes = timed_passes(jobs, records, seconds, MIN_PASSES,
                                  after_pass=between_passes)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            while len(cold.codes) < COLD_STARTS or set_ups_left():
                between_passes()

        failures = check_all(jobs, records)
        if trace:
            metrics["ref.networkx_is_chordal_s"] = networkx_reference(jobs, records, failures)
            write_spans(root / RUNS_DIR / f"spans-{name}-seed{seed}.json.gz",
                        name, seed, jobs, records)
        elif not cold.all_exits_right():
            failures.setdefault(smallest.id, "a fresh-interpreter run gave a wrong exit code")
        planted_failures = {}
        for job in workload.planted:
            _elapsed, code, stdout = run_job(job)
            reason = workloads.check(job, code, stdout)
            if reason:
                planted_failures[job.id] = reason
    finally:
        shutil.rmtree(base, ignore_errors=True)

    wall = {}
    if not trace:
        ref = [r.plain.ref for r in records]
        best = [r.plain.best for r in records]
        metrics.update({
            "service_jobs_per_kref": 1000 * len(ref) / sum(ref),
            "job_p50_ref": statistics.median(ref),
            "job_p90_ref": statistics.quantiles(ref, n=10)[8],
            "cold_start_vs_bare": cold.series.ref,
            "ok_frac": 1 - len(failures) / len(jobs),
            "setup_s": setup.ref * REF_NOMINAL_S,
        })
        wall = {
            "service_jobs_per_s": len(best) / sum(best),
            "job_p50_ms": statistics.median(best) * 1000,
            "job_p90_ms": statistics.quantiles(best, n=10)[8] * 1000,
            "cold_start_ms": cold.series.best * 1000,
            "bare_start_ms": min(cold.bare) * 1000,
            "ref_kernel_ms": 1000 * statistics.median(
                t / q for r in records for t, q in zip(r.plain.times, r.plain.ratios)),
            "setup_wall_s": statistics.median(setup.times),
        }
    table = PER_LAYER if trace else END_TO_END
    return {
        "workload": name, "seed": seed, "trace": trace, "jobs": len(jobs),
        "passes": passes, "failures": failures, "planted": len(workload.planted),
        "planted_failures": planted_failures,
        "metrics": {m: {"value": metrics[m], "unit": unit}
                    for m, unit, *_ in table},
        "wall_clock": {m: {"value": wall[m], "unit": unit}
                       for m, unit in WALL_CLOCK if m in wall},
    }


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON object, on stdout."""
    jobs, failed = result["jobs"], len(result["failures"])
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])}: {jobs} jobs x {result['passes']} passes, "
          "closed loop, 1 client")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    for name, m in result["wall_clock"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}  (wall clock, not gated)")
    print(f"  {'failed_frac':<32} {failed / jobs:>14.6g} ratio ({failed} of {jobs} jobs)")
    if result["planted"]:
        pf = len(result["planted_failures"])
        print(f"  {'planted_failed_frac':<32} {pf / result['planted']:>14.6g} ratio "
              f"({pf} of {result['planted']} planted n=13 --verify jobs; known defect)")
    for job_id, reason in result["failures"].items():
        print(f"  FAILED {job_id}: {reason}")
    for job_id, reason in result["planted_failures"].items():
        print(f"  KNOWN DEFECT {job_id}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": jobs,
        "failed": failed,
        "metrics": result["metrics"],
    }))
