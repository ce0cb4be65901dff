"""Seeded job lists for the benchmark workloads, with their expected answers.

Every input is made from the workload seed, either by
clutterlab.generators or by the explicit constructions below, and is
written to a file with this module's own serialiser.  The program under
test sees only those files and its argv.  Each job carries the answer
implied by how its input was built; `check` compares a captured report
with it, and is only ever called after the timed passes.

The mixes are sized so that one round-robin pass over a job list takes a
few seconds on a 2-core machine, with at least 100 jobs per workload so
that ten or more lie beyond the p90.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from clutterlab.chordality import replay_order
from clutterlab.clutter import complete_clutter
from clutterlab.generators import random_chordal_clutter
from clutterlab.io import parse_clutter_file

WORKLOADS = ("chordal_check", "nonchordal_check", "verify_invariants",
             "lambda_arith")

EXIT_OK, EXIT_FALSE = 0, 1


@dataclass
class Job:
    """One CLI invocation and what its report must say.

    kind selects the check: chordal, nonchordal, verify, planted or
    lambda.  circuits/n/d describe the generated input of file jobs.
    """

    id: str
    argv: list[str]
    kind: str
    expect: dict
    n: int = 0
    d: int = 0
    circuits: list[tuple[int, ...]] = field(default_factory=list)
    path: str | None = None


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    planted: list[Job]


# ----- inputs --------------------------------------------------------------


def _write(job: Job, path: Path, as_json: bool) -> None:
    if as_json:
        text = json.dumps({"n": job.n, "d": job.d,
                           "circuits": [list(c) for c in job.circuits]})
    else:
        text = "\n".join([f"{job.n} {job.d}"]
                         + [" ".join(map(str, c)) for c in job.circuits]) + "\n"
    path.write_text(text, encoding="utf-8")
    job.path = str(path)


def _relabel(circuits, n: int, rng: random.Random) -> list[tuple[int, ...]]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return sorted(tuple(sorted(perm[v - 1] for v in c)) for c in circuits)


def _cycle_with_leaves(k: int):
    """A 4-cycle 1-2-3-4 with k leaves hung on vertex 1 (d = 2)."""
    return 4 + k, [(1, 2), (2, 3), (3, 4), (1, 4)] + [(1, 4 + j) for j in range(1, k + 1)]


def _cycle_with_pendants(k: int):
    """A 4-cycle plus k vertex-disjoint edges (d = 2)."""
    return 4 + 2 * k, ([(1, 2), (2, 3), (3, 4), (1, 4)]
                       + [(3 + 2 * j, 4 + 2 * j) for j in range(1, k + 1)])


def _octahedron_with_triangles(k: int):
    """The octahedron's 8 triangles plus k vertex-disjoint triangles (d = 3)."""
    octa = [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    return 6 + 3 * k, octa + [(3 + 3 * j, 4 + 3 * j, 5 + 3 * j) for j in range(1, k + 1)]

# Why every one of these families is non-chordal.  Deleting a (d-1)-set
# only removes circuits that contain it, so the circuits of the core (the
# 4-cycle, or the octahedron) can only disappear by deleting one of the
# core's own (d-1)-subsets.  None of those is ever simplicial: every
# circuit through such a subset lies inside the core, since the extra
# leaves, edges and triangles never contain two core vertices, so its
# closed neighbourhood is the same as in the bare core.  In the 4-cycle
# the closed neighbourhood of a vertex holds its two non-adjacent
# neighbours; in the octahedron the closed neighbourhood of an edge such
# as {1,3} is {1,3,5,6}, and {1,5,6} is no triangle because 5 and 6 are
# antipodal.  So the core can never be emptied and the search must
# answer "not chordal".  The extra parts are simplicial and deletable in
# any order, which is what makes the failed-state memo grow like 2^k.


def _clutter_job(kind: str, n: int, d: int, circuits, argv: list[str],
                 jid: str = "") -> Job:
    """A job on a generated file; build() inserts the file path after argv[0]."""
    return Job(jid, list(argv), kind, {}, n, d,
               sorted(tuple(sorted(c)) for c in circuits))


def _chordal_check_jobs(rng: random.Random, small: bool) -> list[Job]:
    # (n, d, attachment rounds range, count): mid-size 3- and 4-uniform
    # clutters, sparse graphs, then a few complete clutters for the tail.
    # Sizes follow a fixed grid; the seed only changes which circuits.
    mix = [((24, 3), (30, 120), 46), ((30, 4), (40, 100), 6),
           ((40, 2), (20, 60), 64)]
    jobs = []
    for (n, d), (lo, hi), count in mix:
        for k in range(1 if small else count):
            steps = lo + (hi - lo) * k // (count - 1)
            c = random_chordal_clutter(n, d, steps, rng)
            jobs.append(_clutter_job("chordal", n, d, c.circuits, ["check", "--json"]))
    for n in ((10,) if small else (10, 11, 12, 13)):
        c = complete_clutter(n, 3)
        jobs.append(_clutter_job("chordal", n, 3, c.circuits, ["check", "--json"]))
    return jobs


def _nonchordal_check_jobs(rng: random.Random, small: bool) -> list[Job]:
    # n stays at most 30, so every circuit mask is a one-digit Python int
    # whatever the relabelling; larger labels would make the cost depend
    # on the seed.
    mix = [(_cycle_with_leaves, (5, 10)), (_cycle_with_pendants, (5, 9)),
           (_octahedron_with_triangles, (5, 8))]
    jobs = []
    for family, (lo, hi) in mix:
        for k in range(1 if small else 40):
            n, circuits = family(lo + k % (hi - lo + 1))
            d = len(circuits[0])
            jobs.append(_clutter_job("nonchordal", n, d, _relabel(circuits, n, rng),
                                     ["check", "--json"]))
    if not small:
        # One 4-cycle + 14 leaves: its memo of 2^14 failed states (~12 MB)
        # sets the workload's peak RSS, so the memo's size shows there.
        n, circuits = _cycle_with_leaves(14)
        jobs.append(_clutter_job("nonchordal", n, 2, _relabel(circuits, n, rng),
                                 ["check", "--json"]))
    return jobs


def _verify_jobs(rng: random.Random, small: bool) -> tuple[list[Job], list[Job]]:
    # Hochster's sweep visits all 2^n vertex subsets, so the cost doubles
    # per vertex: mostly n = 7 to 9, with n = 10 for the tail.
    counts = {7: 1, 8: 1} if small else {6: 10, 7: 30, 8: 34, 9: 20, 10: 6}
    jobs = []
    for n, count in counts.items():
        for i in range(count):
            d = 2 + i % 2
            c = random_chordal_clutter(n, d, n + 3 * n * i // count, rng)
            jobs.append(_clutter_job("verify", n, d, c.circuits,
                                     ["invariants", "--verify", "--json"]))
    # Planted known defect: the oracles cap Hochster at n = 12, and today
    # `invariants --verify` on a larger input exits 64 and discards the
    # computed invariants instead of reporting them.  These jobs expect
    # the report; they are checked apart from the timed jobs.
    planted = []
    for i in range(1 if small else 3):
        d = 2 + i % 2
        c = random_chordal_clutter(13, d, 26, rng)
        planted.append(_clutter_job("planted", 13, d, c.circuits,
                                    ["invariants", "--verify", "--json"], f"planted-{i}"))
    return jobs, planted


# ----- lambda arithmetic, recomputed independently -----------------------------


def alpha(n: int, d: int) -> list[int]:
    """alpha_0..alpha_{n-d+1}: coefficients of (s-1) * sum_j C(n,d+j) (s-1)^j.

    Horner's rule in powers of (s-1); independent of the program's
    IntPolynomial route.
    """
    poly: list[int] = []
    for j in range(n - d, -1, -1):
        poly = _times_s_minus_1(poly)
        poly[0] += comb(n, d + j)
    return _times_s_minus_1(poly)


def _times_s_minus_1(poly: list[int]) -> list[int]:
    out = [0] + poly
    for k, c in enumerate(poly):
        out[k] -= c
    return out


def _trim(seq: list[int]) -> list[int]:
    while seq and seq[-1] == 0:
        seq.pop()
    return seq


def lambda_max(a: list[int], n: int, d: int, i: int) -> int:
    return a[i] + comb(n - 1 - i, d - 1)


def extremal_profile(a: list[int], n: int, d: int, i: int) -> list[int]:
    lam = [a[j] if j < i else
           a[j] + comb(n - 1 - i, d - 1) if j == i else
           a[j] - comb(n - 1 - j, d - 2)
           for j in range(1, n - d + 1)]
    return _trim(lam)


def complete_profile(n: int, d: int) -> list[int]:
    return _trim([comb(n - 1 - i, d - 2) for i in range(1, n - d + 2)])


def _lambda_jobs(rng: random.Random, small: bool) -> list[Job]:
    sizes = (60, 100, 150, 200, 250, 300, 400)
    alphas: dict[tuple[int, int], list[int]] = {}
    # (mode, count): the extremal profile at index i is realizable (it is
    # the lambda of extremal_clutter); raising its entry i by one exceeds
    # lambda_max at i, so that candidate must be rejected.
    mix = [("valid", 24), ("raised", 24), ("max", 28), ("profile", 28),
           ("complete", 16)]
    jobs = []
    for mode, count in mix:
        for k in range(1 if small else count):
            # 7 sizes against 8 uniformities: the (n, d) grid, not the seed,
            # sets the cost; the seed picks the index i.
            n, d = sizes[k % len(sizes)], 3 + k % 8
            i = rng.randint(1, n - d)
            a = alphas.setdefault((n, d), alpha(n, d))
            head = ["lambda", "validate" if mode in ("valid", "raised") else mode,
                    str(n), str(d)]
            if mode in ("valid", "raised"):
                lam = extremal_profile(a, n, d, i)
                if mode == "raised":
                    lam[i - 1] += 1
                argv = head + [",".join(map(str, lam))]
                expect = {"code": EXIT_OK if mode == "valid" else EXIT_FALSE,
                          "valid": mode == "valid"}
            elif mode == "max":
                argv = head + [str(i)]
                expect = {"code": EXIT_OK, "lambda_max": lambda_max(a, n, d, i)}
            elif mode == "profile":
                argv = head + [str(i)]
                expect = {"code": EXIT_OK, "lambda": extremal_profile(a, n, d, i)}
            else:
                argv = head
                expect = {"code": EXIT_OK, "lambda": complete_profile(n, d)}
            jobs.append(Job("", argv + ["--json"], "lambda", expect))
    return jobs


# ----- assembling a workload -------------------------------------------------------


def build(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """Generate the workload's jobs from its seed and write their files.

    small keeps one or two jobs per family, for the smoke test.
    """
    rng = random.Random(f"{name}/{seed}")
    planted: list[Job] = []
    if name == "chordal_check":
        jobs = _chordal_check_jobs(rng, small)
    elif name == "nonchordal_check":
        jobs = _nonchordal_check_jobs(rng, small)
    elif name == "verify_invariants":
        jobs, planted = _verify_jobs(rng, small)
    elif name == "lambda_arith":
        jobs = _lambda_jobs(rng, small)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    # Jobs stay in grid order: a job's time depends on the heap its
    # predecessor left, so a seeded shuffle would move the quantiles.
    workdir.mkdir(parents=True, exist_ok=True)
    for index, job in enumerate(jobs + planted):
        if not job.id:
            job.id = f"{name}-{index:03d}"
        if job.circuits:
            as_json = index % 2 == 1  # alternate the two file forms
            _write(job, workdir / f"{job.id}.{'json' if as_json else 'txt'}", as_json)
            job.argv.insert(1, job.path)
    return Workload(name, jobs, planted)


# ----- checking a captured report ----------------------------------------------------


def _same_input(job: Job, report: dict) -> bool:
    inp = report.get("input", {})
    return (inp.get("n") == job.n and inp.get("d") == job.d
            and sorted(tuple(c) for c in inp.get("circuits", [])) == job.circuits)


def expected_code(job: Job) -> int:
    return job.expect.get("code", EXIT_FALSE if job.kind == "nonchordal" else EXIT_OK)


def check(job: Job, code, stdout: str) -> str | None:
    """None when the captured run is right, else the reason it is not."""
    expected = expected_code(job)
    if code != expected:
        return f"exit {code}, expected {expected}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if job.kind == "lambda":
        wrong = [k for k, v in job.expect.items() if k != "code" and report.get(k) != v]
        return f"wrong {', '.join(wrong)}" if wrong else None
    if not _same_input(job, report):
        return "report input differs from the generated input"
    if job.kind == "nonchordal":
        return None if report.get("chordal") is False else "not reported non-chordal"
    if job.kind == "planted":
        missing = [k for k in ("f", "h", "betti") if k not in report]
        return f"missing {', '.join(missing)}" if missing else None
    if report.get("chordal") is not True:
        return "chordal input not reported chordal"
    if job.kind == "verify":
        if report.get("verify", {}).get("agreement") is not True:
            return "formula and oracle routes disagree"
        missing = [k for k in ("f", "h", "betti") if k not in report]
        return f"missing {', '.join(missing)}" if missing else None
    order = report.get("order", {})
    try:
        sizes = replay_order(parse_clutter_file(job.path),
                             [tuple(e) for e in order.get("elements", [])])
    except ValueError as exc:
        return f"witness does not replay: {exc}"
    if list(sizes) != order.get("neighborhood_sizes"):
        return "replayed neighbourhood sizes differ from the report"
    if sorted(sizes) != report.get("multiset"):
        return "multiset is not the witness's neighbourhood sizes"
    if sum(sizes) != len(job.circuits):
        return "multiset sum differs from the circuit count"
    return None
