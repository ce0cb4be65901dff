"""Spans and counters around clutterlab's public functions, for traced runs.

The wrappers live here, in the benchmark, and patch each function in the
namespace it is called from: cli and chordality import their helpers by
name, so patching the defining module alone would miss those calls.
Coarse calls get spans (name, start, end, parent span, job id) kept in
memory; hot leaves only bump counters.  Spans and counters are keyed by
the defining module and function, e.g. "chordality.find_simplicial_order".

The per-layer metrics with unit "calls" (harness.PER_LAYER) count calls
to today's helper functions, so they measure today's call structure: a
refactor that stops calling a helper moves such a counter without the
work moving.
"""

from __future__ import annotations

from time import perf_counter

from clutterlab import chordality, cli, clutter, homology, invariants, macaulay
from clutterlab.polynomials import IntPolynomial

# (namespace, function name): spans.  cli.main is each job's root span.
SPANS = [
    (cli, "main"),
    (cli, "parse_clutter_file"),
    (cli, "find_simplicial_order"),
    (cli, "delta_from_multiset"),
    (cli, "f_vector_from_multiset"),
    (cli, "h_vector_from_multiset"),
    (cli, "betti_from_multiset"),
    (cli, "f_vector_direct"),
    (cli, "hochster_betti"),
    (cli, "lambda_max"),
    (cli, "extremal_lambda_profile"),
    (cli, "complete_lambda"),
    (cli, "validate_lambda"),
    (cli, "lsequence_from_lambda"),
    (macaulay, "alpha_sequence"),
    (homology, "clique_complex_faces"),
    (homology, "reduced_homology_ranks"),
    (homology, "integer_matrix_rank"),
]

# (namespace, function name): hot leaves, counted only.
COUNTED = [
    (chordality, "neighborhood_map"),
    (chordality, "mask_is_clique"),
    (chordality, "verts_of"),
    (clutter, "verts_of"),
    (homology, "verts_of"),
    (invariants, "verts_of"),
    (macaulay, "verts_of"),
    (macaulay, "macaulay_representation"),
]

# Counts read off arguments or results rather than calls.
DERIVED = ["chordality.order_steps", "io.circuits_parsed", "invariants.faces_counted",
           "homology.matrix_cells", "polynomials.mul_calls", "polynomials.mul_coeff_ops"]


def qualified(fn) -> str:
    """'module.function' of the defining module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _derived_counts(key: str, args, result, counts: dict) -> None:
    if key == "chordality.find_simplicial_order" and result is not None:
        counts["chordality.order_steps"] += len(result)
    elif key == "io.parse_clutter_file":
        counts["io.circuits_parsed"] += result.num_circuits
    elif key == "invariants.f_vector_direct":
        counts["invariants.faces_counted"] += sum(result)
    elif key == "homology.integer_matrix_rank":
        rows = args[0]
        counts["homology.matrix_cells"] += len(rows) * (len(rows[0]) if rows else 0)


class Tracer:
    """Installs the wrappers; holds the current job's spans and counters."""

    def __init__(self):
        self.keys = sorted({qualified(getattr(owner, name))
                            for owner, name in SPANS + COUNTED} | set(DERIVED))
        self.spans: list[list] = []  # [key, start, end, parent index, job id]
        self.counts: dict[str, int] = {}
        self.job: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_job(self, job_id: str) -> None:
        """Start fresh span and counter records for the next job sample."""
        self.job = job_id
        self.spans = []
        self.counts = dict.fromkeys(self.keys, 0)

    def _span(self, fn):
        tracer, key = self, qualified(fn)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer.counts[key] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            _derived_counts(key, args, result, tracer.counts)
            return result
        return wrapper

    def _counter(self, fn):
        tracer, key = self, qualified(fn)

        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _mul(self, fn):
        tracer = self

        def __mul__(a, b):
            counts = tracer.counts
            counts["polynomials.mul_calls"] += 1
            counts["polynomials.mul_coeff_ops"] += len(a.coeffs) * len(b.coeffs)
            return fn(a, b)
        return __mul__

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        self.begin_job("")
        for owner, name in SPANS:
            self._patch(owner, name, self._span(getattr(owner, name)))
        for owner, name in COUNTED:
            self._patch(owner, name, self._counter(getattr(owner, name)))
        self._patch(IntPolynomial, "__mul__", self._mul(IntPolynomial.__mul__))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
