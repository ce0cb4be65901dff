"""The Hochster sweep on vertices relabelled by descending circuit count.

hochster_betti, when it builds its own complex, and `invariants
--verify` rename the vertices 1..n so that those in the most circuits
come first, ties in label order.  A permutation of the vertices maps
each vertex subset W to one of the same size with an isomorphic
complex, so neither the f-vector nor the graded Betti table changes.
The sweep's work does: it visits one (face, subset) pair for each of
the 2^(top F - |F|) supersets of each face F of d or more vertices in
F's block, and faces through the busiest vertices get small tops.

These tests check that the relabel is a permutation, that the table it
gives equals the one on the input's own labels (hochster_betti with the
input's complex passed in, which it does not relabel), and that it cuts
the pairs on the benchmark's verify inputs.  The last test checks that
the size orders the sweep books its table by are cached only up to
Hochster's cap.
"""

from __future__ import annotations

import io
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

from clutterlab import (
    clique_complex_faces,
    complete_clutter,
    f_vector_direct,
    hochster_betti,
    make_clutter,
    random_chordal_clutter,
)
from clutterlab import cli, homology
from clutterlab.guards import HOCHSTER_DEFAULT
from clutterlab.homology import _relabel_by_circuit_count
from clutterlab.io import clutter_to_text, parse_clutter_file
from test_oracle_reference import all_clutters, random_clutter


def ref_relabel(c):
    """The relabel by a plain sort and make_clutter's canonical sort."""
    counts = Counter(v for circuit in c.circuits for v in circuit)
    order = sorted(range(1, c.n + 1), key=lambda v: (-counts[v], v))
    new = {v: label for label, v in enumerate(order, 1)}
    return make_clutter(c.n, c.d, [[new[v] for v in circuit] for circuit in c.circuits])


def identity_table(c):
    """hochster_betti on the input's own labels."""
    return hochster_betti(c, faces=clique_complex_faces(c, range(1, c.n + 1), c.n))


def sweep_pairs(c, faces) -> int:
    """The (face, subset) pairs the sweep visits: 2^(top F - |F|) per face."""
    return sum(1 << (f.bit_length() - f.bit_count())
               for level in faces.by_size[c.d:] for f in level)


def seeded_clutters():
    """Chordal and arbitrary clutters with 6 <= n <= 10 and 1 <= d <= 4."""
    rng = random.Random(37)
    for k in range(160):
        n, d = 6 + k % 5, 1 + k // 5 % 4
        if k % 3 == 2:
            yield random_chordal_clutter(n, d, steps=rng.randint(1, 3 * n), rng=rng)
        else:
            yield random_clutter(n, d, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng)


def verify_inputs(tmp_path):
    """The 100 seed-1 inputs of the benchmark's verify_invariants workload."""
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    try:
        from perfbench.workloads import build
    finally:
        sys.path.remove(root)
    jobs = build("verify_invariants", 1, tmp_path).jobs
    assert len(jobs) == 100
    return [make_clutter(job.n, job.d, job.circuits) for job in jobs]


def test_relabelled_table_equals_the_identity_path_up_to_5_vertices():
    checked = 0
    for n in range(1, 6):
        for d in range(1, n + 1):
            for c in all_clutters(n, d):
                assert hochster_betti(c) == identity_table(c), c
                checked += 1
    assert checked == sum(2 ** comb(n, d) for n in range(1, 6) for d in range(1, n + 1))


def test_relabelled_table_equals_the_identity_path_on_seeded_clutters():
    for c in seeded_clutters():
        assert hochster_betti(c) == identity_table(c), c


def test_relabelled_table_equals_the_identity_path_on_the_benchmark_verify_inputs(tmp_path):
    for c in verify_inputs(tmp_path):
        assert hochster_betti(c) == identity_table(c), c


def test_relabel_is_a_permutation():
    small = [c for n in range(1, 5) for d in range(1, n + 1) for c in all_clutters(n, d)]
    for c in small + list(seeded_clutters()):
        r = _relabel_by_circuit_count(c)
        assert (r.n, r.d, r.num_circuits) == (c.n, c.d, c.num_circuits), c
        assert r == ref_relabel(c), c
        assert f_vector_direct(r) == f_vector_direct(c), c
        assert _relabel_by_circuit_count(r) == r, c  # idempotent
        counts = Counter(v for circuit in r.circuits for v in circuit)
        by_label = [counts[v] for v in range(1, r.n + 1)]
        assert by_label == sorted(by_label, reverse=True), c


def test_relabel_leaves_complete_clutters_unchanged():
    for n in range(1, 11):
        for d in range(1, n + 2):
            c = complete_clutter(n, d)
            assert _relabel_by_circuit_count(c) == c, c


def test_relabel_lowers_the_sweep_pairs_on_the_benchmark_verify_inputs(tmp_path):
    before = after = 0
    for c in verify_inputs(tmp_path):
        r = _relabel_by_circuit_count(c)
        before += sweep_pairs(c, clique_complex_faces(c, range(1, c.n + 1)))
        after += sweep_pairs(r, clique_complex_faces(r, range(1, r.n + 1)))
    assert (before, after) == (33504, 21078)


def test_invariants_verify_builds_one_complex_on_the_relabelled_clutter(monkeypatch, tmp_path):
    c = random_chordal_clutter(9, 3, steps=12, rng=random.Random(5))
    r = _relabel_by_circuit_count(c)
    assert r != c
    path = tmp_path / "c.txt"
    path.write_text(clutter_to_text(c))
    seen = []

    def faces(clutter, *args):
        seen.append(clutter)
        return clique_complex_faces(clutter, *args)
    monkeypatch.setattr(cli, "clique_complex_faces", faces)
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["invariants", str(path), "--verify", "--json"]) == 0
    assert '"agreement": true' in out.getvalue()
    assert seen == [r] and parse_clutter_file(str(path)) == c


def test_size_orders_are_cached_only_up_to_the_cap():
    # Above Hochster's cap the sweep builds its size order afresh, so
    # raising max_n leaves the cache as it was.
    c = random_chordal_clutter(HOCHSTER_DEFAULT + 1, 3, steps=10, rng=random.Random(3))
    hochster_betti(complete_clutter(HOCHSTER_DEFAULT, 2))
    cached = homology._by_size.cache_info().currsize
    table = hochster_betti(c, max_n=c.n)
    assert homology._by_size.cache_info().currsize == cached <= HOCHSTER_DEFAULT + 1
    faces = clique_complex_faces(c, range(1, c.n + 1), c.n)
    assert table == hochster_betti(c, max_n=c.n, faces=faces) and table.entries
    order, sizes = homology._by_size.__wrapped__(c.n)
    assert list(order) == sorted(range(1 << c.n), key=int.bit_count)
    assert list(sizes) == [p.bit_count() for p in range(1 << c.n >> 1)]
