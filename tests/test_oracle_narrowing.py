"""The oracle's face growth and block sweep against the plain references.

clique_complex_faces grows each face from the mask of the vertices
that extend it, read off the circuit table and the faces beside it.
hochster_betti keeps each vertex subset's ranks and bases in arrays
indexed by its mask and fills them one block per largest vertex u:
the block starts as a copy of the subsets below u, its parents, and
takes on the faces through u.  The references in
test_oracle_reference.py test every (d-1)-subset as a circuit, regrow
and re-rank every subset's complex on its own, or walk the subsets
depth-first, each extending its parent's bases.  The oracle must give
exactly what they give, and fall back to Bareiss on exactly the
subsets the depth-first walk does.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from clutterlab import (
    clique_complex_faces,
    clutter_from_masks,
    complete_clutter,
    hochster_betti,
    make_clutter,
    random_chordal_clutter,
)
from clutterlab import homology
from test_oracle_reference import (
    CountCalls,
    all_clutters,
    random_clutter,
    ref_clique_complex_faces,
    ref_hochster_betti,
    ref_upward_hochster_betti,
)


def test_faces_agree_on_every_subset_of_every_small_clutter():
    checked = 0
    for d in (1, 2, 3):
        for c in all_clutters(5, d):
            for size in range(6):
                for w in combinations(range(1, 6), size):
                    assert clique_complex_faces(c, w) == ref_clique_complex_faces(c, w), (c, w)
                    checked += 1
    assert checked == 32 * (2**5 + 2**10 + 2**10)


def test_faces_agree_on_random_clutters_and_subsets():
    # Up to 9 vertices, d = 1 to 4, circuits of every density; `within`
    # a random subset, and vertices that lie in no circuit when the
    # circuits avoid them.
    rng = random.Random(25)
    for _ in range(400):
        n, d = rng.randint(1, 9), rng.randint(1, 4)
        c = random_clutter(n, d, rng.choice((0.2, 0.5, 0.8, 1.0)), rng)
        if rng.random() < 0.5:
            idle = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
            c = clutter_from_masks(n, d, [m for m in c.circuit_masks
                                          if not any(m >> (v - 1) & 1 for v in idle)])
        w = [v for v in range(1, n + 1) if rng.random() < 0.7]
        assert clique_complex_faces(c, w) == ref_clique_complex_faces(c, w), (c, w)


def test_faces_agree_on_complete_clutters():
    for n in range(1, 13):
        for d in range(1, n + 1):
            c = complete_clutter(n, d)
            every = range(1, n + 1)
            assert clique_complex_faces(c, every) == ref_clique_complex_faces(c, every), c


def test_hochster_agrees_on_every_5_1_clutter():
    for c in all_clutters(5, 1):
        assert hochster_betti(c) == ref_hochster_betti(c), c


def test_hochster_agrees_on_every_clutter_up_to_4_vertices():
    # Includes complexes with only the empty face (n = 1, d = 1, no
    # circuits) and with only vertices (d = 2, no circuits).
    checked = 0
    for n in range(1, 5):
        for d in range(1, n + 1):
            for c in all_clutters(n, d):
                assert hochster_betti(c) == ref_hochster_betti(c), c
                checked += 1
    assert checked == 2 + (4 + 2) + (8 + 8 + 2) + (16 + 64 + 16 + 2)


@pytest.fixture
def bareiss(monkeypatch):
    counted = CountCalls(homology.integer_matrix_rank)
    monkeypatch.setattr(homology, "integer_matrix_rank", counted)
    return counted


def agree_with_the_upward_walk(c, bareiss) -> int:
    """Assert that both sweeps give one table and fall back on the same subsets.

    Each fallback ranks the same levels over Q, so the upward walk makes
    as many Bareiss calls as the block sweep.  Returns the block sweep's.
    """
    start = bareiss.calls
    table = hochster_betti(c)
    calls = bareiss.calls - start
    assert table == ref_upward_hochster_betti(c), c
    assert bareiss.calls - start == 2 * calls, c
    return calls


def test_block_sweep_agrees_on_complete_clutters_up_to_12_vertices(bareiss):
    for n in range(1, 13):
        for d in range(1, min(n, 4) + 1):
            assert agree_with_the_upward_walk(complete_clutter(n, d), bareiss) == 0


def test_block_sweep_agrees_on_seeded_clutters(bareiss):
    rng = random.Random(31)
    densities = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95)
    fell_back = 0
    for k in range(320):
        n, d = 6 + k % 5, 1 + k // 5 % 4
        if k % 3 == 2:
            c = random_chordal_clutter(n, d, steps=rng.randint(1, 3 * n), rng=rng)
        else:
            c = random_clutter(n, d, rng.choice(densities), rng)
        fell_back += agree_with_the_upward_walk(c, bareiss) > 0
    assert fell_back > 0


def test_block_sweep_agrees_on_empty_clutters_above_n(bareiss):
    # With d = n + 1 or n + 2 no d-set fits, and every subset's complex
    # is a simplex: the skeleton alone, with no face of size d.
    for n in range(1, 9):
        for d in (n + 1, n + 2):
            c = make_clutter(n, d, [])
            assert agree_with_the_upward_walk(c, bareiss) == 0
            assert hochster_betti(c) == ref_hochster_betti(c), c


RP2_TRIANGLES = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]


def rp2_with(n, shift, extra):
    """RP^2 on vertices shift+1..shift+6 of [n], with extra triangles."""
    return make_clutter(n, 3, [tuple(v + shift for v in t) for t in RP2_TRIANGLES] + extra)


def test_block_sweep_agrees_where_rp2_falls_back_in_later_blocks(bareiss):
    # A cone vertex, a vertex in no circuit or a disjoint triangle, each
    # below RP^2 or above it, so the subsets that fall back to Bareiss
    # have their largest vertex at 6, 7 or 9.
    cases = [
        rp2_with(7, 0, [(a, b, 7) for a, b in combinations(range(1, 7), 2)]),
        rp2_with(7, 1, [(1, a, b) for a, b in combinations(range(2, 8), 2)]),
        rp2_with(7, 0, []),
        rp2_with(7, 1, []),
        rp2_with(9, 0, [(7, 8, 9)]),
        rp2_with(9, 3, [(1, 2, 3)]),
    ]
    for c in cases:
        assert agree_with_the_upward_walk(c, bareiss) > 0, c


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_sweep_memory_stays_bounded(tmp_path):
    # The arrays hold an entry per subset and every distinct basis its
    # rows, about 3^n rows on a dense input (some 15 MB on K(12,2)).
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    try:
        from perfbench.workloads import build
    finally:
        sys.path.remove(root)
    assert traced_peak(hochster_betti, complete_clutter(12, 2)) < 16_000_000
    jobs = build("verify_invariants", 1, tmp_path).jobs
    assert len(jobs) == 100
    for job in jobs:
        c = make_clutter(job.n, job.d, job.circuits)
        assert traced_peak(hochster_betti, c) < 1_000_000, c
