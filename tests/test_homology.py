"""Rational homology oracle and Hochster graded Betti numbers."""

from __future__ import annotations

import random
from math import comb

import pytest

from clutterlab import (
    OracleBoundError,
    betti_from_multiset,
    clique_complex_faces,
    complete_clutter,
    find_simplicial_order,
    has_linear_resolution,
    hochster_betti,
    make_clutter,
    random_chordal_clutter,
    reduced_homology_ranks,
    simplicial_multiset,
)
from clutterlab.homology import integer_matrix_rank

EX = make_clutter(5, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 4, 5)])


def test_faces_of_full_clique():
    faces = clique_complex_faces(EX, (1, 2, 3, 4))
    assert faces.face_count == 16          # full 3-simplex
    assert faces.dimension == 3


def test_faces_vacuous_pair():
    # {2,5} is not an edge of any circuit, but pairs are below d=3 so the
    # set itself is still a (vacuous) clique
    faces = clique_complex_faces(EX, (2, 5))
    assert faces.face_count == 4
    assert faces.dimension == 1


def test_faces_empty_subset():
    faces = clique_complex_faces(EX, ())
    assert faces.face_count == 1
    assert faces.dimension == -1


def test_faces_closed_downward():
    faces = clique_complex_faces(EX, (1, 2, 3, 4, 5))
    masks = {m for level in faces.by_size for m in level}
    for m in masks:
        v = m
        while v:
            low = v & -v
            assert (m ^ low) in masks or m == 0
            v ^= low


def test_integer_matrix_rank():
    assert integer_matrix_rank([]) == 0
    assert integer_matrix_rank([[0, 0], [0, 0]]) == 0
    assert integer_matrix_rank([[1, 2], [2, 4]]) == 1
    assert integer_matrix_rank([[1, 2], [3, 4]]) == 2
    assert integer_matrix_rank([[2, 0, 0], [0, 3, 0]]) == 2


def test_homology_two_points():
    # two isolated vertices: one reduced 0-cycle
    C = make_clutter(2, 2, [])
    faces = clique_complex_faces(C, (1, 2))
    ranks = reduced_homology_ranks(faces)
    assert ranks[1] == 1                 # H~_0
    assert all(r == 0 for k, r in enumerate(ranks) if k != 1)


def test_homology_empty_vertex_set():
    # the complex holding only the empty face carries one reduced
    # (-1)-cycle and nothing else
    C = make_clutter(3, 2, [])
    faces = clique_complex_faces(C, ())
    ranks = reduced_homology_ranks(faces)
    assert ranks[0] == 1
    assert all(r == 0 for r in ranks[1:])


def test_homology_circle():
    # the 4-cycle has no triangles, so its clique complex is the cycle:
    # a circle with H~_1 of rank 1
    cyc = make_clutter(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)])
    faces = clique_complex_faces(cyc, (1, 2, 3, 4))
    ranks = reduced_homology_ranks(faces)
    assert ranks[2] == 1                 # H~_1
    assert ranks[1] == 0


def test_homology_solid_simplex_trivial():
    faces = clique_complex_faces(EX, (1, 2, 3, 4))
    assert all(r == 0 for r in reduced_homology_ranks(faces))


def test_hochster_worked_example():
    table = hochster_betti(EX)
    assert table.as_dict() == {(0, 3): 5, (1, 4): 6, (2, 5): 2}
    assert table.totals() == (5, 6, 2)
    assert table.is_linear()


def test_hochster_beta0_counts_complement():
    rng = random.Random(53)
    for _ in range(6):
        n = rng.randint(4, 7)
        C = random_chordal_clutter(n, 3, steps=rng.randint(1, 4), rng=rng)
        missing = comb(n, 3) - C.num_circuits
        table = hochster_betti(C)
        if missing == 0:
            assert table.as_dict() == {}
            continue
        assert table.as_dict()[(0, 3)] == missing


def test_hochster_complete_clutter_zero_ideal():
    table = hochster_betti(complete_clutter(5, 3))
    assert table.as_dict() == {}
    assert table.totals() == ()
    assert has_linear_resolution(complete_clutter(5, 3))


def test_hochster_matches_formula():
    rng = random.Random(67)
    for _ in range(5):
        n = rng.randint(4, 7)
        C = random_chordal_clutter(n, 3, steps=rng.randint(1, 5), rng=rng)
        if C.num_circuits == comb(n, 3):
            continue
        ms = simplicial_multiset(find_simplicial_order(C))
        assert hochster_betti(C).totals() == betti_from_multiset(n, 3, ms)


def test_four_cycle_not_linear():
    cyc = make_clutter(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert not has_linear_resolution(cyc)
    table = hochster_betti(cyc)
    assert any(j != i + 2 for (i, j), _ in table.as_dict().items())


def test_graded_table_json():
    table = hochster_betti(EX)
    blob = table.to_json()
    assert blob["n"] == 5 and blob["d"] == 3
    assert {"i": 0, "j": 3, "value": 5} in blob["entries"]


def test_homology_guard(monkeypatch):
    big = make_clutter(14, 2, [(i, i + 1) for i in range(1, 14)])
    with pytest.raises(OracleBoundError):
        hochster_betti(big)
    monkeypatch.setenv("CLUTTERLAB_MAX_N", "14")
    # a path graph's edge ideal computes fine once unlocked
    table = hochster_betti(big)
    assert table.as_dict()[(0, 2)] == comb(14, 2) - 13


def test_faces_guard():
    big = complete_clutter(18, 2)
    with pytest.raises(OracleBoundError):
        clique_complex_faces(big, tuple(range(1, 19)))
