"""The oracle's face growth and subset walk against the plain references.

clique_complex_faces tests a grown set against the level below it, and
hochster_betti grows each vertex subset's complex and GF(2) bases from
those of the subset without its largest vertex.  The references in
test_oracle_reference.py test every (d-1)-subset as a circuit and
regrow and re-rank every subset's complex on its own; both must give
exactly what they give.
"""

from __future__ import annotations

from itertools import combinations

from clutterlab import clique_complex_faces, complete_clutter, hochster_betti
from test_oracle_reference import all_clutters, ref_clique_complex_faces, ref_hochster_betti


def test_faces_agree_on_every_subset_of_every_small_clutter():
    checked = 0
    for d in (1, 2, 3):
        for c in all_clutters(5, d):
            for size in range(6):
                for w in combinations(range(1, 6), size):
                    assert clique_complex_faces(c, w) == ref_clique_complex_faces(c, w), (c, w)
                    checked += 1
    assert checked == 32 * (2**5 + 2**10 + 2**10)


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
