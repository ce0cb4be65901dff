"""Core clutter type: construction, complement, neighborhoods, deletion."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest

from clutterlab import (
    Clutter,
    circuit_ideal,
    closed_neighborhood,
    complement,
    complete_clutter,
    delete,
    is_clique,
    make_clutter,
    make_ideal,
    open_neighborhood,
    submaximal_circuits,
)
from clutterlab.clutter import clutter_from_masks, mask_is_clique, mask_of, verts_of
from clutterlab.macaulay import extremal_clutter

# the running worked example: chordal, five circuits on [5]
EX = make_clutter(5, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 4, 5)])


def test_construction_canonicalizes():
    scrambled = make_clutter(5, 3, [(4, 1, 5), (3, 2, 1), (1, 2, 4), (4, 3, 1),
                                    (2, 3, 4), (1, 2, 3)])
    assert scrambled == EX
    assert scrambled.circuits == EX.circuits
    assert hash(scrambled) == hash(EX)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        make_clutter(5, 3, [(1, 2)])          # wrong cardinality
    with pytest.raises(ValueError):
        make_clutter(5, 3, [(1, 2, 6)])       # vertex out of range
    with pytest.raises(ValueError):
        make_clutter(5, 3, [(1, 1, 2)])       # repeated vertex
    with pytest.raises(ValueError):
        make_clutter(0, 1, [])
    with pytest.raises(ValueError):
        make_clutter(65, 2, [])               # beyond the bitmask cap
    with pytest.raises(ValueError):
        make_clutter(5, 0, [(1,)])


def test_small_n_means_empty():
    tiny = make_clutter(2, 3, [])
    assert tiny.num_circuits == 0
    with pytest.raises(ValueError):
        make_clutter(2, 3, [(1, 2, 3)])


def test_complete_clutter_counts():
    for n in range(1, 9):
        for d in range(1, n + 1):
            assert complete_clutter(n, d).num_circuits == comb(n, d)
    assert complete_clutter(3, 3).circuits == ((1, 2, 3),)


def test_complement():
    assert complement(EX).circuits == (
        (1, 2, 5), (1, 3, 5), (2, 3, 5), (2, 4, 5), (3, 4, 5))
    assert complement(complete_clutter(4, 3)).num_circuits == 0
    # involution
    assert complement(complement(EX)) == EX


def test_generated_clutters_need_no_sort():
    # complete_clutter, complement and extremal_clutter take their masks
    # from combinations without a sort; each must equal its sorted form.
    rng = random.Random("no-sort")
    for n in range(1, 9):
        for d in range(1, n + 2):
            made = [complete_clutter(n, d)]
            if n >= d:
                half = [m for m in made[0].circuit_masks if rng.random() < 0.5]
                made.append(complement(clutter_from_masks(n, d, half)))
                made += [extremal_clutter(n, d, i) for i in range(1, n - d + 1)]
            for c in made:
                assert c == clutter_from_masks(n, d, c.circuit_masks), (n, d, c)


def test_submaximal_circuits():
    assert sorted(submaximal_circuits(EX)) == [
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)]
    assert submaximal_circuits(make_clutter(4, 3, [])) == frozenset()


def test_neighborhoods():
    assert open_neighborhood(EX, (1, 4)) == (2, 3, 5)
    assert open_neighborhood(EX, (2, 5)) == ()
    assert closed_neighborhood(EX, (1, 4)) == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        open_neighborhood(EX, (1, 2, 3))   # not a (d-1)-set
    # nonempty open neighborhood exactly on submaximal circuits
    sc = submaximal_circuits(EX)
    for e in combinations(range(1, 6), 2):
        assert bool(open_neighborhood(EX, e)) == (e in sc)


def test_is_clique():
    assert is_clique(EX, (1, 2, 3, 4))
    assert not is_clique(EX, (1, 2, 4, 5))
    # below-d sets are vacuously cliques, even of non-adjacent vertices
    assert is_clique(EX, (2, 5))
    assert is_clique(EX, ())
    assert is_clique(EX, (4,))


def test_is_clique_matches_bruteforce_random():
    rng = random.Random(11)
    K = complete_clutter(7, 3)
    C = make_clutter(7, 3, rng.sample(K.circuits, 20))
    cs = set(C.circuits)
    for _ in range(60):
        k = rng.randint(0, 7)
        V = tuple(sorted(rng.sample(range(1, 8), k)))
        expect = all(f in cs for f in combinations(V, 3))
        assert is_clique(C, V) == expect


def test_mask_is_clique_matches_bruteforce_exhaustively():
    # every vertex subset of [6], against clutters of each density
    rng = random.Random(12)
    for d in range(1, 5):
        subsets = list(combinations(range(1, 7), d))
        for density in (0.0, 0.5, 0.9, 1.0):
            cs = {f for f in subsets if rng.random() < density}
            masks = frozenset(mask_of(f) for f in cs)
            for vmask in range(1 << 6):
                expect = all(f in cs for f in combinations(verts_of(vmask), d))
                assert mask_is_clique(masks, vmask, d) == expect, (d, cs, vmask)


def test_delete():
    assert delete(EX, (1, 5)).circuits == (
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    assert delete(complete_clutter(4, 3), (1, 2)).circuits == (
        (1, 3, 4), (2, 3, 4))
    with pytest.raises(ValueError):
        delete(EX, (1, 2, 3))


def test_circuit_ideal():
    assert circuit_ideal(EX).gens == (
        (1, 2, 5), (1, 3, 5), (2, 3, 5), (2, 4, 5), (3, 4, 5))
    path = make_clutter(4, 2, [(1, 2), (2, 3), (3, 4)])
    assert circuit_ideal(path).gens == ((1, 3), (1, 4), (2, 4))
    # complete clutter has zero circuit ideal
    assert circuit_ideal(complete_clutter(4, 3)).num_gens == 0


def test_ideal_minimalizes():
    I = make_ideal(5, [(1, 2), (1, 2, 3), (4, 5)])
    assert I.gens == ((1, 2), (4, 5))
    assert I.degree is None or I.degree == 2
    eq = make_ideal(5, [(1, 2), (4, 5)])
    assert eq.degree == 2
    with pytest.raises(ValueError):
        make_ideal(5, [()])


def test_ideal_contains():
    I = make_ideal(4, [(1, 2)])
    assert I.contains((1, 2))
    assert I.contains((1, 2, 4))
    assert not I.contains((1, 3))


def test_mask_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(0, 10)
        vs = tuple(sorted(rng.sample(range(1, 33), k)))
        assert verts_of(mask_of(vs)) == vs


def test_duplicates_collapse():
    C = make_clutter(4, 2, [(1, 2), (2, 1), (1, 2)])
    assert C.num_circuits == 1


def test_clutter_is_hashable_value():
    seen = {EX, make_clutter(5, 3, EX.circuits)}
    assert len(seen) == 1
    assert isinstance(EX, Clutter)
