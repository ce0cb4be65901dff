"""Single deletions and their undos against a from-scratch computation.

_DeletionState keeps no history: delete(e) returns the flags it
flipped, and undo(e, gone, flipped) re-adds the circuits e + {c}, c in
gone, ORs their bits back into the neighborhood map (recreating the
entries the deletion emptied) and flips those flags back.  On every
d-uniform clutter on [5], d = 1..4, every simplicial element is
deleted and undone once, from the settled start state.  After each
deletion and each undo the live circuits, the neighborhood map and the
simplicial elements must be what a plain computation from the live
circuits gives.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from clutterlab import chordality
from clutterlab.clutter import mask_is_clique, mask_of, neighborhood_map


def d_subset_masks(n: int, d: int) -> list[int]:
    return [mask_of(c) for c in combinations(range(1, n + 1), d)]


def all_circuit_sets(n: int, d: int):
    """Every set of d-subsets of [n], as a frozenset of masks."""
    masks = d_subset_masks(n, d)
    for pick in range(1 << len(masks)):
        yield frozenset(m for i, m in enumerate(masks) if pick >> i & 1)


def simplicial_from_scratch(circuits: frozenset[int], d: int) -> list[int]:
    return sorted((e for e, nbr in neighborhood_map(circuits).items()
                   if mask_is_clique(circuits, e | nbr, d)),
                  key=chordality.verts_of)


def check(state: chordality._DeletionState, circuits: frozenset[int]) -> None:
    assert state.circuits == circuits
    assert state.nbrs == neighborhood_map(state.circuits)
    assert state.candidates() == simplicial_from_scratch(circuits, state.d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_single_deletions_and_undos_agree_on_every_5_vertex_clutter(d):
    deleted = 0
    for circuits in all_circuit_sets(5, d):
        state = chordality._DeletionState(circuits, d)
        for e in state.candidates():
            gone = state.nbrs[e]
            flipped = state.delete(e)
            check(state, frozenset(m for m in circuits if m & e != e))
            state.undo(e, gone, flipped)
            check(state, circuits)
            deleted += 1
    assert deleted > 0
