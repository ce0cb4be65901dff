"""The deletion state's clique test against the plain mask_is_clique.

_DeletionState decides whether a closed neighborhood N[f] = f + nbr is
a clique from the neighborhood map alone: every d-subset of N[f] is
g + v with g its d-1 lowest vertices, so N[f] is a clique exactly when
the vertices of N[f] above max g lie in N(g) for every (d-1)-subset g
(the full argument is in the chordality module docstring).  These tests
compare that rule with mask_is_clique, which probes every d-subset, on
every (d-1)-set of every d-uniform clutter on [5], and again inside
every single deletion of a simplicial element and its undo, where the
map is read mid-update.
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


class Compared(chordality._DeletionState):
    """A deletion state whose every clique test is checked as it runs.

    delete() removes the circuits first and tests afterwards, so
    self.circuits is the set the test must agree with.
    """

    def __init__(self, circuits, d):
        self.tested = 0
        super().__init__(circuits, d)

    def _closed_is_clique(self, f, nbr):
        got = super()._closed_is_clique(f, nbr)
        assert got == mask_is_clique(self.circuits, f | nbr, self.d), (f, nbr)
        self.tested += 1
        return got


def simplicial_from_scratch(circuits: frozenset[int], d: int) -> list[int]:
    return sorted((e for e, nbr in neighborhood_map(circuits).items()
                   if mask_is_clique(circuits, e | nbr, d)),
                  key=chordality.verts_of)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_map_clique_test_agrees_on_every_5_vertex_clutter(d):
    elements = d_subset_masks(5, d - 1)
    tested = 0
    for circuits in all_circuit_sets(5, d):
        state = Compared(circuits, d)
        # every (d-1)-set, submaximal or not
        for f in elements:
            nbr = state.nbrs.get(f, 0)
            assert state._closed_is_clique(f, nbr) == \
                mask_is_clique(circuits, f | nbr, d), (circuits, f)
        tested += state.tested
    assert tested > 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_map_clique_test_agrees_inside_single_deletions(d):
    tested = 0
    for circuits in all_circuit_sets(5, d):
        state = Compared(circuits, d)
        for e in state.candidates():
            before = state.tested
            state.delete(e)
            tested += state.tested - before
            after = frozenset(m for m in circuits if m & e != e)
            assert state.circuits == after
            assert state.candidates() == simplicial_from_scratch(after, d)
            state.undo()
            assert state.circuits == circuits
            assert state.candidates() == simplicial_from_scratch(circuits, d)
    # Tests ran mid-update, except for d = 1: its one element is the
    # empty set, and deleting it empties the clutter.
    assert tested > 0 or d == 1
