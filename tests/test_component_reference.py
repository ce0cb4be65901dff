"""The greedy-first decision search against the component-first one it replaced.

component_first_find below is find_simplicial_order as it was before
the decision search began with one greedy run over one deletion state:
greedy alone for d = 2, and otherwise a fresh deletion state and a
driver run per (d-1)-component, with the component witnesses merged by
vertex tuple.  It is copied unchanged apart from its name, together with
the greedy loop and the component split it called.  The greedy-first
search must return exactly what it returns, and under every budget it
must give the same outcome: the same order, the same None, or
SearchLimitReached with the same message.
"""

from __future__ import annotations

import heapq
import random

import pytest

from clutterlab import (
    SearchLimitReached,
    SimplicialOrder,
    chordality,
    find_simplicial_order,
    make_clutter,
)
from clutterlab.clutter import Clutter, neighborhood_map
from test_deletion_driver import (
    all_clutters,
    d_subsets,
    octahedron_with_triangles,
    picked,
    split_clutter,
)

# ----- reference: the component-first decision search -------------------------


def ref_greedy(live: chordality._DeletionState,
               budget: chordality._StateBudget) -> list[tuple[int, int]] | None:
    """Delete the lex-first simplicial element until no circuit is left.

    Returns the (element mask, open-neighborhood mask) steps, or None
    when a state with circuits has no simplicial element.  Each state
    with circuits counts as one expanded state against budget.
    """
    steps = []
    while live.circuits:
        budget.expand()
        simplicial = live.settle()
        if not simplicial:
            return None
        e = live.by_rank[(simplicial & -simplicial).bit_length() - 1]
        steps.append((e, live.nbrs[e]))
        live.delete(e)
    return steps


def ref_components(circuit_masks: tuple[int, ...]) -> list[frozenset[int]]:
    """The (d-1)-components of lex-sorted circuits, by their first circuit.

    Two circuits are joined when they share d-1 vertices, that is, when
    both contain the same (d-1)-set.
    """
    nbrs = neighborhood_map(circuit_masks)
    parts = []
    for first in circuit_masks:
        # A circuit was reached exactly when its (d-1)-sets were taken.
        if first ^ (first & -first) not in nbrs:
            continue
        part, todo = {first}, [first]
        while todo:
            m = todo.pop()
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                f = m ^ low
                for c in chordality._circuits_through(f, nbrs.pop(f, 0)):
                    if c not in part:
                        part.add(c)
                        todo.append(c)
        parts.append(frozenset(part))
    return parts


def component_first_find(clutter: Clutter,
                         max_states: int | None = None) -> SimplicialOrder | None:
    """Decide chordality, returning the lex-first witness order or None.

    None is a definitive negative.  For d = 2 greedy deletion decides;
    otherwise the backtracking driver decides each (d-1)-component and
    the witnesses are merged (the soundness arguments are in the module
    docstring).  With max_states set, SearchLimitReached is raised once
    that many states have been expanded, leaving the question open:
    one state per greedy step for d = 2 (the state it gets stuck in
    included), and for other d the driver's distinct states summed over
    the components, taken in the order of their lex-first circuits.  A
    negative max_states raises ValueError.
    """
    budget = chordality._StateBudget(max_states)
    d = clutter.d
    if d == 2:
        steps = ref_greedy(chordality._DeletionState(clutter.mask_set(), d), budget)
        return None if steps is None else chordality._order(steps)
    witnesses = []
    for part in ref_components(clutter.circuit_masks):
        steps = next(chordality._deletion_sequences(
            chordality._DeletionState(part, d), frozenset(), budget), None)
        if steps is None:
            return None
        witnesses.append(chordality._order(steps).steps)
    # Elements of different components differ, so steps never tie.
    return SimplicialOrder(tuple(heapq.merge(*witnesses, key=lambda step: step[0])))


# ----- agreement ------------------------------------------------------------------


def outcome(search, c: Clutter, max_states: int | None = None):
    """A search's answer, or the message it ran out of budget with."""
    try:
        return search(c, max_states)
    except SearchLimitReached as exc:
        return SearchLimitReached, str(exc)


def reference(c: Clutter):
    """The unbounded reference's answer on c, and how many states it expanded."""
    spent = []

    class Budget(chordality._StateBudget):
        def __init__(self, limit):
            super().__init__(limit)
            spent.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chordality, "_StateBudget", Budget)
        return component_first_find(c), spent[0].spent


@pytest.mark.parametrize("n,d", [(5, 3), (5, 4)])
def test_agrees_with_component_first_exhaustively(n, d):
    # seen[chordal, greedy completed]
    seen = {}
    for c in all_clutters(n, d):
        order = outcome(find_simplicial_order, c)
        ref, states = reference(c)
        assert order == ref, c
        key = order is not None, chordality.greedy_simplicial_order(c) is not None
        seen[key] = seen.get(key, 0) + 1
        if d == 3:
            for budget in range(states + 2):
                assert outcome(find_simplicial_order, c, budget) == \
                    outcome(component_first_find, c, budget), (c, budget)
    # greedy gets stuck only on non-chordal clutters, and both kinds occur
    assert set(seen) == {(True, True), (False, False)} or (n, d) == (5, 4)
    assert seen[True, True] > 0


@pytest.mark.parametrize("n,d", [(6, 4), (7, 3)])
def test_agrees_with_component_first_on_seeded_samples(n, d):
    # every other clutter uniform, the rest often split into components;
    # seen[several components, chordal]
    masks = d_subsets(n, d)
    rng = random.Random(f"greedy-first/{n}/{d}")
    seen = {}
    for i in range(200):
        c = split_clutter(n, d, rng) if i % 2 else \
            picked(n, d, masks, rng.getrandbits(len(masks)))
        order = outcome(find_simplicial_order, c)
        ref, states = reference(c)
        assert order == ref, c
        key = len(ref_components(c.circuit_masks)) > 1, order is not None
        seen[key] = seen.get(key, 0) + 1
        budget = rng.randrange(states + 2)
        assert outcome(find_simplicial_order, c, budget) == \
            outcome(component_first_find, c, budget), (c, budget)
    assert seen.get((True, True), 0) > 0 and seen.get((True, False), 0) + \
        seen.get((False, False), 0) > 0


def test_stuck_path_charges_emptied_components_before_the_core():
    # Reversed labels put the octahedron after the triangles, so the
    # stuck path charges every emptied triangle before the core's state.
    n, circuits = octahedron_with_triangles(19)
    c = make_clutter(n, 3, [[n + 1 - v for v in t] for t in circuits])
    assert reference(c) == (None, 20)
    for budget in (19, 20, 21):
        assert outcome(find_simplicial_order, c, budget) == \
            outcome(component_first_find, c, budget)
    assert outcome(find_simplicial_order, c, 20) is None


def cut_greedy(stop: int):
    """Greedy deletion that gives up after stop steps, as if it got stuck."""
    def run(live, most=None):
        steps = []
        while (flags := live.settle()) and len(steps) < stop and len(steps) != most:
            e = live.by_rank[(flags & -flags).bit_length() - 1]
            steps.append((e, live.nbrs[e]))
            live.delete(e)
        return steps
    return run


def test_stuck_path_merges_component_witnesses(monkeypatch):
    # No small chordal clutter makes greedy stick (the census found no
    # 3-uniform dead-end on 6 vertices), so greedy is cut short here.  The
    # stuck path must then return the reference's witness, merging the
    # steps greedy took in the components it emptied with the driver's
    # witnesses for the others, and charge what the reference charges.
    rng = random.Random("cut/7/3")
    tried = 0
    for _ in range(200):
        c = split_clutter(7, 3, rng)
        ref, states = reference(c)
        if ref is None or len(ref_components(c.circuit_masks)) < 2:
            continue
        for stop in range(len(ref)):
            monkeypatch.setattr(chordality, "_greedy", cut_greedy(stop))
            assert find_simplicial_order(c) == ref, (c, stop)
            for budget in (states - 1, states):
                assert outcome(find_simplicial_order, c, budget) == \
                    outcome(component_first_find, c, budget), (c, stop, budget)
            tried += 1
    assert tried > 100
