"""The deletion-sequence driver against the recursive searches it replaced.

The reference functions below are the recursive backtracking searches
that chordality.py used before its single iterative driver, copied
unchanged apart from their names (and the indentation of their
signatures), together with the two helpers they call.  The driver must
return exactly what they return: the same witness, the same co-chordal
sequence, the same enumeration in the same order, and the same budget
behaviour.  find_simplicial_order runs a reduced search (greedy first,
then, if greedy gets stuck for d != 2, one driver run per
(d-1)-component greedy did not empty): it must return the reference's
witness, expand no more states, and under a budget either give the
reference's answer or none.

The driver reads its candidates off an incremental deletion state.  The
second half of this file checks that state against a from-scratch
computation (the reference _simplicial_candidates) after every deletion
and every undo along whole searches, and so it checks the slices that
the decision cuts out of it for single components.
"""

from __future__ import annotations

import contextlib
import random
import sys
import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from clutterlab import (
    SearchLimitReached,
    chordality,
    SimplicialOrder,
    clutter_from_masks,
    co_chordal_sequence,
    complete_clutter,
    enumerate_simplicial_orders,
    find_simplicial_order,
    greedy_simplicial_order,
    make_clutter,
    replay_order,
)
from clutterlab.clutter import (
    Clutter,
    Vertices,
    mask_is_clique,
    mask_of,
    neighborhood_map,
    verts_of,
)

# ----- reference: the recursive searches --------------------------------------


def _simplicial_candidates(state: frozenset[int], d: int) -> list[tuple[int, int]]:
    """(element mask, neighborhood mask) pairs, lex sorted by vertex tuple."""
    out = []
    for e, nbr in neighborhood_map(state).items():
        if mask_is_clique(state, e | nbr, d):
            out.append((e, nbr))
    out.sort(key=lambda pair: verts_of(pair[0]))
    return out


def _delete_mask(state: frozenset[int], emask: int) -> frozenset[int]:
    return frozenset(m for m in state if m & emask != emask)


def ref_find_simplicial_order(clutter: Clutter,
                              max_states: int | None = None) -> SimplicialOrder | None:
    """Decide chordality, returning a witness order or None.

    None is a definitive negative: the backtracking search exhausted
    every deletion sequence.  With max_states set, the search raises
    SearchLimitReached once that many distinct states have been
    expanded, leaving the question open.
    """
    d = clutter.d
    failed: set[frozenset[int]] = set()
    expanded = 0

    def search(state: frozenset[int]) -> list[tuple[int, int]] | None:
        nonlocal expanded
        if not state:
            return []
        if state in failed:
            return None
        if max_states is not None:
            if expanded >= max_states:
                raise SearchLimitReached(
                    f"no answer after expanding {expanded} states")
            expanded += 1
        for emask, nbr in _simplicial_candidates(state, d):
            tail = search(_delete_mask(state, emask))
            if tail is not None:
                return [(emask, nbr.bit_count())] + tail
        failed.add(state)
        return None

    steps = search(clutter.mask_set())
    if steps is None:
        return None
    return SimplicialOrder(tuple((verts_of(e), s) for e, s in steps))


def ref_enumerate_simplicial_orders(clutter: Clutter,
                                    limit: int = 100_000,
                                    max_submaximal: int = 24) -> list[SimplicialOrder]:
    """Every complete simplicial order, up to limit.

    Guarded by the number of submaximal circuits, since the order count
    can grow factorially.  Branches that provably cannot complete are
    pruned through the same failed-state memo as the decision search.
    """
    d = clutter.d
    start = clutter.mask_set()
    n_sub = len(neighborhood_map(start))
    if n_sub > max_submaximal:
        raise ValueError(
            f"{n_sub} submaximal circuits exceed the enumeration guard "
            f"of {max_submaximal}; raise max_submaximal to proceed")
    failed: set[frozenset[int]] = set()
    orders: list[SimplicialOrder] = []
    prefix: list[tuple[Vertices, int]] = []

    def walk(state: frozenset[int]) -> bool:
        """Extend prefix in all ways; True when any completion exists."""
        if not state:
            orders.append(SimplicialOrder(tuple(prefix)))
            return True
        if state in failed:
            return False
        any_done = False
        for emask, nbr in _simplicial_candidates(state, d):
            if len(orders) >= limit:
                break
            prefix.append((verts_of(emask), nbr.bit_count()))
            if walk(_delete_mask(state, emask)):
                any_done = True
            prefix.pop()
        if not any_done:
            failed.add(state)
        return any_done

    walk(start)
    return orders


# ----- witness replay -------------------------------------------------------


def ref_co_chordal_sequence(clutter: Clutter,
                            max_states: int | None = None) -> tuple[Vertices, ...] | None:
    """A simplicial sequence carving the complete clutter down to this one.

    Searches for e_1, ..., e_r, each simplicial in the running deletion
    of the complete d-uniform clutter on [n], whose deletions remove
    exactly the complement's circuits.  Returns the sequence (empty for
    the complete clutter itself) or None when no such sequence exists.

    Chordality and co-chordality are logically independent here: one is
    never inferred from the other.
    """
    if clutter.n < clutter.d:
        return () if not clutter.circuit_masks else None
    target = clutter.mask_set()
    d = clutter.d
    failed: set[frozenset[int]] = set()
    expanded = 0

    def search(state: frozenset[int]) -> list[int] | None:
        nonlocal expanded
        if state == target:
            return []
        if state in failed:
            return None
        if max_states is not None:
            if expanded >= max_states:
                raise SearchLimitReached(
                    f"no answer after expanding {expanded} states")
            expanded += 1
        for emask, _nbr in _simplicial_candidates(state, d):
            # Deleting emask removes every circuit containing it; legal
            # only when none of those circuits belongs to the target.
            if any(m & emask == emask for m in target):
                continue
            tail = search(_delete_mask(state, emask))
            if tail is not None:
                return [emask] + tail
        failed.add(state)
        return None

    start = complete_clutter(clutter.n, clutter.d).mask_set()
    seq = search(start)
    if seq is None:
        return None
    return tuple(verts_of(e) for e in seq)


# ----- agreement ----------------------------------------------------------------


def d_subsets(n: int, d: int) -> list[int]:
    return [mask_of(c) for c in combinations(range(1, n + 1), d)]


def picked(n: int, d: int, masks: list[int], pick: int) -> Clutter:
    """The clutter of the masks whose bit is set in pick."""
    return clutter_from_masks(n, d, (m for i, m in enumerate(masks) if pick >> i & 1))


def all_clutters(n: int, d: int):
    """Every d-uniform clutter on [n], one per subset of the d-subsets."""
    masks = d_subsets(n, d)
    for pick in range(1 << len(masks)):
        yield picked(n, d, masks, pick)


def outcome(fn, *args, **kwargs):
    """A search's result, or the fact that it ran out of budget."""
    try:
        return fn(*args, **kwargs)
    except SearchLimitReached:
        return SearchLimitReached


def check_budgeted_find(c: Clutter, budget: int) -> None:
    """find under a budget against the unbounded reference.

    Any answer it gives is the reference's answer ("inconclusive" is
    never turned into "not chordal"), and whenever the reference answers
    within the budget, so does find.
    """
    got = outcome(find_simplicial_order, c, budget)
    if got is not SearchLimitReached:
        assert got == ref_find_simplicial_order(c), (c, budget)
    if outcome(ref_find_simplicial_order, c, budget) is not SearchLimitReached:
        assert got is not SearchLimitReached, (c, budget)


def counted(search, c: Clutter):
    """An unbounded search's result on c, and how many states it expanded.

    The reduced search counts them on its _StateBudget; the reference
    calls _simplicial_candidates once per expanded state.
    """
    seen = []

    class Budget(chordality._StateBudget):
        def __init__(self, limit):
            super().__init__(limit)
            seen.append(self)

    plain = _simplicial_candidates
    with pytest.MonkeyPatch.context() as mp:
        if search is find_simplicial_order:
            mp.setattr(chordality, "_StateBudget", Budget)
            return search(c), seen[0].spent
        mp.setitem(globals(), "_simplicial_candidates",
                   lambda state, d: seen.append(state) or plain(state, d))
        return search(c), len(seen)


def check_find(c: Clutter):
    """find's witness is the reference's, found in no more states; returns it."""
    order, states = counted(find_simplicial_order, c)
    ref, ref_states = counted(ref_find_simplicial_order, c)
    assert order == ref, c
    assert states <= ref_states, c
    return order


@pytest.mark.parametrize("n,d", [(5, 2), (5, 3)])
def test_find_and_co_chordal_agree_exhaustively(n, d):
    chordal = co_chordal = 0
    for c in all_clutters(n, d):
        order = check_find(c)
        seq = co_chordal_sequence(c)
        assert seq == ref_co_chordal_sequence(c), c
        chordal += order is not None
        co_chordal += seq is not None
    # both answers occur, so the sweep exercises success and failure
    assert 0 < chordal < 1 << 10 and 0 < co_chordal < 1 << 10


def test_enumeration_agrees_exhaustively():
    total = 0
    for c in all_clutters(5, 3):
        orders = enumerate_simplicial_orders(c, limit=200)
        assert orders == ref_enumerate_simplicial_orders(c, limit=200), c
        total += len(orders)
    assert total > 1000


def test_budgets_agree_exhaustively():
    for c in all_clutters(5, 3):
        for budget in (1, 4):
            check_budgeted_find(c, budget)
            assert outcome(co_chordal_sequence, c, budget) == \
                outcome(ref_co_chordal_sequence, c, budget), (c, budget)


def test_find_agrees_on_random_6_4():
    rng = random.Random(64)
    masks = d_subsets(6, 4)
    for _ in range(3000):
        c = clutter_from_masks(6, 4, (m for m in masks if rng.random() < 0.5))
        assert find_simplicial_order(c) == ref_find_simplicial_order(c), c


def split_clutter(n: int, d: int, rng: random.Random) -> Clutter:
    """A random clutter that often has several (d-1)-components.

    Half the circuits that avoid one random vertex, then half the others
    among those sharing no (d-1)-set with the first ones.
    """
    masks = d_subsets(n, d)
    drop = 1 << rng.randrange(n)
    core = [m for m in masks if not m & drop and rng.random() < 0.5]
    taken = neighborhood_map(core)
    rest = [m for m in masks if rng.random() < 0.5
            and not neighborhood_map([m]).keys() & taken]
    return clutter_from_masks(n, d, core + rest)


@pytest.mark.parametrize("n,d", [(6, 3), (6, 4), (7, 3)])
def test_find_agrees_on_multi_component_clutters(n, d):
    # every other clutter uniform; seen[several components, chordal]
    masks = d_subsets(n, d)
    seen = Counter()
    rng = random.Random(f"split/{n}/{d}")
    for i in range(800):
        c = split_clutter(n, d, rng) if i % 2 else \
            picked(n, d, masks, rng.getrandbits(len(masks)))
        order = check_find(c)
        live = chordality._DeletionState(c.mask_set(), d)
        parts = chordality._components(dict(live.nbrs), live.rank)
        seen[len(list(parts)) > 1, order is not None] += 1
    assert seen[True, True] + seen[True, False] >= 100
    assert seen[False, False] + seen[True, False] > 0 and seen[True, True] > 0
    # No 4-uniform clutter on [6] with two components is non-chordal
    # (an exhaustive count finds 1030 such clutters, all chordal).
    assert seen[True, False] > 0 or (n, d) == (6, 4)


MASKS_6_3 = d_subsets(6, 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, (1 << len(MASKS_6_3)) - 1))
def test_find_and_co_chordal_agree_on_6_3(pick):
    c = picked(6, 3, MASKS_6_3, pick)
    assert find_simplicial_order(c) == ref_find_simplicial_order(c)
    assert co_chordal_sequence(c) == ref_co_chordal_sequence(c)


def cycle_with_leaves(k: int):
    """A 4-cycle 1-2-3-4 with k leaves hung on vertex 1 (d = 2)."""
    return 4 + k, [(1, 2), (2, 3), (3, 4), (1, 4)] + [(1, 4 + j) for j in range(1, k + 1)]


def cycle_with_pendants(k: int):
    """A 4-cycle plus k vertex-disjoint edges (d = 2)."""
    return 4 + 2 * k, ([(1, 2), (2, 3), (3, 4), (1, 4)]
                       + [(3 + 2 * j, 4 + 2 * j) for j in range(1, k + 1)])


def octahedron_with_triangles(k: int):
    """The octahedron's 8 triangles plus k vertex-disjoint triangles (d = 3)."""
    octa = [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    return 6 + 3 * k, octa + [(3 + 3 * j, 4 + 3 * j, 5 + 3 * j) for j in range(1, k + 1)]


def octahedron_with_triangles_at_vertex(k: int):
    """The octahedron's 8 triangles plus k triangles through its vertex 1 (d = 3)."""
    octa = [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    return 6 + 2 * k, octa + [(1, 5 + 2 * j, 6 + 2 * j) for j in range(1, k + 1)]


FAMILIES = [cycle_with_leaves, cycle_with_pendants, octahedron_with_triangles,
            octahedron_with_triangles_at_vertex]


@pytest.mark.parametrize("family", FAMILIES)
def test_nonchordal_families_agree(family):
    # a non-chordal core plus k simplicial extras: the failed-state memo
    # grows like 2^k, and budgets run out at every depth of that growth
    for k in range(5):
        n, circuits = family(k)
        c = make_clutter(n, len(circuits[0]), circuits)
        assert find_simplicial_order(c) is None
        assert ref_find_simplicial_order(c) is None
        for budget in (1, 2, 1 << k, 1 << (k + 1)):
            check_budgeted_find(c, budget)


@pytest.mark.parametrize("family", FAMILIES)
def test_nonchordal_families_take_linear_states(family):
    # k + 1 states decide each family at k = 40, or at the largest k
    # whose vertices fit the 64-bit masks, where the memo of the
    # unreduced search would hold 2^k states.  Reversed labels put the
    # non-chordal core after the extras in lex order, so that the search
    # meets it last and takes exactly k + 1 states.
    k = max(k for k in range(41) if family(k)[0] <= 64)
    n, circuits = family(k)
    for labels in (circuits, [[n + 1 - v for v in c] for c in circuits]):
        c = make_clutter(n, len(circuits[0]), labels)
        began = time.perf_counter()
        assert find_simplicial_order(c, max_states=k + 1) is None
        assert time.perf_counter() - began < 1
    with pytest.raises(SearchLimitReached):
        find_simplicial_order(c, max_states=k)


# ----- the incremental deletion state ---------------------------------------------


class CheckedState(chordality._DeletionState):
    """The deletion state, compared with a fresh computation after each update.

    After every delete and undo, the live circuit set must be what a plain
    filter of the previous set gives (for an undo: the set before the
    deletion), the neighborhood map must be neighborhood_map of the live
    set, and the candidates, with their neighborhoods, must be the
    reference _simplicial_candidates in the same order.  A state that
    find_simplicial_order builds for one component is checked in the same
    way, and find_parts sets part_of to the state greedy ran on.
    """

    part_of = None

    def __init__(self, circuits, d):
        super().__init__(circuits, d)
        self.begin()

    def begin(self) -> None:
        """Check the state as built, and take it as the start."""
        self.start = frozenset(self.circuits)
        self.before: list[frozenset[int]] = []
        self.check(self.start)

    def check(self, expected: frozenset[int]) -> None:
        live = frozenset(self.circuits)
        assert live == expected
        assert self.nbrs == neighborhood_map(live)
        assert [(e, self.nbrs[e]) for e in self.candidates()] == \
            _simplicial_candidates(live, self.d)

    def delete(self, e: int) -> None:
        here = frozenset(self.circuits)
        super().delete(e)
        self.before.append(here)
        self.check(_delete_mask(here, e))

    def undo(self) -> None:
        super().undo()
        self.check(self.before.pop())

    def at_start(self) -> bool:
        return frozenset(self.circuits) == self.start and not self.before


@pytest.fixture
def checked_states(monkeypatch):
    """Every deletion state the searches build is checked; the list holds them."""
    made: list[CheckedState] = []

    class Recorded(CheckedState):
        def begin(self):
            super().begin()
            made.append(self)

    monkeypatch.setattr(chordality, "_DeletionState", Recorded)
    return made


def find_parts(c: Clutter, made: list[CheckedState],
               max_states: int | None = None) -> SimplicialOrder | None:
    """find_simplicial_order(c, max_states) under checked states.

    find builds one state, greedy's, for the whole input, and after a
    stuck or cut run one fresh state per component it hands the driver;
    each of those gets part_of set to greedy's, also when the budget
    runs out.  A component's driver either yields its order, which
    leaves its state empty, or fails after backing out of every
    deletion, which leaves its state at the start and answers None at
    once.
    """
    first = len(made)
    try:
        order = find_simplicial_order(c, max_states)
    finally:
        whole, *parts = made[first:]
        for part in parts:
            part.part_of = whole
    for part in parts:
        assert not part.circuits or (
            order is None and part is parts[-1] and part.at_start()), c
    return order


def checked_searches(c: Clutter, made: list[CheckedState]) -> int:
    """Run greedy, find and co-chordality on c under checked states.

    A driver that answers None has run to its end, so its state must be
    back at the start.  Returns how many of find and co-chordality
    answered None.
    """
    greedy_simplicial_order(c)
    ended = find_parts(c, made) is None
    if co_chordal_sequence(c) is None:
        assert made[-1].at_start(), c
        ended += 1
    return ended


@pytest.mark.parametrize("n,d", [(5, 2), (5, 3)])
def test_incremental_state_matches_recompute_exhaustively(n, d, checked_states):
    ended = sum(checked_searches(c, checked_states) for c in all_clutters(n, d))
    assert ended > 100
    assert (d == 2) != any(state.part_of for state in checked_states)


def test_incremental_state_matches_recompute_on_random(checked_states):
    ended = 0
    for n, d in ((6, 4), (7, 3)):
        rng = random.Random(n * 10 + d)
        masks = d_subsets(n, d)
        for _ in range(250):
            c = clutter_from_masks(n, d, (m for m in masks if rng.random() < 0.5))
            ended += checked_searches(c, checked_states)
    assert ended > 100


def test_slices_match_recompute_on_split_clutters(checked_states):
    # Several components, some of them emptied by greedy before it gets
    # stuck or a small budget cuts it short, so the driver runs on states
    # of one component each; the octahedron families, with reversed
    # labels, put the stuck core after every ear.
    rng = random.Random("slices/7/3")
    clutters = [split_clutter(7, 3, rng) for _ in range(300)]
    for family in FAMILIES[2:]:
        for k in range(1, 5):
            n, circuits = family(k)
            clutters.append(make_clutter(n, 3, [[n + 1 - v for v in c] for c in circuits]))
    for c in clutters:
        find_parts(c, checked_states)
        for budget in (1, 2, 4):
            with contextlib.suppress(SearchLimitReached):
                find_parts(c, checked_states, budget)
    parts = [state for state in checked_states if state.part_of]
    assert sum(state.start != state.part_of.start for state in parts) > 20


def test_drained_search_returns_the_state_to_its_start(checked_states):
    # every simplicial order of every graph on [5], so each one ends
    # only after backing out of every deletion it made
    total = 0
    for c in all_clutters(5, 2):
        live = chordality._DeletionState(c.mask_set(), 2)
        total += sum(1 for _ in chordality._deletion_sequences(
            live, frozenset(), chordality._StateBudget(None)))
        assert checked_states[-1].at_start(), c
    assert total > 10_000


def test_negative_budget_is_rejected_by_the_state_budget():
    with pytest.raises(ValueError, match="non-negative"):
        chordality._StateBudget(-1)


@pytest.mark.parametrize("d", [2, 3])
def test_small_budget_stops_greedy_early(monkeypatch, d):
    # Under max_states = s greedy takes at most s + 1 steps, and the
    # driver that may follow deletes at most once per state it expands,
    # where an unlimited run would delete len(order) times first.
    K = complete_clutter(20, d)
    assert len(find_simplicial_order(K)) > 11
    deletions = 0
    delete = chordality._DeletionState.delete

    def counted(self, e):
        nonlocal deletions
        deletions += 1
        delete(self, e)

    monkeypatch.setattr(chordality._DeletionState, "delete", counted)
    for budget in (0, 1, 5):
        deletions = 0
        with pytest.raises(SearchLimitReached):
            find_simplicial_order(K, max_states=budget)
        assert deletions <= 2 * budget + 1, (budget, deletions)


# ----- long orders --------------------------------------------------------------


def test_long_orders_do_not_recurse():
    # complete_clutter(12, 3) needs 55 deletions; under a limit only 40
    # frames above the current depth, one Python frame per deletion
    # would raise RecursionError.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    K = complete_clutter(12, 3)
    empty = make_clutter(12, 3, [])
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        order = find_simplicial_order(K)
        first = enumerate_simplicial_orders(K, limit=1, max_submaximal=66)
        carve = co_chordal_sequence(empty)
    finally:
        sys.setrecursionlimit(saved)
    assert len(order) == 55
    assert replay_order(K, order.elements) == order.neighborhood_sizes
    assert first == [order]
    assert carve is not None and len(carve) == 55
