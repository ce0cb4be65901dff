"""Chordality search, simplicial orders, multisets, co-chordality."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from clutterlab import (
    SearchLimitReached,
    co_chordal_sequence,
    complete_clutter,
    delete,
    enumerate_simplicial_orders,
    find_simplicial_order,
    greedy_simplicial_order,
    is_chordal,
    is_co_chordal,
    lambda_of,
    lambda_sequence,
    make_clutter,
    multiset_from_lambda,
    random_chordal_clutter,
    replay_order,
    simplicial_elements,
    simplicial_multiset,
)
from clutterlab import chordality
from clutterlab.clutter import _REVERSED, _rank_key, mask_of, verts_of

def rank_sorted(masks: list[int]) -> list[int]:
    """masks sorted by the one-size lex key, in descending order."""
    return sorted(masks, key=_rank_key(masks), reverse=True)


@pytest.mark.parametrize("k", range(5))
def test_rank_key_orders_every_k_subset_of_9_lexicographically(k):
    # Sorting all k-subsets of [9] by either order compares every pair.
    masks = [mask_of(c) for c in combinations(range(1, 10), k)]
    random.Random(k).shuffle(masks)
    assert rank_sorted(masks) == sorted(masks, key=verts_of)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 63, 64])
def test_rank_key_orders_sets_with_vertex_64_lexicographically(k):
    # vertex 64 is the top bit of the key's last byte
    rng = random.Random(f"rank/{k}")
    masks = {mask_of(rng.sample(range(1, 65), k)) for _ in range(300)}
    masks |= {mask_of([*rng.sample(range(1, 64), k - 1), 64]) for _ in range(300)}
    masks = sorted(masks)
    assert sum(m >> 63 for m in masks) > 0
    assert rank_sorted(masks) == sorted(masks, key=verts_of)


def test_rank_key_table_reverses_each_byte():
    assert _REVERSED == bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def test_one_vertex_ranks_are_the_rank_key_order():
    # d = 2 ranks its one-vertex elements by a plain sort of their masks
    singles = [1 << v for v in range(64)]
    random.Random("singles").shuffle(singles)
    assert sorted(singles) == rank_sorted(singles)
    for pick in range(1 << 10):
        masks = [m for i, m in enumerate(combinations(range(1, 6), 2)) if pick >> i & 1]
        live = chordality._DeletionState(map(mask_of, masks), 2)
        assert live.by_rank == rank_sorted(list(live.nbrs)), masks
    # a 2-clutter on [64] whose every vertex is an element, 64 the last
    path = chordality._DeletionState([3 << v for v in range(63)], 2)
    assert path.by_rank == rank_sorted(singles) and path.by_rank[-1] == 1 << 63


EX = make_clutter(5, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 4, 5)])
FOUR_CYCLE = make_clutter(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)])


def test_simplicial_elements_worked_example():
    # 14 is submaximal but not simplicial: N[14] = [5] and 125 is missing
    assert sorted(simplicial_elements(EX)) == [
        (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)]


def test_simplicial_elements_trivial_cases():
    assert simplicial_elements(make_clutter(4, 3, [])) == frozenset()
    assert sorted(simplicial_elements(complete_clutter(4, 3))) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_find_order_worked_example():
    order = find_simplicial_order(EX)
    assert order is not None
    # deterministic lexicographic witness
    assert order.steps == (((1, 2), 2), ((1, 3), 1), ((1, 4), 1), ((2, 3), 1))
    assert replay_order(EX, order.elements) == (2, 1, 1, 1)
    assert sorted(simplicial_multiset(order).elements()) == [1, 1, 1, 2]


def test_find_order_is_deterministic():
    a = find_simplicial_order(EX)
    b = find_simplicial_order(make_clutter(5, 3, EX.circuits))
    assert a == b


def test_empty_clutter_is_chordal():
    order = find_simplicial_order(make_clutter(6, 3, []))
    assert order is not None and len(order) == 0
    assert simplicial_multiset(order) == Counter()


def test_four_cycle_not_chordal():
    assert find_simplicial_order(FOUR_CYCLE) is None
    assert not is_chordal(FOUR_CYCLE)


def test_greedy_fast_path():
    order = greedy_simplicial_order(EX)
    assert order is not None
    assert order.elements[0] == (1, 2)
    assert replay_order(EX, order.elements) == order.neighborhood_sizes
    assert greedy_simplicial_order(FOUR_CYCLE) is None


def test_replay_rejects_bad_orders():
    with pytest.raises(ValueError):
        replay_order(EX, [(1, 4)])        # not simplicial in EX itself
    with pytest.raises(ValueError):
        replay_order(EX, [(1, 2)])        # leaves circuits behind


def test_search_budget_raises():
    with pytest.raises(SearchLimitReached):
        find_simplicial_order(EX, max_states=0)
    # generous budget matches unbounded answer
    assert find_simplicial_order(EX, max_states=10_000) is not None


def test_negative_budget_is_rejected():
    for search in (find_simplicial_order, co_chordal_sequence):
        with pytest.raises(ValueError, match="non-negative"):
            search(EX, max_states=-1)
    # a zero budget still answers when no state needs expanding
    assert len(find_simplicial_order(make_clutter(5, 3, []), max_states=0)) == 0
    assert co_chordal_sequence(complete_clutter(5, 3), max_states=0) == ()


def test_enumerate_orders_worked_example():
    orders = enumerate_simplicial_orders(EX)
    assert len(orders) > 1
    for order in orders:
        assert len(order) == 4
        assert sorted(simplicial_multiset(order).elements()) == [1, 1, 1, 2]


def test_enumerate_orders_trivial_and_complete():
    assert len(enumerate_simplicial_orders(make_clutter(4, 3, []))) == 1
    for order in enumerate_simplicial_orders(complete_clutter(4, 3)):
        assert len(order) == 3
        assert sorted(simplicial_multiset(order).elements()) == [1, 1, 2]


def test_multiset_invariance_random_chordal():
    rng = random.Random(23)
    for _ in range(8):
        C = random_chordal_clutter(6, 3, steps=rng.randint(1, 4), rng=rng)
        orders = enumerate_simplicial_orders(C, limit=3000)
        multisets = {tuple(sorted(simplicial_multiset(o).elements()))
                     for o in orders}
        assert len(multisets) == 1
        assert len({len(o) for o in orders}) == 1


def test_lambda_sequence_examples():
    assert lambda_sequence(Counter({2: 1, 1: 3})) == (3, 1)
    assert lambda_sequence(Counter()) == ()
    assert lambda_of(make_clutter(4, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])) == (3,)
    assert lambda_of(complete_clutter(4, 3)) == (2, 1)


def test_lambda_multiset_round_trip():
    for lam in [(3, 1), (2, 1), (), (0, 0, 4), (1,)]:
        ms = multiset_from_lambda(lam)
        trimmed = lambda_sequence(ms)
        assert multiset_from_lambda(trimmed) == ms


def test_sum_lambda_equals_circuit_count():
    rng = random.Random(31)
    for _ in range(10):
        C = random_chordal_clutter(rng.randint(4, 7), 3,
                                   steps=rng.randint(1, 5), rng=rng)
        lam = lambda_of(C)
        assert lam is not None
        assert sum((i + 1) * v for i, v in enumerate(lam)) == C.num_circuits


def test_co_chordality_examples():
    # chordal but not co-chordal
    C = make_clutter(4, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    assert is_chordal(C)
    assert not is_co_chordal(C)
    assert co_chordal_sequence(C) is None

    assert co_chordal_sequence(complete_clutter(4, 3)) == ()
    empty = make_clutter(4, 3, [])
    seq = co_chordal_sequence(empty)
    assert seq is not None and len(seq) == 3


def test_co_chordal_witness_replays():
    target = delete(complete_clutter(5, 3), (1, 2))
    seq = co_chordal_sequence(target)
    assert seq is not None
    state = complete_clutter(5, 3)
    for e in seq:
        assert e in simplicial_elements(state)
        state = delete(state, e)
    assert state == target


def test_co_chordal_plus_chordal_respects_cap():
    # when both hold, each lambda_i is at most comb(n-1-i, d-2)
    n, d = 5, 3
    target = delete(complete_clutter(n, d), (1, 2))
    assert is_co_chordal(target) and is_chordal(target)
    lam = lambda_of(target)
    for i, v in enumerate(lam, start=1):
        assert v <= comb(n - 1 - i, d - 2)
