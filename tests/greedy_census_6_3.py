"""Greedy dead-end census over every 3-uniform clutter on [6].

A dead-end is a chordal clutter on which greedy deletion (always the
lex-first simplicial element, never backing up) gets stuck.  The census
runs greedy_simplicial_order and find_simplicial_order on all 2^20
clutters, checks that greedy's order is find's witness wherever greedy
completes, and prints the counts and every dead-end it meets.  It exits
1 if an order differs, and 0 otherwise.

    PYTHONPATH=src python tests/greedy_census_6_3.py

It takes minutes, so it has no test_ prefix and tier-1 does not collect
it.  Its result is recorded in the chordality module docstring.
"""

from __future__ import annotations

import sys
import time
from itertools import combinations

from clutterlab import clutter_from_masks, find_simplicial_order, greedy_simplicial_order
from clutterlab.clutter import mask_of


def census(n: int = 6, d: int = 3) -> int:
    masks = [mask_of(c) for c in combinations(range(1, n + 1), d)]
    began = time.perf_counter()
    chordal = dead_ends = wrong = 0
    for pick in range(1 << len(masks)):
        c = clutter_from_masks(n, d, (m for i, m in enumerate(masks) if pick >> i & 1))
        order = find_simplicial_order(c)
        greedy = greedy_simplicial_order(c)
        chordal += order is not None
        if greedy is None and order is not None:
            dead_ends += 1
            print(f"dead-end: {c.circuits}")
        elif greedy is not None and greedy != order:
            wrong += 1
            print(f"greedy order differs from the witness: {c.circuits}")
    print(f"({n},{d}): {1 << len(masks)} clutters, {chordal} chordal, "
          f"{dead_ends} greedy dead-ends, {wrong} differing orders, "
          f"{time.perf_counter() - began:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(census())
