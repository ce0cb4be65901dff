"""Greedy and simplicial-deletion census over every 3-uniform clutter on [6].

A dead-end is a chordal clutter on which greedy deletion (always the
lex-first simplicial element, never backing up) gets stuck.  The census
runs greedy_simplicial_order and find_simplicial_order on all 2^20
clutters, and prints the counts and every dead-end it meets.

find starts with the same greedy run, so the independent check is a
second decision of every clutter, by dynamic programming over circuit
subsets in increasing order: a clutter is chordal when it is empty or
some simplicial e leaves a chordal clutter after its deletion.  Along
the way it checks the claim that every simplicial deletion keeps a
chordal clutter chordal, and prints each counterexample.  The table
must agree with find_simplicial_order on every clutter.  The same census runs first at (5,3) and (6,4), which
take seconds.  The script exits 1 if the two decisions differ or a
counterexample turns up, and 0 otherwise.

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


def chordal_table(masks: list[int], d: int) -> tuple[bytearray, int]:
    """Chordality of every clutter picked from masks, and the counterexamples.

    Bit i of a pick selects masks[i].  Entry pick of the table is 1 when
    that clutter is chordal.  A counterexample is a chordal clutter with
    a simplicial element whose deletion leaves a clutter that is not.
    """
    n = max(masks).bit_length()
    elements = []
    for e in map(mask_of, combinations(range(1, n + 1), d - 1)):
        through = [i for i, m in enumerate(masks) if m & e == e]
        # For each set of live circuits through e, the circuits that the
        # clique N[e] needs.
        needs = {}
        for k in range(1, len(through) + 1):
            for live in combinations(through, k):
                closed = e
                for i in live:
                    closed |= masks[i]
                needs[sum(1 << i for i in live)] = sum(
                    1 << j for j, m in enumerate(masks) if not m & ~closed)
        elements.append((sum(1 << i for i in through), needs))
    chordal = bytearray(1 << len(masks))
    chordal[0] = 1
    counterexamples = 0
    for pick in range(1, len(chordal)):
        kids = []
        for through, needs in elements:
            gone = pick & through
            if gone and not needs[gone] & ~pick:
                kids.append(chordal[pick ^ gone])
        if any(kids):
            chordal[pick] = 1
            if not all(kids):
                counterexamples += 1
                print(f"a simplicial deletion leaves a non-chordal clutter: "
                      f"{[m for i, m in enumerate(masks) if pick >> i & 1]}")
    return chordal, counterexamples


def census(n: int = 6, d: int = 3) -> int:
    masks = [mask_of(c) for c in combinations(range(1, n + 1), d)]
    began = time.perf_counter()
    table, counterexamples = chordal_table(masks, d)
    dp_s = time.perf_counter() - began
    chordal = dead_ends = differ = 0
    for pick in range(1 << len(masks)):
        c = clutter_from_masks(n, d, (m for i, m in enumerate(masks) if pick >> i & 1))
        order = find_simplicial_order(c)
        chordal += order is not None
        if (order is not None) != table[pick]:
            differ += 1
            print(f"the table and find_simplicial_order differ: {c.circuits}")
        if order is not None and greedy_simplicial_order(c) is None:
            dead_ends += 1
            print(f"dead-end: {c.circuits}")
    print(f"({n},{d}): {1 << len(masks)} clutters, {chordal} chordal, "
          f"{dead_ends} greedy dead-ends, "
          f"{counterexamples} simplicial deletions to a non-chordal clutter "
          f"({dp_s:.0f} s), {differ} decisions differing from the table, "
          f"{time.perf_counter() - began:.0f} s")
    return 1 if counterexamples or differ else 0


if __name__ == "__main__":
    sys.exit(max(census(n, d) for n, d in ((5, 3), (6, 4), (6, 3))))
