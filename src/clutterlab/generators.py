"""Random instance generators used by the test harness.

The chordal generator runs the simplicial recursion backwards: starting
from the empty clutter it repeatedly picks a (d-1)-set with no current
neighbors and attaches a neighborhood that keeps the closed
neighborhood a clique.  Deleting the new element undoes the step, so
every clutter produced is chordal by construction and carries a known
simplicial order (the reverse of the construction), which makes these
instances ideal for cross-checking the search.
"""

import heapq
import itertools
import random

from .clutter import (
    Clutter,
    SquarefreeIdeal,
    clutter_from_masks,
    mask_of,
)
from .macaulay import strongly_stable_closure


def _attachment_ok(v: int, chosen: list[int], element: tuple[int, ...],
                   d: int, circuits: set[int]) -> bool:
    """Can v join the new neighborhood without breaking the clique rule?

    Every d-subset mixing v with earlier picks and only part of the
    element is not among the circuits being added, so it must already
    exist.  (Subsets containing the whole element are exactly the
    circuits the attachment itself adds.)
    """
    vbit = 1 << (v - 1)
    for b in range(1, min(len(chosen), d - 1) + 1):
        for bs in itertools.combinations(chosen, b):
            bmask = mask_of(bs)
            for asub in itertools.combinations(element, d - 1 - b):
                if mask_of(asub) | bmask | vbit not in circuits:
                    return False
    return True


def random_chordal_clutter(n: int, d: int, steps: int,
                           rng: random.Random) -> Clutter:
    """Grow a chordal d-uniform clutter on [n] by reverse deletions.

    Performs up to `steps` attachment rounds; a round picks a (d-1)-set
    that currently has no neighbors and gives it a random admissible
    neighborhood.  Rounds with no legal move end the growth early, so
    the result can be smaller than requested but is always chordal.
    """
    if n < d:
        return Clutter(n, d, ())
    circuits: set[int] = set()
    elements = list(itertools.combinations(range(1, n + 1), d - 1))
    for _ in range(steps):
        rng.shuffle(elements)
        placed = False
        for element in elements:
            emask = mask_of(element)
            if any(m & emask == emask for m in circuits):
                continue  # already submaximal; not a fresh attachment
            candidates = [v for v in range(1, n + 1) if not emask & (1 << (v - 1))]
            rng.shuffle(candidates)
            chosen: list[int] = []
            for v in candidates:
                if _attachment_ok(v, chosen, element, d, circuits):
                    chosen.append(v)
                    if rng.random() < 0.3:
                        break  # vary the neighborhood sizes
            if chosen:
                for v in chosen:
                    circuits.add(emask | (1 << (v - 1)))
                placed = True
                break
        if not placed:
            break
    return clutter_from_masks(n, d, circuits)


def random_tree(n: int, rng: random.Random) -> Clutter:
    """Uniform random labelled tree on [n] via a Pruefer sequence."""
    if n < 2:
        raise ValueError(f"a tree needs at least 2 vertices, got {n}")
    if n == 2:
        return clutter_from_masks(2, 2, [mask_of((1, 2))])
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return clutter_from_masks(n, 2, [mask_of(e) for e in edges])


def random_graph(n: int, p: float, rng: random.Random) -> Clutter:
    """Erdos-Renyi G(n, p) as a 2-uniform clutter."""
    edges = [mask_of(e) for e in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < p]
    return clutter_from_masks(n, 2, edges)


def random_strongly_stable_ideal(n: int, d: int, seeds: int,
                                 rng: random.Random) -> SquarefreeIdeal:
    """Closure of a few random degree-d seed sets under downward exchange."""
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    pool = list(itertools.combinations(range(1, n + 1), d))
    picks = rng.sample(pool, min(seeds, len(pool)))
    return strongly_stable_closure(n, picks)
