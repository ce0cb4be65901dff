"""The deletion-sequence driver with its leaf cut against the driver without it.

plain_deletion_sequences below is chordality._deletion_sequences as it
was before the leaf cut, copied unchanged apart from its name.  With an
empty target the cut fails a state as soon as a leaf child (|N(e)| = 1)
fails, so the cut driver must yield exactly what the plain one yields,
in the same order, and expand no more states.  With a non-empty target
the cut is off, and the two drivers must match state for state.  The
lemma the cut rests on, that deleting a leaf keeps a chordal clutter
chordal, is checked directly as well.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import islice

import pytest

from clutterlab import chordality, complete_clutter, make_clutter
from clutterlab.chordality import _circuits_through, _DeletionState, _StateBudget
from clutterlab.clutter import neighborhood_map
from test_deletion_driver import (
    all_clutters,
    d_subsets,
    octahedron_with_ears_on_edge,
    picked,
)

# ----- reference: the driver without the leaf cut ----------------------------------


def plain_deletion_sequences(live: _DeletionState, target: frozenset[int],
                             budget: _StateBudget
                             ) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every simplicial deletion sequence turning live into target.

    Each sequence is a tuple of (element mask, open-neighborhood mask)
    steps, and sequences come in lexicographic depth-first order.  A
    deletion that would remove a circuit of target is never tried.
    States with no completion go into the failed-state memo.  Every
    expanded state is counted against budget, which may be shared with
    other searches: SearchLimitReached is raised once its limit is spent.
    The path lives on an explicit stack, so long orders do not touch
    Python's recursion limit.  A run that is drained leaves live at its
    start.
    """
    live.settle()
    protected = neighborhood_map(target)
    # Failed states by circuit count; a child's key is built only when
    # some failed state has its size.
    failed: dict[int, set[frozenset[int]]] = {}
    yielded = 0
    circuits, nbrs, by_rank = live.circuits, live.nbrs, live.by_rank
    # The current path: [lowest rank not yet tried, sequences yielded
    # before the state was entered].  steps[i] is the (element,
    # neighborhood) step taken out of path[i], and flips[i] the flags that
    # step flipped, which its undo takes back; live holds the state after
    # every step, and after backing up it is path[-1]'s state again, so
    # its untried candidates are live.flags's bits from that rank up.  The
    # driver deletes only in this settled state, so every flag is exact.
    path: list[list[int]] = []
    steps: list[tuple[int, int]] = []
    flips: list[int] = []
    while True:
        if len(circuits) == len(target) and circuits == target:
            yield tuple(steps)
            yielded += 1
            if steps:
                live.undo(*steps.pop(), flips.pop())
        else:
            budget.expand()
            path.append([0, yielded])
        # Back up to the deepest state with an untried candidate whose
        # deletion leaves a state not known to fail; take it.
        while path:
            here = path[-1]
            untried = live.flags >> here[0] << here[0]
            while untried:
                low = untried & -untried
                untried ^= low
                e = by_rank[low.bit_length() - 1]
                if e not in protected:
                    nbr = nbrs[e]
                    known = failed.get(len(circuits) - nbr.bit_count())
                    if not known or frozenset(circuits).difference(
                            _circuits_through(e, nbr)) not in known:
                        break
            else:
                path.pop()
                if yielded == here[1]:
                    failed.setdefault(len(circuits), set()).add(frozenset(circuits))
                if steps:
                    live.undo(*steps.pop(), flips.pop())
                continue
            here[0] = low.bit_length()
            flips.append(live.delete(e))
            steps.append((e, nbr))
            break
        else:
            return


# ----- agreement ----------------------------------------------------------------


def first(driver, circuits, d: int, target: frozenset[int] = frozenset()):
    """The driver's first sequence from circuits to target (or None), and its states."""
    budget = _StateBudget(None)
    found = next(driver(_DeletionState(circuits, d), target, budget), None)
    return found, budget.spent


def check_cut(circuits, d: int) -> tuple[int, int]:
    """The cut driver's first sequence is the plain one's; returns both state counts."""
    cut, cut_states = first(chordality._deletion_sequences, circuits, d)
    plain, plain_states = first(plain_deletion_sequences, circuits, d)
    assert cut == plain, (circuits, d)
    assert cut_states <= plain_states, (circuits, d)
    return cut_states, plain_states


@pytest.mark.parametrize("n,d", [(5, 3), (6, 4)])
def test_cut_agrees_with_the_plain_driver_exhaustively(n, d):
    cut = plain = 0
    for c in all_clutters(n, d):
        cut_states, plain_states = check_cut(c.circuit_masks, d)
        cut += cut_states
        plain += plain_states
    # no (5,3) clutter backs up out of a failed leaf child
    assert cut < plain or (n, d) == (5, 3), (cut, plain)


def test_cut_agrees_with_the_plain_driver_on_seeded_7_3():
    rng = random.Random("leaf-cut/7/3")
    masks = d_subsets(7, 3)
    cut = plain = 0
    for i in range(300):
        p = (0.3, 0.4, 0.5)[i % 3]
        c = picked(7, 3, masks, sum(1 << j for j in range(len(masks)) if rng.random() < p))
        cut_states, plain_states = check_cut(c.circuit_masks, 3)
        cut += cut_states
        plain += plain_states
    assert cut < plain, (cut, plain)


def test_cut_keeps_the_enumeration_and_its_order():
    for c in all_clutters(5, 3):
        sequences = [
            list(islice(driver(_DeletionState(c.circuit_masks, 3), frozenset(),
                               _StateBudget(None)), 200))
            for driver in (chordality._deletion_sequences, plain_deletion_sequences)]
        assert sequences[0] == sequences[1], c


def test_cut_is_off_for_a_nonempty_target():
    # the lemma speaks only of an empty target, so the state counts match:
    # co-chordality carves the complete clutter down to the input, and
    # random starts carved down to random parts of themselves back up
    # out of failed leaf children, where a cut would save states
    pairs = [(complete_clutter(5, 3).circuit_masks, c.mask_set()) for c in all_clutters(5, 3)]
    rng = random.Random("leaf-cut/target/6/3")
    masks = d_subsets(6, 3)
    for _ in range(500):
        start = [m for m in masks if rng.random() < 0.6]
        pairs.append((start, frozenset(m for m in start if rng.random() < 0.3)))
    for start, target in filter(lambda pair: pair[1], pairs):
        assert first(chordality._deletion_sequences, start, 3, target) == \
            first(plain_deletion_sequences, start, 3, target), (start, target)


def test_octahedron_with_ears_takes_k_plus_one_states():
    # the cut driver deletes the k ears through their leaves and fails
    # on the bare octahedron; the plain one meets every subset of ears
    for k in range(11):
        n, circuits = octahedron_with_ears_on_edge(k)
        masks = make_clutter(n, 3, circuits).circuit_masks
        assert check_cut(masks, 3) == (k + 1, 1 << k), k


def tetrahedra_on_edge(k: int):
    """The octahedron plus the 4 triangles of each {1, 3, 5 + 2j, 6 + 2j} (d = 3)."""
    octa = [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    return 6 + 2 * k, octa + [t for j in range(1, k + 1) for t in [
        (1, 3, 5 + 2 * j), (1, 3, 6 + 2 * j), (1, 5 + 2 * j, 6 + 2 * j), (3, 5 + 2 * j, 6 + 2 * j)]]


def test_extras_without_leaves_stay_exponential():
    # the first deletion in each tetrahedron boundary takes an element
    # with two neighbors, not a leaf, so the cut prunes only after it
    for k, states in enumerate([(1, 1), (11, 11), (118, 121), (1300, 1331)]):
        n, circuits = tetrahedra_on_edge(k)
        assert check_cut(make_clutter(n, 3, circuits).circuit_masks, 3) == states, k


# ----- the lemma ----------------------------------------------------------------


def leaf_deletions_stay_chordal(c) -> int:
    """Check that deleting any leaf of a chordal c leaves it chordal; count leaves."""
    d = c.d
    if first(plain_deletion_sequences, c.circuit_masks, d)[0] is None:
        return 0
    leaves = [(e, nbr) for e, nbr in neighborhood_map(c.circuit_masks).items()
              if not nbr & (nbr - 1)]
    for e, nbr in leaves:
        rest = c.mask_set().difference(_circuits_through(e, nbr))
        assert first(plain_deletion_sequences, rest, d)[0] is not None, (c, e)
    return len(leaves)


def test_leaf_deletion_keeps_chordality_exhaustively():
    assert sum(map(leaf_deletions_stay_chordal, all_clutters(5, 3))) > 1000


def test_leaf_deletion_keeps_chordality_on_seeded_7_3():
    rng = random.Random("leaf-lemma/7/3")
    masks = d_subsets(7, 3)
    leaves = 0
    for _ in range(300):
        pick = sum(1 << j for j in range(len(masks)) if rng.random() < 0.3)
        leaves += leaf_deletions_stay_chordal(picked(7, 3, masks, pick))
    assert leaves > 300
