"""The lazy simplicial flags of the deletion state against the eager build.

EagerState below is the deletion state as it was before its flags
became lazy: the constructor clique-tests every element, and a deletion
re-tests every touched element that is not simplicial.  It is copied
unchanged apart from its name, and its simplicial mask is exact in
every state.  The lazy state must take the same greedy steps, and its
flags below the frontier must equal the eager flags masked to those
ranks after every test pass and every deletion, and after every undo of
the driver, which backs out only of settled states.  The rest of the
file pins how many clique tests the lazy state runs, and what the
decision search hands its driver after a stuck greedy run.
"""

from __future__ import annotations

import random
import sys
from functools import reduce
from itertools import combinations, repeat
from operator import and_
from pathlib import Path

import pytest

from clutterlab import (
    SearchLimitReached,
    chordality,
    complete_clutter,
    enumerate_simplicial_orders,
    find_simplicial_order,
    make_clutter,
)
from clutterlab.clutter import mask_of, neighborhood_map, verts_of
from clutterlab.generators import random_chordal_clutter
from test_component_reference import component_first_find, outcome
from test_deletion_driver import (
    FAMILIES,
    all_clutters,
    d_subsets,
    octahedron_with_ears_on_edge,
    octahedron_with_triangles,
    picked,
    ref_find_simplicial_order,
    split_clutter,
)

_circuits_through = chordality._circuits_through

# ----- reference: the eager flag build -------------------------------------------


class EagerState:
    """Circuits, neighborhoods and simplicial elements under deletion.

    delete(e) removes every circuit containing e, for a simplicial e (the
    only kind any search deletes), and updates the neighborhood map and
    the simplicial set by the rule in the module docstring; undo()
    reverts the latest deletion not yet undone.  Elements are numbered
    by lex rank (by_rank lists them, rank maps back), and simplicial is
    the bit mask of the simplicial ones' ranks, so its lowest bit is the
    lex-first candidate.
    """

    __slots__ = ("d", "circuits", "nbrs", "rank", "by_rank", "simplicial", "_undo")

    def __init__(self, circuits: frozenset[int], d: int):
        self.d = d
        self.circuits = set(circuits)
        self.nbrs = nbrs = neighborhood_map(circuits)
        self.by_rank = sorted(nbrs, key=verts_of)
        self.rank = {e: r for r, e in enumerate(self.by_rank)}
        self.simplicial = sum(1 << r for r, e in enumerate(self.by_rank)
                              if self._closed_is_clique(e, nbrs[e]))
        # Per deletion: (e, N(e), old N(f) of every shrunk f, flipped flags).
        self._undo: list[tuple[int, int, dict[int, int], int]] = []

    def candidates(self) -> list[int]:
        """The simplicial element masks, lex sorted by vertex tuple.

        verts_of lists the positions of simplicial's bits, 1-based.
        """
        return [self.by_rank[i - 1] for i in verts_of(self.simplicial)]

    def _closed_is_clique(self, f: int, nbr: int) -> bool:
        """Whether N[f] = f + nbr is a clique, read off the neighborhood map."""
        if not nbr & (nbr - 1):
            return True
        closed = f | nbr
        get = self.nbrs.get
        if self.d == 1:
            return not closed & ~get(0, 0)
        bits = _circuits_through(0, closed)
        # Each g is a head of d - 2 vertices below its top vertex t.  A t
        # at the top of closed has nothing above it to test.
        width = self.d - 2
        for j in range(width, len(bits) - 1):
            t = bits[j]
            heads = map(sum, combinations(bits[:j], width))
            common = reduce(and_, map(get, map(t.__or__, heads), repeat(0)))
            if closed & -(t << 1) & ~common:
                return False
        return True

    def delete(self, e: int) -> None:
        circuits, nbrs, rank = self.circuits, self.nbrs, self.rank
        gone = nbrs[e]
        old: dict[int, int] = {}
        for m in _circuits_through(e, gone):
            circuits.remove(m)
            rest = m
            while rest:
                low = rest & -rest
                f = m ^ low
                if f not in old:
                    old[f] = nbrs[f]
                nbrs[f] ^= low
                rest ^= low
        simplicial = self.simplicial
        flipped = 0
        for f in old:
            nbr = nbrs[f]
            bit = 1 << rank[f]
            if not nbr:
                del nbrs[f]
                flipped |= simplicial & bit
            elif not simplicial & bit and self._closed_is_clique(f, nbr):
                flipped |= bit
        if self.d > 2 and gone & (gone - 1):
            # The (d-1)-subsets of the clique N[e] with two or more
            # vertices in N(e): each simplicial one flips.  Each lies in
            # a circuit of N[e], so it has a rank.
            for f in map(sum, combinations(_circuits_through(0, e | gone), self.d - 1)):
                if (f & gone).bit_count() > 1:
                    flipped |= simplicial & 1 << rank[f]
        self.simplicial ^= flipped
        self._undo.append((e, gone, old, flipped))

    def undo(self) -> None:
        e, gone, old, flipped = self._undo.pop()
        self.circuits.update(_circuits_through(e, gone))
        self.nbrs.update(old)
        self.simplicial ^= flipped


# ----- the lazy state in lockstep with the eager one ---------------------------


def eager_greedy(live: EagerState) -> list[tuple[int, int]]:
    """Greedy deletion over the eager state: take its lowest simplicial bit."""
    steps = []
    while simplicial := live.simplicial:
        e = live.by_rank[(simplicial & -simplicial).bit_length() - 1]
        steps.append((e, live.nbrs[e]))
        live.delete(e)
    return steps


class Lockstep(chordality._DeletionState):
    """A lazy state that takes an eager one through the same deletions.

    After every test pass, deletion step and undo, the lazy flags must be
    the eager ones below the frontier, with none from the frontier up.
    """

    def __init__(self, circuits, d):
        super().__init__(circuits, d)
        self.eager = EagerState(circuits, d)
        self.agree()

    def agree(self) -> None:
        assert self.nbrs == self.eager.nbrs
        assert self.flags == self.eager.simplicial & ~(-1 << self.frontier)

    def settle(self):
        flags = super().settle()
        self.agree()
        return flags

    def run(self, most=None, e=None):
        # one step per call, so that greedy's run and each delete of the
        # driver agree after every step
        steps = []
        while len(steps) != most and (step := super().run(1, e)):
            self.eager.delete(step[0][0])
            self.agree()
            steps += step
            e = None
        self.agree()
        return steps

    def undo(self, e, gone, flipped):
        super().undo(e, gone, flipped)
        self.eager.undo()
        self.agree()


def lockstep(circuits: frozenset[int], d: int) -> int:
    """Run greedy on a lazy state in lockstep with an eager one.

    Returns the number of greedy steps.
    """
    lazy = Lockstep(circuits, d)
    assert (lazy.flags, lazy.frontier) == (0, 0)
    steps = chordality._greedy(lazy)
    assert steps == eager_greedy(EagerState(circuits, d))
    # a stuck or finished run has tested every live element
    assert lazy.frontier == len(lazy.by_rank)
    return len(steps)


def drive_in_lockstep(circuits: frozenset[int], d: int) -> bool:
    """Run the driver on a lazy state in lockstep with an eager one.

    Returns whether it found no order.  Then it has backed out of every
    deletion it made, each undo in a settled state, and the state is
    back at its start.
    """
    lazy = Lockstep(circuits, d)
    found = next(chordality._deletion_sequences(
        lazy, frozenset(), chordality._StateBudget(None)), None)
    assert found is not None or lazy.circuits == circuits
    return found is None


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lazy_flags_match_eager_on_every_5_vertex_clutter(d):
    steps = sum(lockstep(c.mask_set(), d) for c in all_clutters(5, d))
    assert steps > 0
    failed = sum(drive_in_lockstep(c.mask_set(), d) for c in all_clutters(5, d))
    assert failed > 0 or d in (1, 4)


@pytest.mark.parametrize("n,d", [(n, d) for n in (6, 7, 8) for d in (2, 3, 4)])
def test_lazy_flags_match_eager_on_seeded_samples(n, d):
    rng = random.Random(f"lazy/{n}/{d}")
    masks = d_subsets(n, d)
    for i in range(60):
        if i % 3 == 0:
            c = random_chordal_clutter(n, d, rng.randrange(5, 30), rng)
        elif i % 3 == 1:
            c = split_clutter(n, d, rng)
        else:
            c = picked(n, d, masks, rng.getrandbits(len(masks)))
        lockstep(c.mask_set(), d)


def benchmark_clutters(name: str, tmp_path: Path):
    """The seed-1 inputs of one benchmark workload, as clutters."""
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    try:
        from perfbench.workloads import build
    finally:
        sys.path.remove(root)
    return [make_clutter(job.n, job.d, job.circuits)
            for job in build(name, 1, tmp_path).jobs]


@pytest.mark.parametrize("name", ["chordal_check", "nonchordal_check"])
def test_lazy_flags_match_eager_on_the_benchmark_inputs(name, tmp_path):
    clutters = benchmark_clutters(name, tmp_path)
    assert len(clutters) in (120, 121)
    for c in clutters:
        lockstep(c.mask_set(), c.d)


# ----- what the stuck path hands the driver ---------------------------------------


@pytest.fixture
def driver_inputs(monkeypatch):
    """(elements the driver sees as simplicial, circuits, d) per driver run."""
    seen = []
    drive = chordality._deletion_sequences

    def recorded(live, target, budget):
        live.settle()
        seen.append((frozenset(live.by_rank[i - 1] for i in verts_of(live.flags)),
                     frozenset(live.circuits), live.d))
        return drive(live, target, budget)

    monkeypatch.setattr(chordality, "_deletion_sequences", recorded)
    return seen


def decide_split_inputs() -> None:
    """Decide split (7,3) samples and the octahedron families under small budgets.

    Greedy stopped early by a small budget leaves an unsettled state,
    so every component left goes to the driver, those greedy took no
    step in included; after a stuck run only those greedy stepped in do.
    """
    rng = random.Random("lazy-slices/7/3")
    clutters = [split_clutter(7, 3, rng) for _ in range(150)]
    for family in FAMILIES[2:]:
        for k in range(1, 5):
            n, circuits = family(k)
            clutters.append(make_clutter(n, 3, [[n + 1 - v for v in c] for c in circuits]))
    for c in clutters:
        for budget in (None, 0, 1, 2, 4):
            try:
                find_simplicial_order(c, budget)
            except SearchLimitReached:
                pass


def test_slices_hold_their_components_simplicial_elements(driver_inputs):
    decide_split_inputs()
    assert len(driver_inputs) > 100
    for simplicial, circuits, d in driver_inputs:
        assert simplicial == frozenset(EagerState(circuits, d).candidates())


@pytest.mark.parametrize("k", range(1, 7))
def test_stuck_path_after_greedy_steps_agrees_under_every_budget(k):
    # The ears share the edge {1, 3} with the octahedron, so the input is
    # one component.  Greedy deletes ears before it gets stuck, and the
    # driver then decides the whole component on a fresh state.  It
    # deletes the k ears through their leaves {1, 6 + j}, meets the bare
    # octahedron, which fails, and the leaf cut fails each state above
    # it: k + 1 states, where the cut-free driver meets all 2^k subsets
    # of the ears.
    n, circuits = octahedron_with_ears_on_edge(k)
    c = make_clutter(n, 3, circuits)
    assert chordality.greedy_simplicial_order(c) is None
    assert find_simplicial_order(c, k + 1) is None
    with pytest.raises(SearchLimitReached):
        find_simplicial_order(c, k)
    assert ref_find_simplicial_order(c) is None
    for budget in [None, *range(k + 3)]:
        assert outcome(find_simplicial_order, c, budget) == \
            outcome(component_first_find, c, budget), (k, budget)


def test_cut_greedy_leaves_untested_elements_to_the_driver():
    # Under max_states = 1 greedy stops after two steps, (1,3) and (2,3),
    # which empty the component {135, 235}.  No flag is set then, but
    # (2,4) of the lex-first component {124, 126, 146}, which greedy took
    # no step in, is above the frontier and untested.  That component is
    # chordal, so only its driver may decide it: a stuck verdict would
    # answer None where the search must run out of budget.
    c = make_clutter(6, 3, [(1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 4, 6), (2, 3, 5)])
    live = chordality._DeletionState(c.mask_set(), 3)
    assert [verts_of(e) for e, _ in chordality._greedy(live, 2)] == [(1, 3), (2, 3)]
    assert live.flags == 0 and live.rank[mask_of((2, 4))] >= live.frontier
    for budget in [None, *range(6)]:
        assert outcome(find_simplicial_order, c, budget) == \
            outcome(component_first_find, c, budget), budget


# ----- clique-test counts -------------------------------------------------------------


@pytest.fixture
def clique_tests(monkeypatch):
    """Every vertex mask clique-tested, in order; "greedy" marks where greedy stops."""
    tested: list = []
    test = chordality.mask_is_clique
    greedy = chordality._greedy

    def counted(circuits, vmask, d):
        tested.append(vmask)
        return test(circuits, vmask, d)

    def marked(live, most=None):
        steps = greedy(live, most)
        tested.append("greedy")
        return steps

    monkeypatch.setattr(chordality, "mask_is_clique", counted)
    monkeypatch.setattr(chordality, "_greedy", marked)
    return tested


def count_tests(tested: list, clutter) -> int:
    """The clique tests find_simplicial_order runs on clutter."""
    tested.clear()
    find_simplicial_order(clutter)
    return sum(v != "greedy" for v in tested)


def test_clique_test_counts_are_pinned(clique_tests):
    # 4089, 9708 and 69 with every element tested at construction
    assert count_tests(clique_tests, complete_clutter(30, 3)) == 406
    assert count_tests(clique_tests, complete_clutter(20, 4)) == 969
    n, circuits = octahedron_with_triangles(19)
    c = make_clutter(n, 3, [[n + 1 - v for v in t] for t in circuits])
    assert count_tests(clique_tests, c) == 31
    # The octahedron is last in lex order and greedy took no step in it:
    # greedy tested its elements' closed neighborhoods where it got
    # stuck, and no clique test runs after greedy stops.
    octahedron = mask_of(range(n - 5, n + 1))
    assert clique_tests.index("greedy") == len(clique_tests) - 1
    assert any(v & octahedron == v for v in clique_tests[:-1])


def test_cut_greedy_hands_the_driver_a_fresh_state(clique_tests):
    # Under max_states = 1 greedy stops after two steps, with the ranks
    # 0 and 1 tested.  The driver settles a fresh state of K(30, 3) from
    # rank 0 up, so it tests rank 0 once more: 437 tests in all, 462 with
    # every element tested at construction.
    clique_tests.clear()
    with pytest.raises(SearchLimitReached):
        find_simplicial_order(complete_clutter(30, 3), max_states=1)
    assert clique_tests.count("greedy") == 1
    assert len(clique_tests) - 1 == 437


def test_benchmark_clique_test_counts(clique_tests, tmp_path):
    # 16 003 and 1260 with every element tested at construction
    chordal = benchmark_clutters("chordal_check", tmp_path / "c")
    assert sum(count_tests(clique_tests, c) for c in chordal) == 6584
    octahedra = [c for c in benchmark_clutters("nonchordal_check", tmp_path / "n") if c.d == 3]
    assert len(octahedra) == 40
    assert sum(count_tests(clique_tests, c) for c in octahedra) == 740


def test_refused_enumeration_runs_no_clique_test(clique_tests):
    K = complete_clutter(9, 3)
    with pytest.raises(ValueError) as refused:
        enumerate_simplicial_orders(K)
    assert str(refused.value) == ("36 submaximal circuits exceed the enumeration "
                                  "guard of 24; raise max_submaximal to proceed")
    assert clique_tests == []
