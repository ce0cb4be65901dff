"""The lazy simplicial flags of the deletion state against the eager build.

EagerState below is the deletion state as it was before its flags
became lazy: the constructor clique-tests every element, and a deletion
re-tests every touched element that is not simplicial.  It is copied
unchanged apart from its name, and its simplicial mask is exact in
every state.  The lazy state must take the same greedy steps, its flags
below the frontier must equal the eager flags masked to those ranks
after every deletion and every undo, and undoing a lazy run and then
settling must give the eager start flags.  The rest of the file pins how
many clique tests the lazy state runs, and what the decision search
hands its driver after a stuck greedy run.
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
from test_deletion_driver import (
    FAMILIES,
    all_clutters,
    d_subsets,
    octahedron_with_triangles,
    picked,
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

    After every test pass, deletion and undo, the lazy flags must be the
    eager ones below the frontier, with none from the frontier up.
    """

    def __init__(self, circuits, d):
        super().__init__(circuits, d)
        self.eager = EagerState(circuits, d)
        self.agree()

    def agree(self) -> None:
        assert self.nbrs == self.eager.nbrs
        assert self.flags == self.eager.simplicial & ~(-1 << self.frontier)

    def settle(self, first=False):
        flags = super().settle(first)
        self.agree()
        return flags

    def delete(self, e):
        super().delete(e)
        self.eager.delete(e)
        self.agree()

    def undo(self):
        super().undo()
        self.eager.undo()
        self.agree()


def lockstep(circuits: frozenset[int], d: int) -> int:
    """Run greedy on a lazy state in lockstep with an eager one, then undo it.

    Returns the number of greedy steps.
    """
    lazy = Lockstep(circuits, d)
    start = lazy.eager.simplicial
    assert (lazy.flags, lazy.frontier) == (0, 0)
    steps = chordality._greedy(lazy)
    assert steps == eager_greedy(EagerState(circuits, d))
    # a stuck or finished run has tested every live element
    assert lazy.frontier == len(lazy.by_rank)
    for _ in steps:
        lazy.undo()
    assert lazy.circuits == circuits
    assert lazy.settle() == start and lazy.frontier == len(lazy.by_rank)
    return len(steps)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lazy_flags_match_eager_on_every_5_vertex_clutter(d):
    steps = sum(lockstep(c.mask_set(), d) for c in all_clutters(5, d))
    assert steps > 0


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
    so components it took no step in get flags below that state's
    frontier and test the rest themselves; stuck runs settle.
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


def test_slices_test_only_their_own_elements(monkeypatch):
    # A slice shares the ranks of the whole input; its settling must test
    # none of the other components' elements.
    # id of each slice -> the slice, kept alive so no id is reused, and its elements
    own: dict[int, tuple[object, frozenset[int]]] = {}
    foreign = []
    sliced = chordality._DeletionState.sliced
    test = chordality._DeletionState._closed_is_clique

    def recorded(self, circuits, nbrs, ranks):
        part = sliced(self, circuits, nbrs, ranks)
        own[id(part)] = part, frozenset(nbrs)
        return part

    def checked(self, f, nbr):
        if id(self) in own and f not in own[id(self)][1]:
            foreign.append(f)
        return test(self, f, nbr)

    monkeypatch.setattr(chordality._DeletionState, "sliced", recorded)
    monkeypatch.setattr(chordality._DeletionState, "_closed_is_clique", checked)
    decide_split_inputs()
    assert len(own) > 100
    assert foreign == []


def test_slices_settle_without_walking_the_ranks(monkeypatch):
    # The driver settles each slice in full, which walks the slice's own
    # map: it reads no entry of by_rank, the ranks of the whole input.
    settling, read, settled = [], [], []
    settle = chordality._DeletionState.settle
    sliced = chordality._DeletionState.sliced

    class Ranks(list):
        def __getitem__(self, r):
            if settling:
                read.append(r)
            return list.__getitem__(self, r)

    def recorded(self, circuits, nbrs, ranks):
        part = sliced(self, circuits, nbrs, ranks)
        part.by_rank = Ranks(part.by_rank)
        return part

    def watched(self, first=False):
        if type(self.by_rank) is Ranks:
            settled.append(first)
        settling.append(self)
        try:
            return settle(self, first)
        finally:
            settling.pop()

    monkeypatch.setattr(chordality._DeletionState, "sliced", recorded)
    monkeypatch.setattr(chordality._DeletionState, "settle", watched)
    decide_split_inputs()
    assert len(settled) > 100 and not any(settled)
    assert read == []


# ----- clique-test counts -------------------------------------------------------------


@pytest.fixture
def clique_tests(monkeypatch):
    """Every element clique-tested, in order; "undo" marks the first undo."""
    tested: list = []
    test = chordality._DeletionState._closed_is_clique
    undo = chordality._DeletionState.undo

    def counted(self, f, nbr):
        tested.append(f)
        return test(self, f, nbr)

    def marked(self):
        if "undo" not in tested:
            tested.append("undo")
        undo(self)

    monkeypatch.setattr(chordality._DeletionState, "_closed_is_clique", counted)
    monkeypatch.setattr(chordality._DeletionState, "undo", marked)
    return tested


def count_tests(tested: list, clutter) -> int:
    """The clique tests find_simplicial_order runs on clutter."""
    tested.clear()
    find_simplicial_order(clutter)
    return sum(f != "undo" for f in tested)


def test_clique_test_counts_are_pinned(clique_tests):
    # 4089, 9708 and 69 with every element tested at construction
    assert count_tests(clique_tests, complete_clutter(30, 3)) == 406
    assert count_tests(clique_tests, complete_clutter(20, 4)) == 969
    n, circuits = octahedron_with_triangles(19)
    c = make_clutter(n, 3, [[n + 1 - v for v in t] for t in circuits])
    assert count_tests(clique_tests, c) == 31
    # The octahedron is last in lex order and greedy took no step in it:
    # its slice takes its flags from the stuck state, with no new test.
    octahedron = mask_of(range(n - 5, n + 1))
    after = clique_tests[clique_tests.index("undo") + 1:]
    assert not [f for f in after if f & octahedron == f]
    assert any(f & octahedron == f for f in clique_tests)


def test_cut_greedy_leaves_the_slice_its_tested_ranks(clique_tests):
    # Under max_states = 1 greedy stops after two steps.  Undone, they
    # leave the first element's rank tested, so the slice of K(30, 3)
    # settles from rank 1 up: 436 tests in all, 462 with every element
    # tested at construction.
    clique_tests.clear()
    with pytest.raises(SearchLimitReached):
        find_simplicial_order(complete_clutter(30, 3), max_states=1)
    assert len(clique_tests) - clique_tests.count("undo") == 436


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
