"""Simplicial orders and chordality of uniform clutters.

A (d-1)-subset e of a circuit is *simplicial* when its closed
neighborhood N[e] = e + {c : e+{c} is a circuit} is a clique.  A
clutter is *chordal* when it is empty or some simplicial e exists whose
deletion leaves a chordal clutter.  A complete run of such deletions is
a *simplicial order*; the multiset of open-neighborhood sizes recorded
along the way does not depend on the order chosen, which is what makes
it (and the lambda-sequence derived from it) an invariant worth
computing.

Every search here reads its candidates off one mutable deletion state,
_DeletionState: the live circuit set, the neighborhood map e -> N(e),
the simplicial flags, and a lexicographic rank per element fixed once
from the start clutter (deletions only remove circuits, so no element
appears later that was not there at the start).  The flags are a bit
mask over those ranks, kept lazily under one invariant: below a
frontier rank every flag is exact, and from the frontier up there is
none.  Building the state runs no clique test; its frontier is 0.

* Greedy's pick is lex-first.  When a flag is set, every rank below the
  lowest one lies below the frontier and is exactly unflagged, so the
  lowest flag is the lex-first simplicial element.  When none is set,
  every rank below the frontier is not simplicial, so greedy tests
  upward from the frontier, skipping emptied elements without a test,
  and the first element that passes is the lex-first one; the frontier
  moves just above it.  An element emptied by other deletions before
  the frontier reaches it is never tested.
* Settling tests every element in the map from the frontier rank up,
  which makes every flag exact.  The driver, candidates() and
  simplicial_elements settle first.  A deletion keeps the frontier
  where it is, so a settled state stays settled, and the driver deletes
  and undoes only in settled states: a state's next untried candidate
  is its lowest flag above the rank last tried, and no state sorts its
  candidates.

Deleting e updates the state in place and records what changed, so the
deletion can be undone; the update rule and its soundness are below.
replay_order does not use the state: it certifies a witness by
recomputing every step from the circuits alone.

The backtracking searches run through one driver, _deletion_sequences:
a depth-first search over deletion states from a start clutter down to
a target clutter (the empty one for simplicial orders, the input for
co-chordality).  It keeps its path on an explicit stack, so the length
of an order is not bounded by Python's recursion limit, and it has two
standing rules:

* candidates are tried in lexicographic order of their vertex tuples,
  so the sequences come out in a fixed order and the first one is the
  deterministic witness;
* states from which no completion exists are memoized by their circuit
  set, so the search never re-explores a failed region.

A memo key is a pass over the live circuits, so it is built only when
the memo can use it: a failing state's key when it fails, and a
child's key only when some failed state has the child's circuit count
(the live count minus |N(e)|).  The target test compares counts first.
So the first descent of a chordal component builds no key, and each of
its steps costs what the deletion touches.

The memo is sound for enumeration as well as for the decision.  Within
one run the target is fixed, so the deletions available in a state, and
with them its completions, depend only on the state's circuit set, not
on the path that reached it.  A state is memoized only after every one
of its candidates was tried and none completed, so it has no completion
on any path, and skipping it later loses no sequence.  States that did
complete are never memoized, so every completion is still enumerated.
enumerate_simplicial_orders and co_chordal_sequence are thin callers
of the driver.  Greedy deletion (always take the lex-first simplicial
element, never back up) reads its candidates off the same state.  For
d >= 3 a stuck greedy run proves nothing; for d = 2 it proves "not
chordal", as follows.

The decision search.  find_simplicial_order builds one deletion state
for the whole input and runs greedy on it.  A completed run's order is
the witness, for every d; a stuck run decides "not chordal" for d = 2;
only a stuck run for other d goes on to split the input into its
(d-1)-components.  Its state budget counts what the driver would
expand run once per component: one state per greedy step when greedy
completes.

* Greedy's order is the witness.  On the whole input, the driver's
  first descent takes the lex-first simplicial element in every state:
  nothing has failed yet, so the memo skips nothing, and the target is
  empty, so nothing is protected.  That is greedy's rule, so when greedy
  completes, its order is the driver's first yield, the lex-first
  witness.  By the component bullet below, that is also the merge of
  the per-component witnesses.
* d = 2: greedy decides (Dirac 1961; Fulkerson-Gross 1965).  Deleting a
  vertex v of a graph G removes the edges at v.  Lemma: if G has a
  simplicial order w_1, ..., w_m, then so has G - v, for any vertex v:
  drop v from the sequence, and every w_i that has no edge left when
  its turn comes.  Write G_i for G after deleting w_1, ..., w_(i-1).
  Deleting vertices commutes, so the state of the new sequence at w_i's
  turn is G_i - v.  There the closed neighborhood of w_i is N[w_i] in
  G_i minus v.  It lies inside a clique of G_i, and none of its edges
  meets v, so it is a clique of G_i - v, and w_i is simplicial there.
  The sequence ends at the empty graph, because G_(m+1) is empty.  So a
  simplicial deletion never takes a chordal graph to a non-chordal one.
  Greedy starting from a chordal graph therefore only ever meets chordal
  states.  A chordal state with an edge has a simplicial element by
  definition, so greedy cannot get stuck on a chordal graph, and a stuck
  run proves "not chordal".  It is charged one state per step, the
  state it got stuck in included.
* Any d: (d-1)-components decide independently.  Join two circuits when
  they share d-1 vertices; a (d-1)-set lies in one component, the one of
  the circuits through it.  If N[f] is a clique, all its d-subsets are
  circuits.  Any two d-subsets of one set are linked by a chain of
  d-subsets of it, each sharing d-1 vertices with the next, and f + c is
  one of them.  So they all lie in f's component.  Hence whether f is
  simplicial, and which circuits its deletion removes, depend only on
  the live circuits of f's component.  The same holds in every later
  state, whose components only refine the starting ones.  A deletion in
  one component therefore never changes a candidate of another, so the
  clutter is chordal exactly when each component is.  The lex-first
  global witness takes, at each step, the lex-first candidate whose
  deletion leaves a chordal state.  Within its component that is the
  next step of the component's own lex-first witness, and the other
  components are unchanged.  So the global witness is the step-wise
  merge of the per-component witnesses by lex rank, which heapq.merge
  computes from the heads of its inputs.  For d = 2 the components are
  the connected components, but greedy needs no split.
* The budget is the component-wise one.  Since a deletion in one
  component never changes a candidate of another, greedy on the whole
  input, restricted to one component, is that component's own greedy
  run.  If greedy completes, each component's driver therefore follows
  its greedy run down without backing up and expands one state per
  step, so the sum over the components is greedy's step count: a
  completed run is charged its steps, raising at the limit as they
  would.  A stuck run for d >= 3 is charged nothing itself, and it has
  done at most one step per element.  Under a limit s, greedy stops
  after s + 1 steps.  A run that gets that far is charged at least s + 1
  if it completes, or gets stuck on a graph, which is past the limit.
  The cut run is charged past it too (s + 2 for d = 2, s + 1 if its last
  step emptied the input), so it raises as the full run would.  For
  d >= 3 a cut run with circuits left takes the stuck path, whose rule
  below holds for any prefix of greedy's run.
* The stuck path, for d >= 3.  Greedy's deletions stay.  The components
  are read off the input's own neighborhood map and taken in the order
  of their lex-first circuits, as a search run once per component
  takes them, so the charges add up in the same order.  Each one takes
  the first of three rules that applies.  A component that greedy
  emptied had its own greedy run complete, so its driver would expand
  one state per greedy step in it and yield those steps: it is charged
  them, and they are its witness.  A component in which greedy took no
  step keeps its start circuits in the stuck state, because deletions
  in other components never touch it.  When that state is settled (no
  flag set, the frontier past every rank, as a run that got stuck
  leaves it: its last upward test passed no rank), each of the
  component's elements was tested there and is not simplicial.  By the
  component bullet it is not simplicial in the component alone either,
  so the driver would expand the component's start state, find no
  candidate and fail: the component is charged one state and answers
  None, with no state built.  Every other component left, one greedy
  stepped in or one a budget cut greedy short of testing, runs the
  driver on a fresh deletion state of its circuits: the state a search
  run once per component builds, so the driver does what it does
  there.  The first component that fails answers None.  Otherwise the
  witnesses are merged by global rank, which is lex order.  A prefix
  of greedy's run that empties a component holds that component's
  whole greedy run, so the rule does not need greedy to have got
  stuck.
* What is left exponential.  The memo still visits every reachable
  state of one component.  A non-chordal core with simplicial ears that
  share a (d-1)-set with it forms one component, so for d >= 3 such an
  input costs as much as before.

Simplicial deletions for d >= 3: reduced, not settled.  Greedy would
decide every d if no simplicial deletion took a chordal clutter to a
non-chordal one.  Let e and w != e both be simplicial in C.  By the flip
rule of the incremental-update section below, deleting e leaves w
simplicial or without neighbors, unless w lies inside N[e] and
|w - e| >= 2.  In that case N[w] = N[e], and the condition is symmetric
in e and w.  Suppose w begins a simplicial order of C and is outside
that case.  Then e is simplicial or without neighbors in C - w, which
is chordal and has fewer circuits, so by induction on the circuit count
(C - w) - e is chordal.  Deletions commute, so C - e reaches that
clutter by deleting w, which is simplicial or without neighbors in
C - e (deleting an element without neighbors changes nothing); so C - e
is chordal.  Hence a smallest counterexample (C, e) has N[w] = N[e] and
|w - e| >= 2 for every w that begins an order of C.  For d = 2,
|w - e| <= 1, which reproves for simplicial deletions the lemma the
d = 2 bullet above uses.

Evidence, not proof, for d >= 3.  tests/greedy_census_6_3.py runs
greedy and find_simplicial_order on all 2^20 3-uniform clutters on 6
vertices.  739592 of them are chordal, and greedy completed on every one
of those.  A 3-uniform dead-end therefore needs at least 7 vertices.
The script also decides every clutter by dynamic programming over
circuit subsets, independently of greedy and of the driver, and tries
every simplicial deletion of every chordal clutter.  None leaves a
non-chordal clutter at (6,3), nor among the 31738 chordal (6,4) and 969
chordal (5,3) clutters, and the table agrees with find on every
clutter.  Two random hunts of 600 s
each aimed at the reduction's case: K = {1,2,3,4}, e = {1,2}, w = {3,4}
and N[e] = N[w] = K fixed, every other triple drawn at random.  They met
no counterexample among 82649 chordal (7,3) and 13793 chordal (8,3)
clutters.

Why the incremental update is exact.  Write C for the circuits before
deleting e and C' for those after, N(f) and N'(f) for the open
neighborhood of f in C and in C', and N[f] = f + N(f), N'[f] = f + N'(f)
for the closed ones.

* Removed circuits.  Deleting e removes the circuits containing e, and
  a d-set contains the (d-1)-set e exactly when it is e + {c} for a
  vertex c, which is a circuit exactly when c is in N(e).  So
  C - C' = {e + {c} : c in N(e)}, read off N(e) without a scan of C.
* Which neighborhoods change.  c leaves N(f) exactly when f + {c} is a
  removed circuit, so the neighborhoods that shrink are those of the
  (d-1)-subsets of removed circuits, and no neighborhood grows:
  N'(f) is a subset of N(f).  An element whose neighborhood becomes
  empty is no longer submaximal and leaves the map.
* Non-cliques stay non-cliques unless their neighborhood shrank.  If
  N'(f) = N(f) and N[f] was not a clique in C, some d-subset of N[f] is
  missing from C; it is missing from C', a subset of C, as well.  A
  non-simplicial f whose neighborhood shrank gets a fresh clique test
  if its rank is below the frontier.  From the frontier up f has no
  flag to keep, and it is tested when the frontier reaches it.  The
  other rules below only clear flags, so the lazy invariant holds after
  every deletion, with the frontier where it was.
* Cliques: one bit test.  If N[f] was a clique in C, every d-subset of
  N'[f], a subset of N[f], was a circuit of C, and the only circuits C'
  lacks are the removed ones.  So N'[f] is a clique in C' exactly when
  no removed circuit e + {c} lies inside it, that is, unless e is a
  subset of N'[f] and some c in N(e) is in N'[f]: on masks,
  e & ~N'[f] == 0 and N(e) & N'[f] != 0.  This holds whether or not
  N(f) shrank, so a simplicial element never needs a clique test.
* Which simplicial elements flip, found without a scan.  Every search
  deletes a simplicial e, so K = N[e] is a clique of C.  A simplicial f
  other than e stops being simplicial when N'(f) is empty, which makes
  f touched, or, by the rule above, when e lies in N'[f] and N'[f]
  meets N(e).  A touched f other than e is e - {y} + {c} for some y in
  e and c in N(e).  The removed circuits all contain e, so y is the
  only vertex f loses, and e is not inside N'[f]: f stays simplicial
  unless N'(f) is empty.  An untouched f has N'[f] = N[f].  If that is
  a clique holding e, each vertex x of it outside e makes e + {x} a
  circuit, so x is in N(e).  N[f] then lies inside K, and f, being
  untouched, has two or more vertices in N(e).  Conversely, let f be a
  simplicial (d-1)-subset of K with two or more vertices in N(e).  It
  is untouched, because a removed circuit e + {c} holds one vertex of
  N(e).  Each x of K outside f makes f + {x}, a d-subset of the clique
  K, a circuit, so K lies inside N[f]: e is inside N'[f], and f's own
  vertices in N(e) meet it, so f flips.  The simplicial elements that
  flip are therefore e, the touched f whose neighborhood emptied, and
  the simplicial (d-1)-subsets of K with two or more vertices in N(e).
  delete enumerates the (d-1)-subsets of K for the last kind, as many
  as e's own clique test reads; for d = 2 there are none.
* Fresh clique tests read the map.  Every d-subset S of a vertex set W
  is g + {v}, where g is the d-1 lowest vertices of S and v lies above
  max g, and S is a circuit exactly when v is in N(g).  So W is a
  clique exactly when, for every (d-1)-subset g of W, the vertices of W
  above max g all lie in N(g): C(k, d-1) map reads for |W| = k, where
  probing C takes C(k, d).  The test groups the g by their top vertex
  t, ANDs their N(g), and skips t = max W, above which nothing lies.
  When N(f) is a single vertex c, N[f] = f + {c} is itself a circuit,
  hence a clique, and no read is needed.  For d = 1 the only g is the
  empty set, every vertex lies above it, and the rule reads W inside
  N(empty set).  delete runs the tests after every removed circuit has
  left the map, so the map describes C', except that an emptied entry
  may still be present with value 0.  The test reads N(g) as
  nbrs.get(g, 0), and a present 0 and an absent entry both read as
  "no neighbors", which is what C' says.

Why an undo is exact.  An undo restores the removed circuits (again
read off N(e)) and the saved old neighborhoods, and flips back the
flags the deletion flipped.  Only the driver undoes, and it deletes
only in settled states.  When a deletion is undone, every later one
has been undone first, so the state is again the settled one the
deletion left, whose flags are exactly what the deletion computed, and
flipping back gives the exact flags from before the deletion.
"""

from collections import Counter
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import combinations, islice, repeat
from operator import and_, itemgetter

from .clutter import (
    Clutter,
    Record,
    Vertices,
    complete_clutter,
    mask_is_clique,
    mask_of,
    neighborhood_map,
    verts_of,
)
from .guards import SearchLimitReached

Multiset = Counter
LambdaSequence = tuple[int, ...]


class _StateBudget:
    """The states expanded so far, against an optional limit.

    One budget is shared by every search that serves one decision, so the
    limit bounds their sum.  A negative limit raises ValueError.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None):
        if limit is not None and limit < 0:
            raise ValueError(f"max_states must be non-negative, got {limit}")
        self.limit = limit
        self.spent = 0

    def expand(self, states: int = 1) -> None:
        """Count states more, or raise SearchLimitReached past the limit.

        A charge that would pass the limit spends it up to the limit and
        raises, as that many single expansions would.
        """
        if self.limit is not None and self.spent + states > self.limit:
            self.spent = self.limit
            raise SearchLimitReached(f"no answer after expanding {self.spent} states")
        self.spent += states


class SimplicialOrder(Record):
    """A complete simplicial order: (element, open-neighborhood size) steps."""

    __slots__ = ("steps",)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def elements(self) -> tuple[Vertices, ...]:
        return tuple(map(itemgetter(0), self.steps))

    @property
    def neighborhood_sizes(self) -> tuple[int, ...]:
        return tuple(map(itemgetter(1), self.steps))


# ----- the deletion state ---------------------------------------------------


def _circuits_through(e: int, nbr: int) -> list[int]:
    """The circuits e + {c} for each vertex c of the neighborhood mask nbr."""
    out = []
    while nbr:
        low = nbr & -nbr
        out.append(e | low)
        nbr ^= low
    return out


class _DeletionState:
    """Circuits, neighborhoods and simplicial flags under deletion.

    delete(e) removes every circuit containing e, for a simplicial e (the
    only kind any search deletes), and updates the neighborhood map and
    the flags by the rule in the module docstring; undo() reverts the
    latest deletion not yet undone, which must have run in a settled
    state, as the driver's deletions do.  Elements are numbered by lex rank
    (by_rank lists them, rank maps back), and flags is a bit mask over
    those ranks.  Flags are exact below the frontier rank and absent from
    it up: no clique test runs until settle() asks for one, and it tests
    only the elements in the map.
    """

    __slots__ = ("d", "circuits", "nbrs", "rank", "by_rank", "flags", "frontier", "_undo")

    def __init__(self, circuits: frozenset[int], d: int):
        self.d = d
        self.circuits = set(circuits)
        self.nbrs = nbrs = neighborhood_map(circuits)
        self.by_rank = sorted(nbrs, key=verts_of)
        self.rank = {e: r for r, e in enumerate(self.by_rank)}
        self.flags = self.frontier = 0
        # Per deletion: (e, N(e), old N(f) of every shrunk f, flipped flags).
        self._undo: list[tuple[int, int, dict[int, int], int]] = []

    def candidates(self) -> list[int]:
        """The simplicial element masks, lex sorted by vertex tuple.

        verts_of lists the positions of the settled flags' bits, 1-based.
        """
        return [self.by_rank[i - 1] for i in verts_of(self.settle())]

    def settle(self, first: bool = False) -> int:
        """Clique-test the elements from the frontier up; return the flags.

        The tests run up the ranks, and a rank whose element has left the
        map is skipped without a test.  Every flag is exact afterwards,
        unless first is set: then the tests stop at the first element that
        passes, with the frontier just above it.
        """
        nbrs, by_rank = self.nbrs, self.by_rank
        for r in range(self.frontier, len(by_rank)):
            f = by_rank[r]
            nbr = nbrs.get(f)
            if nbr and self._closed_is_clique(f, nbr):
                self.flags |= 1 << r
                if first:
                    self.frontier = r + 1
                    return self.flags
        self.frontier = len(by_rank)
        return self.flags

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
        flags, frontier = self.flags, self.frontier
        flipped = 0
        for f in old:
            nbr = nbrs[f]
            bit = 1 << rank[f]
            if not nbr:
                del nbrs[f]
                flipped |= flags & bit
            elif not flags & bit and rank[f] < frontier and self._closed_is_clique(f, nbr):
                flipped |= bit
        if self.d > 2 and gone & (gone - 1):
            # The (d-1)-subsets of the clique N[e] with two or more
            # vertices in N(e): each simplicial one flips.  Each lies in
            # a circuit of N[e], so it has a rank.
            for f in map(sum, combinations(_circuits_through(0, e | gone), self.d - 1)):
                if (f & gone).bit_count() > 1:
                    flipped |= flags & 1 << rank[f]
        self.flags ^= flipped
        self._undo.append((e, gone, old, flipped))

    def undo(self) -> None:
        e, gone, old, flipped = self._undo.pop()
        self.circuits.update(_circuits_through(e, gone))
        self.nbrs.update(old)
        self.flags ^= flipped


def simplicial_elements(clutter: Clutter) -> frozenset[Vertices]:
    """All simplicial (d-1)-subsets of the clutter."""
    state = _DeletionState(clutter.mask_set(), clutter.d)
    return frozenset(map(verts_of, state.candidates()))


# ----- the deletion-sequence driver -----------------------------------------


def _deletion_sequences(live: _DeletionState, target: frozenset[int],
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
    # neighborhood) step taken out of path[i]; live holds the state after
    # every step, and after backing up it is path[-1]'s state again, so
    # its untried candidates are live.flags's bits from that rank up.  The
    # driver deletes only in this settled state, so every flag is exact.
    path: list[list[int]] = []
    steps: list[tuple[int, int]] = []
    while True:
        if len(circuits) == len(target) and circuits == target:
            yield tuple(steps)
            yielded += 1
            if steps:
                steps.pop()
                live.undo()
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
                    steps.pop()
                    live.undo()
                continue
            here[0] = low.bit_length()
            live.delete(e)
            steps.append((e, nbr))
            break
        else:
            return


def _order(steps: Iterable[tuple[int, int]]) -> SimplicialOrder:
    elements, nbrs = [*zip(*steps)] or ((), ())
    return SimplicialOrder(tuple(zip(map(verts_of, elements), map(int.bit_count, nbrs))))


def _greedy(live: _DeletionState, most: int | None = None) -> list[tuple[int, int]]:
    """Delete the lex-first simplicial element while there is one.

    Returns the (element mask, open-neighborhood mask) steps, at most
    most of them when most is given.  The run completed when live has no
    circuit left, and stopped short otherwise.  The lowest flag is the
    lex-first simplicial element; with none set, live is tested upward
    from its frontier until an element passes.
    """
    steps = []
    while len(steps) != most and (flags := live.flags or live.settle(first=True)):
        e = live.by_rank[(flags & -flags).bit_length() - 1]
        steps.append((e, live.nbrs[e]))
        live.delete(e)
    return steps


def _components(nbrs: dict[int, int], rank: dict[int, int]
                ) -> Iterator[tuple[int, set[int]]]:
    """The (d-1)-components of the circuits nbrs maps, lex-first circuit first.

    Two circuits are joined when they share d-1 vertices, that is, when
    both contain the same (d-1)-set.  Each component comes as the mask of
    its elements' ranks and its circuits, in rank order of its lex-first
    element, which is the lex-first (d-1)-subset of its lex-first circuit.
    rank lists every element of nbrs in rank order, as a deletion state
    of the same circuits numbers them.  The components take nbrs's entries
    out as they go, so it ends empty.
    """
    for first in rank:
        if first not in nbrs:
            continue
        ranks, circuits, todo = 0, set(), [(first, nbrs.pop(first))]
        while todo:
            f, nbr = todo.pop()
            ranks |= 1 << rank[f]
            for m in _circuits_through(f, nbr):
                if m in circuits:
                    continue
                circuits.add(m)
                rest = m
                while rest:
                    low = rest & -rest
                    rest ^= low
                    g = m ^ low
                    if g in nbrs:
                        todo.append((g, nbrs.pop(g)))
        yield ranks, circuits


# ----- full decision procedure ---------------------------------------------


def find_simplicial_order(clutter: Clutter,
                          max_states: int | None = None) -> SimplicialOrder | None:
    """Decide chordality, returning the lex-first witness order or None.

    None is a definitive negative.  Greedy deletion runs first; its order
    is the witness when it completes, and a stuck run decides "not
    chordal" for d = 2.  After a stuck run for other d, each component
    greedy did not empty is decided on its own: one that greedy took no
    step in fails at once when greedy tested every element left and
    found none simplicial, and the backtracking driver decides every
    other one on a deletion state of its own (the soundness arguments
    are in the module docstring).  With max_states set,
    SearchLimitReached is raised once that many states have been
    expanded, leaving the question open: one state per greedy step (the
    state a d = 2 run gets stuck in included), and after a stuck run for
    other d, greedy's steps in each emptied component and the driver's
    distinct states in each other one, summed over the components in the
    order of their lex-first circuits.  Under max_states greedy stops
    after max_states + 1 steps, so a small budget bounds the work as
    well.  A negative max_states raises ValueError.
    """
    budget = _StateBudget(max_states)
    live = _DeletionState(clutter.mask_set(), clutter.d)
    steps = _greedy(live, None if max_states is None else max_states + 1)
    if not live.circuits or clutter.d == 2:
        budget.expand(len(steps) + bool(live.circuits))
        return None if live.circuits else _order(steps)
    rank = live.rank
    left = sum(1 << rank[f] for f in live.nbrs)
    taken = sum(1 << rank[e] for e, _ in steps)
    # Settled: every element left was tested, and none is simplicial.
    settled = not live.flags and live.frontier == len(live.by_rank)
    stuck, witnesses = 0, []
    for ranks, circuits in _components(neighborhood_map(clutter.circuit_masks), rank):
        if not ranks & left:
            budget.expand((ranks & taken).bit_count())
        elif settled and not ranks & taken:
            budget.expand()
            return None
        else:
            part = _DeletionState(circuits, clutter.d)
            found = next(_deletion_sequences(part, frozenset(), budget), None)
            if found is None:
                return None
            witnesses.append(found)
            stuck |= ranks
    witnesses.append(step for step in steps if not stuck >> rank[step[0]] & 1)
    import heapq  # only this path merges, so a completed search never loads it
    return _order(heapq.merge(*witnesses, key=lambda step: rank[step[0]]))


def is_chordal(clutter: Clutter, max_states: int | None = None) -> bool:
    return find_simplicial_order(clutter, max_states) is not None


def greedy_simplicial_order(clutter: Clutter) -> SimplicialOrder | None:
    """Repeatedly delete the lex-first simplicial element.

    Returns None when stuck.  For d = 2 a stuck run proves the graph is
    not chordal; for other d it is not evidence against chordality, and
    find_simplicial_order makes the actual decision.  That decision
    starts with this same run, and returns its order when it completes.
    """
    live = _DeletionState(clutter.mask_set(), clutter.d)
    steps = _greedy(live)
    return None if live.circuits else _order(steps)


def enumerate_simplicial_orders(clutter: Clutter,
                                limit: int = 100_000,
                                max_submaximal: int = 24) -> list[SimplicialOrder]:
    """Every complete simplicial order, up to limit.

    Guarded by the number of submaximal circuits, since the order count
    can grow factorially.  Branches that provably cannot complete are
    pruned through the same failed-state memo as the decision search.
    """
    live = _DeletionState(clutter.mask_set(), clutter.d)
    n_sub = len(live.by_rank)
    if n_sub > max_submaximal:
        raise ValueError(
            f"{n_sub} submaximal circuits exceed the enumeration guard "
            f"of {max_submaximal}; raise max_submaximal to proceed")
    sequences = _deletion_sequences(live, frozenset(), _StateBudget(None))
    return [_order(steps) for steps in islice(sequences, limit)]


# ----- witness replay -------------------------------------------------------


def replay_order(clutter: Clutter,
                 elements: Iterable[Vertices]) -> tuple[int, ...]:
    """Re-run a sequence of deletions, checking each step is simplicial.

    Returns the open-neighborhood sizes seen along the way.  Raises
    ValueError on the first non-simplicial element or when circuits
    remain at the end, so a successful replay certifies a witness.
    """
    d = clutter.d
    state = clutter.mask_set()
    sizes = []
    for e in elements:
        emask = mask_of(e)
        if emask.bit_count() != d - 1:
            raise ValueError(f"{tuple(e)} is not a {d - 1}-subset")
        nbr = 0
        for m in state:
            if m & emask == emask:
                nbr |= m ^ emask
        if nbr == 0:
            raise ValueError(f"{tuple(e)} is not submaximal at its step")
        if not mask_is_clique(state, emask | nbr, d):
            raise ValueError(f"{tuple(e)} is not simplicial at its step")
        sizes.append(nbr.bit_count())
        state = frozenset(m for m in state if m & emask != emask)
    if state:
        raise ValueError(f"{len(state)} circuits remain after the sequence")
    return tuple(sizes)


# ----- derived invariants ----------------------------------------------------


def simplicial_multiset(order: SimplicialOrder) -> Multiset:
    """Multiset of open-neighborhood sizes of a complete order."""
    return Counter(order.neighborhood_sizes)


def lambda_sequence(multiset: Multiset | Iterable[int]) -> LambdaSequence:
    """lambda_i = multiplicity of i in the multiset, trailing zeros trimmed.

    Entries are 1-indexed: the returned tuple lists lambda_1 onward.
    """
    counts = Counter(multiset)
    if any(v < 1 for v in counts):
        raise ValueError("neighborhood sizes must be positive integers")
    if not counts:
        return ()
    top = max(counts)
    seq = [counts.get(i, 0) for i in range(1, top + 1)]
    return tuple(seq)


def multiset_from_lambda(lam: Iterable[int]) -> Multiset:
    """Inverse of lambda_sequence: value i with multiplicity lambda_i."""
    ms: Multiset = Counter()
    for i, mult in enumerate(lam, start=1):
        if mult < 0:
            raise ValueError("multiplicities must be non-negative")
        if mult:
            ms[i] = mult
    return ms


def lambda_of(clutter: Clutter, max_states: int | None = None) -> LambdaSequence | None:
    """Convenience: lambda-sequence via the decision search, None if not chordal."""
    order = find_simplicial_order(clutter, max_states)
    if order is None:
        return None
    return lambda_sequence(simplicial_multiset(order))


# ----- co-chordality ---------------------------------------------------------


def co_chordal_sequence(clutter: Clutter,
                        max_states: int | None = None) -> tuple[Vertices, ...] | None:
    """A simplicial sequence carving the complete clutter down to this one.

    Searches for e_1, ..., e_r, each simplicial in the running deletion
    of the complete d-uniform clutter on [n], whose deletions remove
    exactly the complement's circuits.  Returns the sequence (empty for
    the complete clutter itself) or None when no such sequence exists.
    With max_states set, SearchLimitReached is raised once the driver
    has expanded that many distinct states; a negative one raises
    ValueError.

    Chordality and co-chordality are logically independent here: one is
    never inferred from the other.
    """
    budget = _StateBudget(max_states)
    live = _DeletionState(complete_clutter(clutter.n, clutter.d).mask_set(), clutter.d)
    steps = next(_deletion_sequences(live, clutter.mask_set(), budget), None)
    return None if steps is None else tuple(verts_of(e) for e, _ in steps)


def is_co_chordal(clutter: Clutter, max_states: int | None = None) -> bool:
    return co_chordal_sequence(clutter, max_states) is not None
