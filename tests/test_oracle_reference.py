"""Both sides of `invariants --verify` against the code they replaced.

The reference functions below are the earlier implementations, copied
unchanged apart from their names: the Hochster sweep that regrew and
sorted the faces of every vertex subset, the face grower it called,
the later walk that narrowed each subset's faces from its parent's and
ranked them afresh, the upward sweep after it, which read every face
including the (d-2)-skeleton and pushed every child (with the XOR-basis
insertion it called; its Bareiss fallback regrows the subset's complex
and ranks it as the deleted _rational_ranks did),
the rational homology it ranked, with the cone-vertex test that
skipped cones, the private clique-growing loop of f_vector_direct,
the direct polynomial expansions of the h-vector and the Betti numbers
from a simplicial multiset, with the (1-t)^m helper they called (the
Betti expansion now hands _betti_from_expansion its coefficient tuple,
and the sweep builds the face-mask set that FaceList.all_masks gave),
and the double sums of signed binomials that h_from_f and betti_from_h
took before they multiplied by (1 - t) one factor at a time.  One
reference is not an earlier implementation: the rank over Q is plain
Gaussian elimination on Fractions, since the earlier Bareiss loop
skipped the same rows as the library's and agreed with it where both
were wrong.  Today's code builds one clique complex per oracle call,
ranks over GF(2) with a Bareiss fallback, and derives h and Betti from
f through h_from_f and betti_from_h; it must return exactly what the
references return, and raise ValueError exactly where they do.
"""

from __future__ import annotations

import itertools
import random
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from clutterlab import (
    betti_from_h,
    betti_from_multiset,
    clique_complex_faces,
    clutter_from_masks,
    complete_clutter,
    delta_from_multiset,
    f_vector_direct,
    f_vector_from_multiset,
    h_from_f,
    h_vector_from_multiset,
    hochster_betti,
    make_clutter,
    random_chordal_clutter,
    reduced_homology_ranks,
)
from clutterlab import homology, invariants
from clutterlab.clutter import Clutter, Vertices, mask_of, verts_of
from clutterlab.guards import F_VECTOR_DEFAULT, FACES_DEFAULT, HOCHSTER_DEFAULT, check_cap
from clutterlab.homology import FaceList, GradedBettiTable
from clutterlab.invariants import _as_counts, _betti_from_expansion
from clutterlab.polynomials import IntPolynomial, binom

# ----- reference: the oracle side ----------------------------------------------


def ref_clique_complex_faces(clutter: Clutter, within: Iterable[int],
                             max_n: int | None = None) -> FaceList:
    """Faces of the clique complex induced on a vertex subset.

    A face is any subset of `within` all of whose d-subsets are
    circuits; subsets with fewer than d vertices qualify vacuously.
    Faces are grown one vertex at a time, so only the new d-subsets are
    re-tested at each level.
    """
    w = tuple(sorted(set(within)))
    for v in w:
        if not 1 <= v <= clutter.n:
            raise ValueError(f"vertex {v} out of range 1..{clutter.n}")
    check_cap("clique_complex_faces", len(w), FACES_DEFAULT, max_n)
    circuits = clutter.mask_set()
    d = clutter.d
    levels: list[tuple[int, ...]] = [(0,)]
    current: list[int] = [0]
    while current:
        grown = []
        for fmask in current:
            members = verts_of(fmask)
            start = fmask.bit_length()  # extend by vertices above the max
            for v in w:
                if v <= start:
                    continue
                vbit = 1 << (v - 1)
                if len(members) + 1 < d:
                    grown.append(fmask | vbit)
                    continue
                ok = True
                for sub in itertools.combinations(members, d - 1):
                    m = vbit
                    for u in sub:
                        m |= 1 << (u - 1)
                    if m not in circuits:
                        ok = False
                        break
                if ok:
                    grown.append(fmask | vbit)
        if grown:
            grown.sort(key=verts_of)
            levels.append(tuple(grown))
        current = grown
    return FaceList(w, tuple(levels))


def ref_integer_matrix_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions.

    Independent of the library's Bareiss elimination: every division is
    exact in Q, so no rescaling rule can go wrong.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for line in mat[rank + 1:]:
            ratio = line[col] / top[col]
            for c in range(col, len(top)):
                line[c] -= ratio * top[c]
        rank += 1
    return rank


def ref_boundary_rank(upper: tuple[int, ...], lower: tuple[int, ...]) -> int:
    """Rank of the boundary map from size-(k+1) faces to size-k faces."""
    if not upper or not lower:
        return 0
    index = {m: c for c, m in enumerate(lower)}
    rows = []
    for fmask in upper:
        row = [0] * len(lower)
        members = verts_of(fmask)
        for pos, v in enumerate(members):
            sub = fmask ^ (1 << (v - 1))
            row[index[sub]] = -1 if pos % 2 else 1
        rows.append(row)
    return ref_integer_matrix_rank(rows)


def ref_reduced_homology_ranks(faces: FaceList) -> tuple[int, ...]:
    """Reduced rational homology ranks, dimensions -1 through dim.

    Entry k of the result is rank H~_{k-1}.  Uses the reduced chain
    complex, so the empty face is a genuine generator in dimension -1
    and every vertex maps onto it.
    """
    by_size = faces.by_size
    top = len(by_size) - 1
    ranks_of_maps = [0] * (top + 2)  # ranks_of_maps[k]: size k -> size k-1
    for k in range(1, top + 1):
        ranks_of_maps[k] = ref_boundary_rank(by_size[k], by_size[k - 1])
    out = []
    for k in range(top + 1):
        out.append(len(by_size[k]) - ranks_of_maps[k] - ranks_of_maps[k + 1])
    return tuple(out)


def ref_has_cone_vertex(face_masks: frozenset[int], universe: Vertices) -> bool:
    """A vertex lying in a face with every face is a cone apex.

    Cones are contractible, so all reduced homology vanishes; checking
    this first skips most of the elimination work.
    """
    for v in universe:
        vbit = 1 << (v - 1)
        if all(m | vbit in face_masks for m in face_masks):
            return True
    return False


def ref_hochster_betti(clutter: Clutter, max_n: int | None = None) -> GradedBettiTable:
    """Graded Betti numbers of the circuit ideal by subset decomposition.

    Walks every vertex subset W, computes the reduced homology of the
    induced clique complex, and books rank H~_{|W|-i-2} into entry
    (i, |W|).  The complete clutter yields an empty table (zero ideal).
    """
    check_cap("hochster_betti", clutter.n, HOCHSTER_DEFAULT, max_n)
    n = clutter.n
    table: dict[tuple[int, int], int] = {}
    vertices = range(1, n + 1)
    for size in range(n + 1):
        for w in itertools.combinations(vertices, size):
            faces = ref_clique_complex_faces(clutter, w, max_n=max(n, FACES_DEFAULT))
            face_masks = frozenset(m for level in faces.by_size for m in level)
            if ref_has_cone_vertex(face_masks, faces.universe):
                continue
            ranks = ref_reduced_homology_ranks(faces)
            for k_plus_1, rank in enumerate(ranks):
                if rank == 0:
                    continue
                i = size - k_plus_1 - 1  # homological position for dim k = k_plus_1 - 1
                if i >= 0:
                    table[(i, size)] = table.get((i, size), 0) + rank
    entries = tuple(sorted(table.items()))
    return GradedBettiTable(n, clutter.d, entries)


def ref_walk_hochster_betti(clutter: Clutter, max_n: int | None = None) -> GradedBettiTable:
    """Graded Betti numbers of the circuit ideal by subset decomposition.

    Builds the clique complex on all n vertices once, then walks the
    vertex subsets depth-first from [n], removing vertices in
    increasing order: W - v is visited from W only when v exceeds the
    vertex removed last on the way to W.  So each subset is reached
    exactly once, from the parent that adds back its largest missing
    vertex.  The faces inside W - v are the faces of W that miss v,
    taken level by level in the complex's lex order; since faces are
    closed downward, the first level with none ends the complex.  Its
    reduced homology books rank H~_{|W|-i-2} into entry (i, |W|).  The
    complete clutter yields an empty table (zero ideal).
    """
    check_cap("hochster_betti", clutter.n, HOCHSTER_DEFAULT, max_n)
    n = clutter.n
    table: dict[tuple[int, int], int] = {}
    full = clique_complex_faces(clutter, range(1, n + 1), max_n=n)
    rows = homology._gf2_rows(full.by_size)
    # Each entry is a subset's parent, the parent's levels and the vertex to
    # remove (0 for [n] itself); a child is narrowed only once it is popped.
    stack = [(full.universe, full.by_size, 0)]
    while stack:
        w, levels, v = stack.pop()
        if v:
            vbit = 1 << (v - 1)
            w = tuple([u for u in w if u != v])
            narrowed = []
            for level in levels:
                # Not tuple(generator): shrinking its 10-slot tuple shuffles
                # tuple free lists and added 1 MB to 100 --verify jobs' peak.
                inside = tuple([m for m in level if not m & vbit])
                if not inside:
                    break
                narrowed.append(inside)
            levels = tuple(narrowed)
        ranks = reduced_homology_ranks(FaceList(w, levels), rows)
        size = len(w)
        # dim k = k_plus_1 - 1 books into i = size - k_plus_1 - 1 >= 0
        for k_plus_1, rank in enumerate(ranks[:size]):
            if rank:
                key = (size - k_plus_1 - 1, size)
                table[key] = table.get(key, 0) + rank
        stack.extend((w, levels, u) for u in w if u > v)
    entries = tuple(sorted(table.items()))
    return GradedBettiTable(n, clutter.d, entries)


def ref_gf2_insert(basis: dict[int, int], row: int) -> bool:
    """Add a row to an XOR basis that keys each row by its top bit.

    The row is reduced by the basis row with its top bit until it
    vanishes or brings a new top bit, which it is then filed under.
    Returns whether it was independent of the basis, and so added.
    """
    while row:
        top = row.bit_length()
        if top not in basis:
            basis[top] = row
            return True
        row ^= basis[top]
    return False


def ref_upward_hochster_betti(clutter: Clutter, max_n: int | None = None) -> GradedBettiTable:
    """Graded Betti numbers of the circuit ideal by subset decomposition.

    Builds the clique complex on all n vertices and its GF(2) boundary
    rows once, then walks the vertex subsets upward from the empty set:
    W + u is visited from W only for u > max W, so each nonempty subset
    is reached exactly once, from itself minus its largest vertex.  Each
    subset extends its parent's ranks and XOR bases by the rows of every
    face whose largest vertex is u, vertices included, in increasing
    mask order; a face whose boundary already bounds is not reduced.
    Each subset's reduced homology, certified over Q, books rank
    H~_{|W|-i-2} into entry (i, |W|); a subset whose certificate fails
    regrows its own complex for Bareiss.  The complete clutter yields an
    empty table (zero ideal).
    """
    check_cap("hochster_betti", clutter.n, HOCHSTER_DEFAULT, max_n)
    n = clutter.n
    table: dict[tuple[int, int], int] = {}
    full = clique_complex_faces(clutter, range(1, n + 1), max_n=n)
    rows = homology._gf2_rows(full.by_size)
    # An entry is a subset's mask, its parent's homology ranks (indexed as
    # reduced_homology_ranks returns them) and bases (basis k spans the rows
    # of the size-k faces), its new faces and the faces its descendants may
    # still add, both in increasing mask order.
    depth = len(full.by_size)
    stack = [(0, [1] + [0] * (depth - 1), [{}] * depth, [], sorted(rows))]
    while stack:
        w, ranks, bases, new, later = stack.pop()
        ranks = ranks[:]
        grown = bases[:]
        for fmask in new:
            k = fmask.bit_count()
            if ranks[k - 1]:
                if grown[k] is bases[k]:
                    grown[k] = dict(bases[k])
                if ref_gf2_insert(grown[k], rows[fmask]):
                    ranks[k - 1] -= 1
                    continue
            ranks[k] += 1
        bases = grown
        booked = ranks
        if len(ranks) - ranks.count(0) > 1:
            sub = clique_complex_faces(clutter, verts_of(w), max_n=n)
            booked = homology._homology_ranks(sub.by_size, homology._boundary_rank)
        size = w.bit_count()
        # dim k = k_plus_1 - 1 books into i = size - k_plus_1 - 1 >= 0
        for k_plus_1, rank in enumerate(booked[:size]):
            if rank:
                key = (size - k_plus_1 - 1, size)
                table[key] = table.get(key, 0) + rank
        for u in range(w.bit_length() + 1, n + 1):
            ubit = 1 << (u - 1)
            cut = bisect_left(later, ubit << 1)  # the faces with largest vertex u
            stack.append((w | ubit, ranks, bases, later[:cut], later[cut:]))
            later = [m for m in later[cut:] if not m & ubit]
    entries = tuple(sorted(table.items()))
    return GradedBettiTable(n, clutter.d, entries)


def ref_f_vector_direct(clutter: Clutter, max_n: int | None = None):
    """Brute-force f-vector by growing cliques one vertex at a time.

    Independent of the multiset formula: only the clique definition is
    used.  Guarded by the oracle cap since the face count is
    exponential in the worst case.
    """
    check_cap("f_vector_direct", clutter.n, F_VECTOR_DEFAULT, max_n)
    n, d = clutter.n, clutter.d
    circuits = clutter.mask_set()
    counts = [comb(n, i) for i in range(d)]
    if d - 1 > n:
        while counts and counts[-1] == 0:
            counts.pop()
        return tuple(counts)
    if d == 1:
        level = [0]
    else:
        level = [sum(1 << (v - 1) for v in c)
                 for c in combinations(range(1, n + 1), d - 1)]
    while level:
        grown = []
        for vmask in level:
            top = vmask.bit_length()
            members = verts_of(vmask)
            for v in range(top + 1, n + 1):
                vbit = 1 << (v - 1)
                ok = True
                for sub in combinations(members, d - 1):
                    m = vbit
                    for u in sub:
                        m |= 1 << (u - 1)
                    if m not in circuits:
                        ok = False
                        break
                if ok:
                    grown.append(vmask | vbit)
        if grown:
            counts.append(len(grown))
        level = grown
    return tuple(counts)


# ----- reference: the formula side ---------------------------------------------


def one_minus_t(m: int) -> IntPolynomial:
    """(1 - t)**m from binomial coefficients."""
    if m < 0:
        raise ValueError(f"non-negative exponent expected, got {m}")
    return IntPolynomial([(-1) ** k * binom(m, k) for k in range(m + 1)])


def ref_h_polynomial_from_multiset(n: int, d: int,
                                   multiset: Counter | Iterable[int]) -> IntPolynomial:
    """h-polynomial straight from the multiset.

    h(t) = sum_{i<d, i<=n} C(n,i) t^i (1-t)^(delta-i)
         + t^(d-1) * sum_k ((1-t)^(top-size_k) - (1-t)^top),
    where top is the largest neighborhood size (0 when empty) and delta
    is ref_delta's.
    """
    counts = _as_counts(multiset)
    if any(size > n - d + 1 for size in counts):
        raise ValueError("a neighborhood size exceeds n - d + 1")
    top = max(counts) if counts else 0
    delta = ref_delta(n, d, counts)
    poly = IntPolynomial()
    for i in range(min(d, n + 1)):
        poly = poly + one_minus_t(delta - i).scale(binom(n, i)).shift(i)
    tail = IntPolynomial()
    for size, mult in counts.items():
        tail = tail + (one_minus_t(top - size) - one_minus_t(top)).scale(mult)
    return poly + tail.shift(d - 1)


def ref_delta(n: int, d: int, multiset: Counter | Iterable[int]) -> int:
    """dim + 1 of the clique complex: top + d - 1, and never above n.

    A face has at most n vertices.  Only an empty clutter with d > n + 1
    reaches that bound: its complex is the whole simplex on [n].
    """
    return min(max(_as_counts(multiset), default=0) + d - 1, n)


def ref_h_vector_from_multiset(n: int, d: int,
                               multiset: Counter | Iterable[int]):
    """h-vector padded to its full delta + 1 entries."""
    delta = ref_delta(n, d, multiset)
    coeffs = ref_h_polynomial_from_multiset(n, d, multiset).coeffs
    if len(coeffs) > delta + 1:
        raise AssertionError("h-polynomial degree exceeds delta")
    return tuple(coeffs) + (0,) * (delta + 1 - len(coeffs))


def ref_betti_from_multiset(n: int, d: int,
                            multiset: Counter | Iterable[int]):
    """Total Betti numbers straight from the multiset.

    1 + sum (-1)^(i+1) beta_i t^(i+d)
      = sum_{i<d} C(n,i) t^i (1-t)^(n-i)
      + t^(d-1) * sum_k ((1-t)^(n-size_k-d+1) - (1-t)^(n-d+1)).

    Raises ValueError for the complete clutter (zero circuit ideal has
    no Betti sequence) and for multisets whose circuit count exceeds
    C(n, d).
    """
    counts = _as_counts(multiset)
    if any(size > n - d + 1 for size in counts):
        raise ValueError("a neighborhood size exceeds n - d + 1")
    r = sum(size * mult for size, mult in counts.items())
    total = comb(n, d) if n >= d else 0
    if r > total:
        raise ValueError(f"multiset accounts for {r} circuits, only {total} exist")
    if r == total:
        raise ValueError(
            "complete clutter: the circuit ideal is zero and has no Betti sequence")
    poly = IntPolynomial()
    for i in range(d):
        poly = poly + one_minus_t(n - i).scale(binom(n, i)).shift(i)
    tail = IntPolynomial()
    for size, mult in counts.items():
        diff = one_minus_t(n - size - d + 1) - one_minus_t(n - d + 1)
        tail = tail + diff.scale(mult)
    return _betti_from_expansion((poly + tail.shift(d - 1)).coeffs, d)


def ref_h_from_f(f):
    """h-vector from an f-vector; delta is the f-vector's top index."""
    if not f or f[0] != 1:
        raise ValueError("an f-vector starts with f_-1 = 1")
    delta = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * comb(delta - i, k - i) * f[i] for i in range(k + 1))
        for k in range(delta + 1)
    )


def ref_betti_from_h(n: int, d: int, h, delta: int):
    """Total Betti numbers of the circuit ideal from its h-vector.

    Expands (1-t)^(n-delta) * h(t) and reads the alternating tail.
    Raises ValueError when the expansion is not d-linear in shape,
    which is how a non-linear-resolution input announces itself.
    """
    if len(h) > delta + 1:
        raise ValueError(f"h-vector longer than delta + 1 = {delta + 1}")
    if delta > n:
        raise ValueError(f"delta = {delta} cannot exceed n = {n}")
    m = n - delta
    expansion = tuple([
        sum((-1) ** (k - i) * comb(m, k - i) * h[i] for i in range(min(k + 1, len(h))))
        for k in range(m + len(h))
    ])
    return _betti_from_expansion(expansion, d)


# ----- comparisons -------------------------------------------------------------


def all_clutters(n: int, d: int):
    """Every d-uniform clutter on [n], one per subset of the d-subsets."""
    masks = [mask_of(c) for c in combinations(range(1, n + 1), d)]
    for pick in range(1 << len(masks)):
        yield clutter_from_masks(n, d, (m for j, m in enumerate(masks) if pick >> j & 1))


def random_clutter(n: int, d: int, p: float, rng: random.Random) -> Clutter:
    """Each d-subset of [n] a circuit with probability p."""
    masks = [mask_of(c) for c in combinations(range(1, n + 1), d)]
    return clutter_from_masks(n, d, (m for m in masks if rng.random() < p))


def seeded_clutters(count: int, seed: int):
    """Chordal and arbitrary clutters with 6 <= n <= 10 and 2 <= d <= 4.

    The first ten cover each n from 6 to 10 twice; the rest have n = 6,
    because the reference sweep's cost doubles with every vertex.
    Arbitrary clutters above n = 8 are sparse: a dense one at n = 10
    takes the two sweeps about 1.5 s.
    """
    rng = random.Random(seed)
    for k in range(count):
        n = 6 + k // 2 if k < 10 else 6
        d = 2 + k % 3
        if k % 2:
            yield random_chordal_clutter(n, d, steps=rng.randint(1, 8), rng=rng)
        else:
            yield random_clutter(n, d, rng.choice((0.3, 0.6, 0.9)) if n <= 8 else 0.3, rng)


@pytest.mark.parametrize("n,d", [(5, 2), (5, 3)])
def test_oracles_agree_exhaustively(n, d):
    nonlinear = 0
    for c in all_clutters(n, d):
        table = hochster_betti(c)
        assert table == ref_hochster_betti(c), c
        assert f_vector_direct(c) == ref_f_vector_direct(c), c
        nonlinear += not table.is_linear()
    assert nonlinear > 0  # the sweep reaches non-linear resolutions too


def test_oracles_agree_on_seeded_clutters():
    for c in seeded_clutters(200, seed=3):
        assert hochster_betti(c) == ref_hochster_betti(c), c
        assert f_vector_direct(c) == ref_f_vector_direct(c), c
        full = clique_complex_faces(c, range(1, c.n + 1), max_n=c.n)
        assert full == ref_clique_complex_faces(c, range(1, c.n + 1), max_n=c.n), c


def test_oracles_agree_on_seeded_6_3_and_7_3():
    rng = random.Random(11)
    for n in (6, 7):
        for k in range(30):
            if k % 2:
                c = random_chordal_clutter(n, 3, steps=rng.randint(1, 2 * n), rng=rng)
            else:
                c = random_clutter(n, 3, rng.choice((0.3, 0.5, 0.7, 0.9)), rng)
            assert hochster_betti(c) == ref_hochster_betti(c), c


class CountCalls:
    """Stand-in for a function that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_ranks_agree_on_every_induced_subcomplex(monkeypatch):
    bareiss = CountCalls(homology.integer_matrix_rank)
    monkeypatch.setattr(homology, "integer_matrix_rank", bareiss)
    rng = random.Random(19)
    subsets = 0
    for k in range(12):
        n, d = 6 + k % 3, 2 + k % 3
        c = random_clutter(n, d, rng.choice((0.3, 0.5, 0.7)), rng)
        full = clique_complex_faces(c, range(1, n + 1))
        rows = homology._gf2_rows(full.by_size)
        for size in range(n + 1):
            for w in combinations(range(1, n + 1), size):
                faces = clique_complex_faces(c, w)
                expected = ref_reduced_homology_ranks(faces)
                assert reduced_homology_ranks(faces) == expected, (c, w)
                assert reduced_homology_ranks(faces, rows) == expected, (c, w)
                subsets += 1
    assert subsets == 4 * (64 + 128 + 256)
    assert bareiss.calls > 0  # the sweep reaches the fallback too


# The 6-vertex real projective plane: every pair of vertices is an edge,
# and these 10 triangles hold no tetrahedron, so its clique complex as a
# 3-uniform clutter is RP^2 itself.
RP2 = make_clutter(6, 3, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                          (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)])


def test_projective_plane_takes_the_bareiss_fallback(monkeypatch):
    faces = clique_complex_faces(RP2, range(1, 7))
    rows = homology._gf2_rows(faces.by_size)
    gf2 = homology._homology_ranks(
        faces.by_size, lambda upper, _: homology._gf2_rank(map(rows.__getitem__, upper)))
    assert gf2 == (0, 0, 1, 1)  # F_2 sees H~_1 and H~_2: two degrees
    bareiss = CountCalls(homology.integer_matrix_rank)
    monkeypatch.setattr(homology, "integer_matrix_rank", bareiss)
    assert reduced_homology_ranks(faces) == (0, 0, 0, 0)  # Q sees no homology
    assert ref_reduced_homology_ranks(faces) == (0, 0, 0, 0)
    assert bareiss.calls > 0
    calls = bareiss.calls
    assert hochster_betti(RP2) == ref_hochster_betti(RP2)
    assert bareiss.calls > calls


def test_sweep_fallback_goes_straight_to_bareiss(monkeypatch):
    # The sweep builds the GF(2) rows once, and a subset whose certificate
    # fails is not ranked over GF(2) a second time before Bareiss.
    rows = CountCalls(homology._gf2_rows)
    gf2_rank = CountCalls(homology._gf2_rank)
    bareiss = CountCalls(homology.integer_matrix_rank)
    monkeypatch.setattr(homology, "_gf2_rows", rows)
    monkeypatch.setattr(homology, "_gf2_rank", gf2_rank)
    monkeypatch.setattr(homology, "integer_matrix_rank", bareiss)
    for calls in (1, 2):
        assert hochster_betti(RP2) == ref_hochster_betti(RP2)
        assert rows.calls == calls
    assert gf2_rank.calls == 0 and bareiss.calls > 0


def seeded_6_3_and_7_3():
    """The sixty clutters of test_oracles_agree_on_seeded_6_3_and_7_3."""
    rng = random.Random(11)
    for n in (6, 7):
        for k in range(30):
            if k % 2:
                yield random_chordal_clutter(n, 3, steps=rng.randint(1, 2 * n), rng=rng)
            else:
                yield random_clutter(n, 3, rng.choice((0.3, 0.5, 0.7, 0.9)), rng)


def test_both_walks_fall_back_on_the_same_subsets(monkeypatch):
    # The narrowing walk runs the F_2 certificate once per subset, and
    # each fallback ranks every boundary map of the subset's complex.
    bareiss = CountCalls(homology.integer_matrix_rank)
    monkeypatch.setattr(homology, "integer_matrix_rank", bareiss)
    fell_back = 0
    for c in [RP2, *seeded_6_3_and_7_3()]:
        start = bareiss.calls
        table = hochster_betti(c)
        walk = bareiss.calls - start
        assert table == ref_walk_hochster_betti(c), c
        assert bareiss.calls - start == 2 * walk, c
        fell_back += walk > 0
    assert fell_back > 1  # RP^2 and at least one seeded clutter


def test_no_fallback_on_the_benchmark_verify_inputs(monkeypatch, tmp_path):
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    try:
        from perfbench.workloads import build
    finally:
        sys.path.remove(root)
    bareiss = CountCalls(homology.integer_matrix_rank)
    monkeypatch.setattr(homology, "integer_matrix_rank", bareiss)
    jobs = build("verify_invariants", 1, tmp_path).jobs
    assert len(jobs) == 100
    for job in jobs:
        assert hochster_betti(make_clutter(job.n, job.d, job.circuits)).is_linear()
    assert bareiss.calls == 0


def test_skeleton_free_sweep_agrees_on_every_clutter_up_to_5_vertices():
    # Every d from 1 to n, so the empty clutter (no circuits), the
    # complete one, d = 1 (whose skeleton is the empty face alone) and
    # d = n (a single possible circuit) are all in.
    checked = 0
    for n in range(1, 6):
        for d in range(1, n + 1):
            for c in all_clutters(n, d):
                assert hochster_betti(c) == ref_upward_hochster_betti(c), c
                checked += 1
    assert checked == sum(2 ** comb(n, d) for n in range(1, 6) for d in range(1, n + 1))


def test_skeleton_free_sweep_agrees_on_seeded_clutters():
    rng = random.Random(23)
    for k in range(96):
        n, d = 6 + k % 4, 2 + k // 4 % 3
        if k % 2:
            c = random_chordal_clutter(n, d, steps=rng.randint(1, 3 * n), rng=rng)
        else:
            c = random_clutter(n, d, rng.choice((0.2, 0.4, 0.6, 0.8, 0.95)), rng)
        assert hochster_betti(c) == ref_upward_hochster_betti(c), c


def test_skeleton_free_sweep_agrees_on_complete_clutters():
    # Dense inputs: every subset's complex is a simplex, and the sweep's
    # "already bounds" rule decides most size-d faces of d >= 3 without
    # reducing them.
    for n in range(1, 10):
        for d in range(1, n + 1):
            c = complete_clutter(n, d)
            assert hochster_betti(c) == ref_upward_hochster_betti(c), c


class CountedRows(dict):
    """GF(2) rows that count how many are looked up, i.e. reduced."""

    lookups = 0

    def __getitem__(self, key):
        CountedRows.lookups += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("d", [1, 2])
def test_sweep_reduces_only_independent_rows_on_complete_clutters(monkeypatch, d):
    # For d <= 2 the "already bounds" test is exact, so on the simplex
    # every row the sweep reduces is independent.  The boundary
    # maps of size >= d of the simplex on s vertices have total rank
    # R(s) = sum_k C(s-1, k-1), and each subset adds R(|W|) - R(|W| - 1).
    rows = homology._gf2_rows
    monkeypatch.setattr(homology, "_gf2_rows", lambda by_size: CountedRows(rows(by_size)))
    n = 9

    def rank(s):
        return sum(comb(s - 1, k - 1) for k in range(d, s + 1)) if s else 0
    CountedRows.lookups = 0
    assert hochster_betti(complete_clutter(n, d)).entries == ()
    assert CountedRows.lookups == sum(comb(n, s) * (rank(s) - rank(s - 1))
                                      for s in range(1, n + 1))


def test_skeleton_free_sweep_agrees_on_the_benchmark_verify_inputs(tmp_path):
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    try:
        from perfbench.workloads import build
    finally:
        sys.path.remove(root)
    jobs = build("verify_invariants", 1, tmp_path).jobs
    assert len(jobs) == 100
    for job in jobs:
        c = make_clutter(job.n, job.d, job.circuits)
        assert hochster_betti(c) == ref_upward_hochster_betti(c), c


def test_sweep_builds_one_complex_and_filters_it_for_bareiss(monkeypatch):
    faces = CountCalls(homology.clique_complex_faces)
    monkeypatch.setattr(homology, "clique_complex_faces", faces)
    assert hochster_betti(RP2) == ref_hochster_betti(RP2)
    assert faces.calls == 1  # the fallback subsets reuse the full complex


def test_sweep_reads_a_complex_passed_in(monkeypatch):
    full = clique_complex_faces(RP2, range(1, 7))
    faces = CountCalls(homology.clique_complex_faces)
    monkeypatch.setattr(homology, "clique_complex_faces", faces)
    monkeypatch.setattr(invariants, "clique_complex_faces", faces)
    assert hochster_betti(RP2, faces=full) == ref_hochster_betti(RP2)
    assert f_vector_direct(RP2, faces=full) == ref_f_vector_direct(RP2)
    assert faces.calls == 0


def test_bareiss_agrees_on_random_integer_matrices():
    rng = random.Random(29)
    for _ in range(3000):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        spread = rng.choice((1, 2, 5))
        mat = [[rng.randint(-spread, spread) if rng.random() < 0.6 else 0
                for _ in range(cols)] for _ in range(rows)]
        assert homology.integer_matrix_rank(mat) == ref_integer_matrix_rank(mat), mat


def test_bareiss_rescales_every_row_it_must():
    # A row with a zero below the pivot is (p * row) // prev all the same,
    # and equals itself only when p == prev.  Skipping it whenever
    # prev == 1 read the first matrix as rank 3, and skipping it in the
    # reference too hid that from the random test above; the second
    # (determinant -306) is where the fixed rule parted from that reference.
    first = [[1, 1, -1, -1], [0, 0, 0, 1], [-1, 1, 1, 1], [0, 0, 1, 0]]
    second = [[0, 1, 0, 0, 0], [4, 3, -2, 3, 3], [-2, -1, 0, 0, 4], [-2, -4, 5, 0, 2],
              [0, 5, 0, 3, 0]]
    assert homology.integer_matrix_rank(first) == ref_integer_matrix_rank(first) == 4
    assert homology.integer_matrix_rank(second) == ref_integer_matrix_rank(second) == 5


# A 33-circuit (9,3) clutter whose sweep falls back to Bareiss on
# matrices that the skipping rule ranked too low: it booked beta_{4,8} = 27
# and beta_{5,8} = 23.
FALLBACK_9_3 = make_clutter(9, 3, [
    (1, 2, 7), (1, 2, 8), (1, 2, 9), (1, 3, 7), (1, 3, 8), (1, 3, 9), (1, 4, 5), (1, 4, 7),
    (1, 5, 8), (1, 6, 7), (1, 6, 9), (1, 7, 9), (2, 3, 5), (2, 3, 7), (2, 3, 8), (2, 5, 7),
    (2, 6, 8), (3, 4, 5), (3, 4, 8), (3, 4, 9), (3, 5, 9), (3, 7, 9), (3, 8, 9), (4, 5, 6),
    (4, 5, 8), (4, 6, 7), (4, 6, 9), (4, 7, 9), (5, 6, 7), (5, 6, 9), (5, 7, 8), (5, 7, 9),
    (5, 8, 9)])


def test_bareiss_fallback_gives_the_exact_9_3_table(monkeypatch):
    bareiss = CountCalls(homology.integer_matrix_rank)
    monkeypatch.setattr(homology, "integer_matrix_rank", bareiss)
    table = hochster_betti(FALLBACK_9_3)
    assert bareiss.calls > 0
    assert table.entries == (
        ((0, 3), 51), ((1, 4), 181), ((1, 5), 7), ((2, 5), 273), ((2, 6), 27),
        ((3, 6), 217), ((3, 7), 40), ((4, 7), 95), ((4, 8), 28), ((5, 8), 24),
        ((5, 9), 7), ((6, 9), 3))
    assert table == ref_hochster_betti(FALLBACK_9_3)  # ranked on Fractions, all 512 subsets
    faces = clique_complex_faces(FALLBACK_9_3, range(1, 10))
    assert hochster_betti(FALLBACK_9_3, faces=faces) == table  # on the input's own labels


def outcome(fn, *args):
    """A function's result, or the fact that it raised ValueError."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def small_multisets():
    """(n, d, multiset) for n < 10, every d up to n + 2 and up to 3 sizes.

    d = n + 2 leaves f shorter than delta + 1, and the sizes 0 and
    n - d + 2 are out of range, so the formulas must raise on them.
    """
    for n in range(1, 10):
        for d in range(1, n + 3):
            sizes = range(0, n - d + 3)
            for k in range(4):
                for pick in itertools.combinations_with_replacement(sizes, k):
                    yield n, d, Counter(pick)


def test_formulas_agree_on_small_multisets():
    defined = 0
    for n, d, ms in small_multisets():
        h = outcome(h_vector_from_multiset, n, d, ms)
        assert h == outcome(ref_h_vector_from_multiset, n, d, ms), (n, d, ms)
        delta = outcome(delta_from_multiset, n, d, ms)
        assert delta == outcome(ref_delta, n, d, ms), (n, d, ms)
        betti = outcome(betti_from_multiset, n, d, ms)
        assert betti == outcome(ref_betti_from_multiset, n, d, ms), (n, d, ms)
        defined += betti is not ValueError
    assert defined > 1000


def said(fn, *args):
    """A function's result, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_chain_steps_agree_with_the_double_sums_on_small_multisets():
    # h_from_f and betti_from_h multiply by (1 - t) one factor at a time;
    # the double sums of signed binomials give the same values and raise
    # the same messages.  Every delta from one below the h-vector's top
    # index to n + 1 reaches both of betti_from_h's own refusals, and the
    # f-vectors with a wrong f_-1 reach h_from_f's.
    steps = raised = 0
    for n, d, ms in small_multisets():
        f = outcome(f_vector_from_multiset, n, d, ms)
        if f is ValueError:
            continue
        for bad in ((), (0,) + f[1:], (2,) + f[1:], f[1:]):
            assert said(h_from_f, bad) == said(ref_h_from_f, bad), (n, d, ms, bad)
        h = h_from_f(f)
        assert h == ref_h_from_f(f), (n, d, ms)
        for delta in range(len(h) - 2, n + 2):
            for given in (h, h[:-1]):
                betti = said(betti_from_h, n, d, given, delta)
                assert betti == said(ref_betti_from_h, n, d, given, delta), (n, d, ms, delta)
                steps += 1
                raised += isinstance(betti, str)
    assert steps > 10000 and 1000 < raised < steps
