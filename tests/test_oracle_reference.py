"""Both sides of `invariants --verify` against the code they replaced.

The reference functions below are the earlier implementations, copied
unchanged apart from their names: the Hochster sweep that regrew and
sorted the faces of every vertex subset, the face grower it called,
the private clique-growing loop of f_vector_direct, and the direct
polynomial expansions of the h-vector and the Betti numbers from a
simplicial multiset, with the (1-t)^m helper they called (the Betti
expansion now hands _betti_from_expansion its coefficient tuple).
Today's code builds one clique complex per oracle call and derives h
and Betti from f through h_from_f and betti_from_h; it must return
exactly what the references return, and raise ValueError exactly where
they do.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Iterable
from itertools import combinations
from math import comb

import pytest

from clutterlab import (
    betti_from_multiset,
    clique_complex_faces,
    clutter_from_masks,
    f_vector_direct,
    h_vector_from_multiset,
    hochster_betti,
    random_chordal_clutter,
)
from clutterlab.clutter import Clutter, mask_of, verts_of
from clutterlab.guards import F_VECTOR_DEFAULT, FACES_DEFAULT, HOCHSTER_DEFAULT, check_cap
from clutterlab.homology import (
    FaceList,
    GradedBettiTable,
    _has_cone_vertex,
    reduced_homology_ranks,
)
from clutterlab.invariants import _as_counts, _betti_from_expansion, delta_from_multiset
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
            if _has_cone_vertex(faces.all_masks(), faces.universe):
                continue
            ranks = reduced_homology_ranks(faces)
            for k_plus_1, rank in enumerate(ranks):
                if rank == 0:
                    continue
                i = size - k_plus_1 - 1  # homological position for dim k = k_plus_1 - 1
                if i >= 0:
                    table[(i, size)] = table.get((i, size), 0) + rank
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

    h(t) = sum_{i<d} C(n,i) t^i (1-t)^(top+d-1-i)
         + t^(d-1) * sum_k ((1-t)^(top-size_k) - (1-t)^top),
    where top is the largest neighborhood size (0 when empty).
    """
    counts = _as_counts(multiset)
    if any(size > n - d + 1 for size in counts):
        raise ValueError("a neighborhood size exceeds n - d + 1")
    top = max(counts) if counts else 0
    poly = IntPolynomial()
    for i in range(d):
        poly = poly + one_minus_t(top + d - 1 - i).scale(binom(n, i)).shift(i)
    tail = IntPolynomial()
    for size, mult in counts.items():
        tail = tail + (one_minus_t(top - size) - one_minus_t(top)).scale(mult)
    return poly + tail.shift(d - 1)


def ref_h_vector_from_multiset(n: int, d: int,
                               multiset: Counter | Iterable[int]):
    """h-vector padded to its full delta + 1 entries."""
    delta = delta_from_multiset(d, multiset)
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


# ----- comparisons -------------------------------------------------------------


def all_clutters(n: int, d: int):
    """Every d-uniform clutter on [n], one per subset of the d-subsets."""
    masks = [mask_of(c) for c in combinations(range(1, n + 1), d)]
    for pick in range(1 << len(masks)):
        yield clutter_from_masks(n, d, (m for j, m in enumerate(masks) if pick >> j & 1))


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
            masks = [mask_of(c) for c in combinations(range(1, n + 1), d)]
            p = rng.choice((0.3, 0.6, 0.9)) if n <= 8 else 0.3
            yield clutter_from_masks(n, d, (m for m in masks if rng.random() < p))


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


def outcome(fn, *args):
    """A function's result, or the fact that it raised ValueError."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def test_formulas_agree_on_small_multisets():
    defined = 0
    for n in range(1, 10):
        for d in range(1, n + 3):  # d = n + 2 leaves f shorter than delta + 1
            # sizes 0 and n - d + 2 are out of range and must raise
            sizes = range(0, n - d + 3)
            for k in range(4):
                for pick in itertools.combinations_with_replacement(sizes, k):
                    ms = Counter(pick)
                    h = outcome(h_vector_from_multiset, n, d, ms)
                    assert h == outcome(ref_h_vector_from_multiset, n, d, ms), (n, d, ms)
                    betti = outcome(betti_from_multiset, n, d, ms)
                    assert betti == outcome(ref_betti_from_multiset, n, d, ms), (n, d, ms)
                    defined += betti is not ValueError
    assert defined > 1000
