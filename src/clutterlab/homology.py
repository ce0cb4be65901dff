"""Brute-force graded Betti numbers via reduced simplicial homology.

This is the package's independent referee.  The graded Betti numbers
of a squarefree monomial ideal decompose over vertex subsets W into
reduced homology ranks of the induced subcomplex (Hochster 1977):

    beta_{i,j}(ideal) = sum over |W| = j of rank H~_{j-i-2}(complex_W)

with homology over the rationals.  Nothing in this module knows about
simplicial orders or multisets, so an agreement with the formula side
is genuine evidence.

Ranks are computed over GF(2) first, where a boundary row is one
Python int and elimination is XOR, and are certified exact over Q:

- By the universal coefficient theorem, H~_k(D; F) is
  H~_k(D; Z) (x) F plus Tor(H~_{k-1}(D; Z), F), so for every k
  dim H~_k(D; F_2) >= rank H~_k(D; Z) = dim H~_k(D; Q).
- The reduced Euler characteristic, sum (-1)^k dim H~_k(D; F), is the
  alternating sum of the face counts, the same for every field.

So the differences dim H~_k(D; F_2) - dim H~_k(D; Q) are non-negative
and their alternating sum is zero.  When the F_2 homology is nonzero in
at most one degree, every other difference is zero because the F_2
side is, and then the remaining one is zero too: the F_2 ranks are the
rational ranks.  Any other complex falls back to exact fraction-free
(Bareiss) elimination over the integers, so the oracle stays exact over
Q.  A sweep that never falls back has also found the F_2 and Q tables
equal, which checks at characteristic 2 that the resolution does not
depend on the field.

The clique complex on all n vertices and its GF(2) boundary rows are
built once per call, each level grown from the one below it.  The
subsets are then walked upward, each reached from itself minus its
largest vertex: its complex is its parent's plus the faces through
that vertex, and its GF(2) ranks come from the parent's XOR bases
extended by those faces' rows, so no subset regrows a complex or
re-ranks its parent's rows.  The walk reads only the faces of d or
more vertices.  Every smaller set is a face, so the complex on a
nonempty W holds the full (d-2)-skeleton of the simplex on W.  Over
every field its reduced homology is then 0 below degree d - 2, and
H~_{d-2} is C(|W|-1, d-1) minus the rank of W's size-d boundary rows;
for d = 1 that reads H~_{-1} = 1 - r.  The empty subset, with
H~_{-1} = 1 for every d, is the one exception, and it books nothing.
All subset enumeration is exponential in n; the caps in guards.py
apply.
"""

from bisect import bisect_left
from collections.abc import Iterable
from itertools import takewhile, zip_longest
from math import comb

from .clutter import Clutter, Record, verts_of
from .guards import FACES_DEFAULT, HOCHSTER_DEFAULT, check_cap


class FaceList(Record):
    """Faces of a simplicial complex grouped by cardinality.

    Fields universe, the vertex tuple, and by_size: by_size[k] holds the
    masks of the k-vertex faces in lexicographic order of their vertex
    tuples; by_size[0] is always the empty face.
    """

    __slots__ = ("universe", "by_size")

    @property
    def dimension(self) -> int:
        """Dimension of the complex; -1 when only the empty face exists."""
        return len(self.by_size) - 2

    @property
    def face_count(self) -> int:
        return sum(len(level) for level in self.by_size)


def clique_complex_faces(clutter: Clutter, within: Iterable[int],
                         max_n: int | None = None) -> FaceList:
    """Faces of the clique complex induced on a vertex subset.

    A face is any subset of `within` all of whose d-subsets are
    circuits; subsets with fewer than d vertices qualify vacuously.
    Faces are grown one vertex at a time, each level from the one
    below: a face F of size k - 1 and a vertex v give g = F + v, and g
    is a face exactly when g - u is in the level below for every u in
    F, and g is a circuit if k = d.  Below size d every set is a face,
    so the level test passes and the circuit test decides at k = d.
    Above it the level test is sound: every d-subset of g misses some
    vertex of g, so it lies in F or in some g - u, all faces, and is a
    circuit.  It is complete because every subset of a face is a face.

    Each level comes out in lexicographic order without a sort.  By
    induction the level being grown is in lex order, and each face F
    is extended by the vertices above its maximum in increasing order.
    Two faces grown from F come out in the order of their new vertex;
    a face grown from F precedes one grown from a later G, because the
    two tuples first differ inside the prefixes F < G.
    """
    w = tuple(sorted(set(within)))
    for v in w:
        if not 1 <= v <= clutter.n:
            raise ValueError(f"vertex {v} out of range 1..{clutter.n}")
    check_cap("clique_complex_faces", len(w), FACES_DEFAULT, max_n)
    circuits = clutter.mask_set()
    d = clutter.d
    levels: list[tuple[int, ...]] = [(0,)]
    while levels[-1]:
        k = len(levels)  # the size of the sets grown from the last level
        below = set(levels[-1])
        grown = []
        for fmask in levels[-1]:
            members = verts_of(fmask)
            start = fmask.bit_length()  # extend by vertices above the max
            for v in w:
                g = fmask | 1 << (v - 1)
                if (v > start and (k != d or g in circuits)
                        and all(g ^ 1 << (u - 1) in below for u in members)):
                    grown.append(g)
        levels.append(tuple(grown))
    return FaceList(w, tuple(levels[:-1]))


# ----- exact rank ------------------------------------------------------------


def integer_matrix_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    mat = [row[:] for row in rows if any(row)]
    prev, row = 1, 0  # row counts the pivots found so far
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        top, p = mat[row], mat[row][col]
        for line in mat[row + 1:]:
            factor = line[col]
            if factor or prev != 1:
                for c in range(col + 1, len(top)):
                    line[c] = (p * line[c] - factor * top[c]) // prev
                line[col] = 0
        prev = p
        row += 1
        if row == len(mat):
            break
    return row


def _boundary_rank(upper: tuple[int, ...], lower: tuple[int, ...]) -> int:
    """Rank of the boundary map from size-(k+1) faces to size-k faces."""
    index = {m: c for c, m in enumerate(lower)}
    rows = []
    for fmask in upper:
        row = [0] * len(lower)
        for pos, v in enumerate(verts_of(fmask)):
            row[index[fmask ^ 1 << (v - 1)]] = -1 if pos % 2 else 1
        rows.append(row)
    return integer_matrix_rank(rows)


def _gf2_rows(by_size: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    """Each face's boundary over GF(2): the bitmask of its facets' indices.

    A facet's index is its position in the level below.  The rows of
    the faces inside a vertex subset W touch only faces inside W, so
    rows built once on a complex serve every induced subcomplex: a
    rank does not depend on how the columns are numbered.
    """
    rows: dict[int, int] = {}
    for lower, upper in zip(by_size, by_size[1:]):
        index = {m: 1 << c for c, m in enumerate(lower)}
        for fmask in upper:
            rows[fmask] = sum(index[fmask ^ (1 << (v - 1))] for v in verts_of(fmask))
    return rows


def _gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2): the size of an XOR basis built from the rows.

    The basis keys each row by its top bit.  A row is reduced by the
    basis row with its top bit until it vanishes or brings a new top
    bit, which it is then filed under.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row and (top := row.bit_length()) in basis:
            row ^= basis[top]
        if row:
            basis[top] = row
    return len(basis)


def _homology_ranks(by_size: tuple[tuple[int, ...], ...], rank) -> tuple[int, ...]:
    """Reduced homology ranks from the boundary ranks that `rank` gives."""
    maps = [0] + [rank(by_size[k], by_size[k - 1]) for k in range(1, len(by_size))] + [0]
    return tuple(len(level) - maps[k] - maps[k + 1] for k, level in enumerate(by_size))


def reduced_homology_ranks(faces: FaceList,
                           rows: dict[int, int] | None = None) -> tuple[int, ...]:
    """Reduced rational homology ranks, dimensions -1 through dim.

    Entry k of the result is rank H~_{k-1}.  Uses the reduced chain
    complex, so the empty face is a genuine generator in dimension -1
    and every vertex maps onto it.

    The ranks are first taken over GF(2).  F_2 homology bounds rational
    homology from above in every degree and has the same reduced Euler
    characteristic, so when it is nonzero in at most one degree it is
    the rational homology (the argument is in the module docstring).
    Otherwise the ranks are recomputed over Q by Bareiss elimination;
    the 6-vertex real projective plane, with F_2 ranks (0, 0, 1, 1) and
    rational ranks (0, 0, 0, 0), is such a complex.

    `rows` may hold the GF(2) rows of a complex containing this one, as
    _gf2_rows builds them; by default they are built here.
    """
    rows = rows or _gf2_rows(faces.by_size)
    ranks = _homology_ranks(faces.by_size,
                            lambda upper, _: _gf2_rank(map(rows.__getitem__, upper)))
    if sum(map(bool, ranks)) > 1:
        ranks = _homology_ranks(faces.by_size, _boundary_rank)
    return ranks


# ----- Hochster-style decomposition ------------------------------------------


class GradedBettiTable(Record):
    """Nonzero graded Betti numbers of a circuit ideal, keyed (i, j).

    Fields n, d and entries, a tuple of ((i, j), value) pairs.
    """

    __slots__ = ("n", "d", "entries")

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def totals(self) -> tuple[int, ...]:
        """Row sums beta_i = sum_j beta_{i,j}, dense from i = 0."""
        if not self.entries:
            return ()
        top = max(i for (i, _), _ in self.entries)
        out = [0] * (top + 1)
        for (i, _), value in self.entries:
            out[i] += value
        return tuple(out)

    def is_linear(self) -> bool:
        """True when every nonzero entry sits in degree j = i + d."""
        return all(j == i + self.d for (i, j), _ in self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "entries": [{"i": i, "j": j, "value": v}
                        for (i, j), v in self.entries],
        }


def hochster_betti(clutter: Clutter, max_n: int | None = None,
                   faces: FaceList | None = None) -> GradedBettiTable:
    """Graded Betti numbers of the circuit ideal by subset decomposition.

    Builds the clique complex on all n vertices, unless `faces` passes
    it in (clique_complex_faces on 1..n, as `invariants --verify` builds
    it once for both oracles), and its GF(2) boundary rows once.  Then
    it walks the vertex subsets upward from the empty set: W + u is
    visited from W only for u > max W, so each nonempty subset is
    reached exactly once, from itself minus its largest vertex.  A walk
    entry is a parent W, and popping it builds all its children.

    The walk reads only faces of d or more vertices.  Every set of
    fewer than d vertices is a face, so for |W| = m >= 1 the complex on
    W holds the full (d-2)-skeleton of the simplex on W.  Below degree
    d - 2 its cycles and boundaries are the simplex's, so over every
    field its reduced homology there is 0.  In degree d - 2 its cycles
    are the simplex's, the boundaries of its size-d chains, a space of
    dimension C(m-1, d-1); so H~_{d-2} = C(m-1, d-1) - r, with r the
    rank of W's size-d boundary rows.  For d = 1 this reads
    H~_{-1} = 1 - r.  The one exception is W = {} (m = 0), whose H~_{-1}
    is 1 for every d.  It books nothing, and each child sets its rank in
    degree d - 2 by the formula, so the walk starts it at all zeros.

    The faces of size >= d inside W + u that are not inside W are
    exactly those of the full complex whose largest vertex is u and
    that lie in W + u: such a face contains u, so it is not inside W,
    and a face inside W + u that contains u has u as its largest
    vertex.  So each level's boundary rows are W's rows plus the new
    faces' rows.  Inserting rows into an XOR basis of the span of W's
    rows gives a basis of the span of all of them, so a level's
    boundary rank is the size of its extended basis.  A level's basis
    is copied only when a new row is reduced against it.  The columns
    keep _gf2_rows's numbering on the full complex, which changes no
    rank.

    The new faces are added in increasing mask order, which puts every
    face after its facets, so the faces added so far, with the
    skeleton, always form a complex, whose ranks are kept current.  A
    new size-k face's row is reduced only when that complex has
    homology in degree k - 2, one below the face's own.  Its boundary is
    a cycle; when the complex so far has no homology in that degree,
    the cycle already bounds, so the row lies in the span of its level,
    and the face raises the homology one degree up without a reduction.
    A reduced row that turns out dependent raises the homology one
    degree up all the same, so no rank depends on which rows are reduced.

    Descendants of W add only vertices above max W, so each walk entry
    carries just the faces a descendant can still add: those whose
    largest vertex is above max W and whose other vertices up to max W
    lie in W.  Moving on from child W + u to child W + u' with u' > u
    drops the faces through u, which W + u' and its descendants skip.

    Each subset's reduced homology, certified over Q as in
    reduced_homology_ranks, books rank H~_{|W|-i-2} into entry (i, |W|):
    the walk files the ranks by |W| and sums them at the end.  The
    sweep's ranks are that function's GF(2) ranks, so a subset whose
    certificate fails goes straight to its Bareiss fallback, on the full
    complex's levels cut down to the subset.  The complete clutter
    yields an empty table (zero ideal).
    """
    check_cap("hochster_betti", clutter.n, HOCHSTER_DEFAULT, max_n)
    n, d = clutter.n, clutter.d
    full = faces or clique_complex_faces(clutter, range(1, n + 1), n)
    rows = _gf2_rows(full.by_size[d - 1:])
    depth = max(len(full.by_size), d + 1)  # so basis d and rank d - 1 exist
    # spans[m] = C(m-1, d-1), H~_{d-2} of the (d-2)-skeleton on m vertices
    spans = [0] + [comb(m - 1, d - 1) for m in range(1, n + 1)]
    books = [[] for _ in range(n + 1)]  # each subset's nonzero ranks, by size
    # An entry is a parent's mask, its homology ranks (indexed as
    # reduced_homology_ranks returns them) and bases (basis k spans the rows
    # of the size-k faces), and the faces its descendants may still add, in
    # increasing mask order.
    stack = [(0, [0] * depth, [{}] * depth, sorted(rows))]
    while stack:
        w, ranks, bases, later = stack.pop()
        m = w.bit_count()
        # each W + u's rank in degree d - 2 before its own faces
        span, book = spans[m + 1] - len(bases[d]), books[m + 1].append
        for u in range(w.bit_length() + 1, n + 1):
            ubit = 1 << (u - 1)
            cut = bisect_left(later, ubit << 1)  # the faces with largest vertex u
            # a child with no new faces shares its parent's list of bases;
            # writes go to a copy, and a basis is copied before it grows
            grown_ranks, grown = ranks[:], bases[:] if cut else bases
            grown_ranks[d - 1] = span
            for fmask in later[:cut]:
                k = fmask.bit_count()
                if grown_ranks[k - 1]:
                    if grown[k] is bases[k]:
                        grown[k] = dict(bases[k])
                    basis, row = grown[k], rows[fmask]
                    while row and (top := row.bit_length()) in basis:
                        row ^= basis[top]
                    if row:
                        basis[top] = row
                        grown_ranks[k - 1] -= 1
                        continue
                grown_ranks[k] += 1
            nonzero = depth - grown_ranks.count(0)
            if nonzero > 1:
                child = w | ubit  # its levels end at the first that has none inside it
                levels = takewhile(bool, (tuple([f for f in level if f | child == child])
                                          for level in full.by_size))
                book(_homology_ranks(list(levels), _boundary_rank))
            elif nonzero:
                book(grown_ranks)
            later = later[cut:]
            if u < n:
                stack.append((w | ubit, grown_ranks, grown, later))
            if later:
                later = [f for f in later if not f & ubit]
    table = {(m - k - 1, m): value for m, booked in enumerate(books)
             for k, value in enumerate(map(sum, zip_longest(*booked, fillvalue=0))) if value}
    return GradedBettiTable(n, d, tuple(sorted(table.items())))


def has_linear_resolution(clutter: Clutter, max_n: int | None = None) -> bool:
    """One-sided oracle: does the circuit ideal have a d-linear resolution?

    True for every chordal clutter; the converse direction is not
    settled mathematics, so a True here never certifies chordality.
    The complete clutter (zero ideal) passes vacuously.
    """
    return hochster_betti(clutter, max_n).is_linear()
