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

Faces are grown from extension masks, the candidate sets of Bron and
Kerbosch (1973).  Each face F carries ext(F), the vertices above its
maximum, among those asked for, that extend it to a face; its children
are F + v for v in ext(F), so no other vertex is ever tried.  For v < w
above F, F + v + w is a face exactly when F + v and F + w are faces and
every d-set {v, w} + S with S inside F is a circuit: every other
d-subset of F + v + w misses v or w.  So ext(F + v) is ext(F) above v
cut down by the neighborhoods N(S + v) of the plain circuit table, and
one level down the same fact replaces most of those lookups by the mask
of a face beside F + v.  Every face is the child of one face, itself
less its largest vertex, which makes the growth complete, and children
come in increasing order of the new vertex, which keeps every level in
lex order.  clique_complex_faces gives the details.

The clique complex on all n vertices and its GF(2) boundary rows are
built once per call, each level from the masks of the one below.  A sweep
then keeps every vertex subset's GF(2) ranks and XOR bases in arrays
indexed by its mask and fills them one block at a time: the subsets
whose largest vertex is u start as a copy of their parents, the
subsets below u, and take on the faces through u, each applied to
every subset of the block that holds it.  A subset's complex is its
parent's plus those faces and its bases are its parent's extended by
their rows, so no subset regrows a complex or re-ranks its parent's
rows.  The sweep reads only the faces of d or more vertices.  Every
smaller set is a face, so the complex on a nonempty W holds the full
(d-2)-skeleton of the simplex on W.  Over every field its reduced
homology is then 0 below degree d - 2, and H~_{d-2} is C(|W|-1, d-1)
minus the rank of W's size-d boundary rows; for d = 1 that reads
H~_{-1} = 1 - r.  The empty subset, with H~_{-1} = 1 for every d, is
the one exception, and it books nothing.  All subset enumeration is
exponential in n; the caps in guards.py apply.

Before the sweep the vertices are renamed 1..n by descending circuit
count, ties in label order.  A permutation of the vertices maps each
subset W to a subset of the same size whose complex is isomorphic to
W's, so every sum over |W| = j is unchanged, and with it the graded
Betti table and the f-vector.  The work is not: the sweep visits one
(face, subset) pair for each of the 2^(top F - |F|) supersets of a face
F in F's block, and the faces through the vertices in most circuits get
the smallest tops.  On the 100 seed-1 inputs of the benchmark's
verify_invariants workload the pairs fall from 33 504 to 21 078.
"""

from collections import Counter
from collections.abc import Iterable
from functools import cache
from itertools import chain, combinations, compress, count, islice, repeat, takewhile, zip_longest
from math import comb
from operator import add

from .clutter import _BITS, Clutter, Record, _rank_key, mask_of, neighborhood_map, verts_of
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
    Each face F carries ext(F), the mask of the vertices above max F,
    inside `within`, that extend F to a face, and its children are the
    faces F + v for v in ext(F).  Every nonempty face is the child of
    exactly one face, itself less its largest vertex, so growing every
    face's children level by level finds every face once (complete).

    The masks rest on one fact: for a face F and vertices v < w above
    it, F + v + w is a face exactly when F + v and F + w are faces and
    every d-set {v, w} + S, with S a (d-2)-subset of F, is a circuit.
    Every other d-subset of F + v + w misses v or w, so it lies in
    F + w or in F + v.  Hence, with N(e) the vertices c that make e + c
    a circuit (clutter.neighborhood_map, the plain circuit table),

        ext(F + v) = ext(F) & above(v) & N(S + v) for every such S.

    That is how the children of the empty face get theirs: ext(empty)
    is `within`, for d = 1 only its vertices that lie in a circuit; the
    only S is the empty set when d = 2, and there is none for other d.
    A deeper face G = P + u, u its largest vertex, reads its children's
    masks off the faces beside it.  For w in ext(G), P + w is a face of
    G's level, and for x above w a d-subset of G + w + x misses u and
    lies in P + w + x, or misses w and lies in G + x, or lies in the
    face G + w, or is {u, w, x} + T for a (d-3)-subset T of P.  So

        ext(G + w) = ext(G) & above(w) & ext(P + w) & N(T + u + w) for every such T:

    one lookup of ext(P + w) and C(|P|, d-3) circuit lookups per child,
    none for d <= 2, and no vertex outside ext(G) is ever tried.

    Each level comes out in lexicographic order without a sort.  By
    induction the level being grown is in lex order, and each face F
    yields its children in increasing order of the new vertex.  A
    face grown from F precedes one grown from a later G, because the
    two tuples first differ inside the prefixes F < G.
    """
    w = tuple(sorted(set(within)))
    for v in w:
        if not 1 <= v <= clutter.n:
            raise ValueError(f"vertex {v} out of range 1..{clutter.n}")
    check_cap("clique_complex_faces", len(w), FACES_DEFAULT, max_n)
    d = clutter.d
    nbrs = neighborhood_map(clutter.circuit_masks)
    rest = mask_of(w) if d > 1 else mask_of(w) & nbrs.get(0, 0)
    exts = {}  # the level being grown from: each face's ext, in lex order
    while rest:
        low = rest & -rest
        rest ^= low
        exts[low] = rest & nbrs.get(low, 0) if d == 2 else rest
    levels = [(0,)]
    while exts:
        levels.append(tuple(exts))
        grown = {}
        for face, ext in exts.items():
            if not ext:
                continue
            top = 1 << face.bit_length() >> 1
            parent = face ^ top
            if d > 3:
                keys = [top | sub for sub in map(mask_of, combinations(verts_of(parent), d - 3))]
            else:  # T is the empty set alone for d = 3, and there is none below
                keys = (top,) if d == 3 else ()
            while ext:
                low = ext & -ext
                ext ^= low  # now ext(face) & above(low)
                child = ext & exts[parent | low]
                for key in keys:
                    child &= nbrs.get(key | low, 0)
                grown[face | low] = child
        exts = grown
    return FaceList(w, tuple(levels))


# ----- exact rank ------------------------------------------------------------


def integer_matrix_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    With p the pivot and prev the one before it, each row below the
    pivot becomes (p * row - factor * top) // prev, factor being its
    entry in the pivot's column.  Every entry so made is a minor of the
    matrix (Sylvester's identity), so each division is exact; that
    holds only when every row is rescaled at every step.  A row with
    factor 0 becomes p * row // prev, which is itself only when
    p == prev, so only such a row may be skipped.  Skipping it whenever
    prev == 1 left rows a factor p behind the minors, and later
    divisions then lost their remainders: [[1, 1, -1, -1], [0, 0, 0, 1],
    [-1, 1, 1, 1], [0, 0, 1, 0]] read rank 3, not 4.
    """
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
            if factor or p != prev:
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
            row, rest = 0, fmask
            while rest:  # drop each vertex in turn; the facets' bits are distinct
                low = rest & -rest
                rest ^= low
                row |= index[fmask ^ low]
            rows[fmask] = row
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


def _relabel_by_circuit_count(clutter: Clutter) -> Clutter:
    """The clutter with its vertices renamed 1..n by descending circuit count.

    Ties keep label order, so a clutter whose vertices lie in equally
    many circuits, a complete one among them, comes back unchanged, and
    relabelling twice relabels once.  Every circuit keeps its d
    vertices, so the result is a d-uniform clutter on [n] with as many
    circuits, isomorphic to the input.  Its masks are made from the
    circuits' rows by C-level maps and sorted by the one-size lex key.
    """
    n, d, rows = clutter.n, clutter.d, clutter.circuits
    counts = Counter(chain.from_iterable(rows))
    # a reversed sort is still stable, so ties stay in label order
    order = sorted(range(1, n + 1), key=counts.__getitem__, reverse=True)
    bit = dict(zip(order, _BITS[1:]))  # order[i] becomes vertex i + 1
    masks = [*map(sum, map(map, repeat(bit.__getitem__), rows))]
    return Clutter(n, d, tuple(sorted(masks, key=_rank_key(masks), reverse=True)))


@cache
def _by_size(n: int) -> tuple[tuple[int, ...], bytes]:
    """The masks below 2^n in a stable sort by size, and |P| for P < 2^(n-1).

    The sizes are a bytes object, byte P holding |P|.  hochster_betti
    books its table off the first and builds its skeleton row from the
    second.  It reads them from the cache only for n up to Hochster's
    cap, under 2^(cap + 1) masks in all, and calls the uncached
    function (_by_size.__wrapped__) above it, so that raising max_n
    does not grow the cache.
    """
    order = tuple(sorted(range(1 << n), key=int.bit_count))
    return order, bytes(map(int.bit_count, range(1 << n >> 1)))


def hochster_betti(clutter: Clutter, max_n: int | None = None,
                   faces: FaceList | None = None) -> GradedBettiTable:
    """Graded Betti numbers of the circuit ideal by subset decomposition.

    Builds the clique complex on all n vertices, unless `faces` passes
    it in (clique_complex_faces on 1..n, as `invariants --verify` builds
    it once for both oracles), and its GF(2) boundary rows once.  It
    builds the complex on the clutter relabelled by descending circuit
    count (_relabel_by_circuit_count), which changes no entry of the
    table and cuts the (face, subset) pairs the sweep visits, one for
    each of the 2^(top F - |F|) supersets of a face F in F's block (the
    module docstring has both arguments).  A complex passed in is swept on the
    labels it was built on; `invariants --verify` relabels before it
    builds one.

    The sweep fills arrays indexed by subset mask: hom[k][W] is W's
    GF(2) homology rank in degree d - 2 + k, and bases[k][W] an XOR
    basis of the span of W's size-(d + k) boundary rows.

    The sweep reads only faces of d or more vertices.  Every set of
    fewer than d vertices is a face, so for |W| = m >= 1 the complex on
    W holds the full (d-2)-skeleton of the simplex on W.  Below degree
    d - 2 its cycles and boundaries are the simplex's, so over every
    field its reduced homology there is 0.  In degree d - 2 its cycles
    are the simplex's, the boundaries of its size-d chains, a space of
    dimension C(m-1, d-1); so H~_{d-2} = C(m-1, d-1) - r, with r the
    rank of W's size-d boundary rows.  For d = 1 this reads
    H~_{-1} = 1 - r.  The one exception is W = {} (m = 0), whose H~_{-1}
    is 1 for every d.  It books nothing, so its entries start at zero.

    The subsets whose largest vertex is u form the block [2^(u-1), 2^u),
    and W in it has the parent P = W - u below the block.  The faces of
    size >= d inside W that are not inside P are exactly those whose
    largest vertex is u.  So block u starts as a copy of the arrays
    below it, each W sharing P's bases and ranks; in degree d - 2 the
    skeleton adds C(|P|, d-1) - C(|P|-1, d-1) = C(|P|-1, d-2) for
    |P| >= 1.  Then each face whose largest vertex is u is applied, in
    increasing size and within a size in the complex's lex order, to
    every W of the block that holds it: W = face + s for s a submask of
    the vertices below u outside the face, stepped in increasing order
    as W -> (W + 1) | face.  Inserting rows into an XOR basis of the
    span of P's rows gives a basis of the span of all of them, so a
    level's boundary rank is the size of its extended basis.  A basis
    stays shared with P until a row independent of it arrives, and it
    is copied then.  The columns keep _gf2_rows's numbering on the full
    complex, which changes no rank.

    A size-k face's row is reduced only when W's complex so far has
    homology in degree k - 2, one below the face's own.  Within a block
    every face of W smaller than k is in place before any face of size
    k is applied: the faces inside P came with the copy, and those
    through u are applied in increasing size.  So the faces applied so
    far, with the skeleton, form a complex, whose ranks are kept
    current, and the face's boundary is a cycle of it.  When that
    complex has no homology in degree k - 2 the cycle already bounds,
    so the row lies in the span of its level, and the face raises the
    homology one degree up without a reduction.  A reduced row that
    turns out dependent raises it all the same, so no rank depends on
    which rows are reduced.  The lex order puts the faces through the
    smallest vertex of W first, and on a simplex with d <= 2 it reduces
    only independent rows.

    Each subset's reduced homology, certified over Q as in
    reduced_homology_ranks, books rank H~_{|W|-i-2} into entry (i, |W|):
    each hom array is summed over the subsets of each size at the end.
    The sweep's ranks are that function's GF(2) ranks, so a subset
    whose certificate fails, nonzero in two degrees, goes straight to
    its Bareiss fallback, on the full complex's levels cut down to the
    subset.  Such a subset is nonzero in two of the arrays that are
    nonzero anywhere, so only the entries of the second and later of
    those are candidates, and with one such array there are none.
    Over Q a degree is zero where it is zero over F_2, so the Bareiss
    ranks overwrite the subset's entries without waking another array.
    The complete clutter yields an empty table (zero ideal).

    Memory: each array holds 2^n entries, and a basis one entry per
    independent row it has taken in.  A basis copied for W holds W's
    whole rank in its level, so on a dense input the bases hold about
    3^n / 2 entries at the end: some 15 MB traced on K(12,2) and 130 MB
    on K(14,2), about three times as much per added vertex.  Between
    calls only the size orders of _by_size are kept, for n up to
    Hochster's cap.
    """
    check_cap("hochster_betti", clutter.n, HOCHSTER_DEFAULT, max_n)
    n, d = clutter.n, clutter.d
    full = faces or clique_complex_faces(_relabel_by_circuit_count(clutter), range(1, n + 1), n)
    rows = _gf2_rows(full.by_size[d - 1:])
    levels = full.by_size[d:]
    # the faces by largest vertex, then size, each list in lex order
    tops = [[[] for _ in levels] for _ in range(n + 1)]
    for k, level in enumerate(levels):
        for fmask in level:
            tops[fmask.bit_length()][k].append(fmask)
    # spans[m] = C(m-1, d-1), H~_{d-2} of the (d-2)-skeleton on m vertices,
    # and skeleton[P] what one more vertex adds to it above the parent P
    spans = [0] + [comb(m - 1, d - 1) for m in range(1, n + 2)]
    steps = [spans[m + 1] - spans[m] for m in range(n)]
    order, sizes = (_by_size if n <= HOCHSTER_DEFAULT else _by_size.__wrapped__)(n)
    skeleton = [*map(steps.__getitem__, sizes)]
    hom = [[0] for _ in range(len(levels) + 1)]
    bases = [[{}] for _ in levels]
    for u in range(1, n + 1):
        lo, hi = 1 << (u - 1), 1 << u
        hom[0] += list(map(add, hom[0], skeleton))  # a list, as the map reads hom[0]
        for array in hom[1:] + bases:
            array += array
        for h, up, b, faces_u in zip(hom, hom[1:], bases, tops[u]):
            for fmask in faces_u:
                w = fmask
                while w < hi:  # every superset of the face in the block
                    if h[w]:
                        basis, row = b[w], rows[fmask]
                        while row and (top := row.bit_length()) in basis:
                            row ^= basis[top]
                        if row:
                            if basis is b[w ^ lo]:  # still the parent's
                                basis = b[w] = dict(basis)
                            basis[top] = row
                            h[w] -= 1
                        else:
                            up[w] += 1
                    else:
                        up[w] += 1
                    w = w + 1 | fmask
    live = [(k, h) for k, h in enumerate(hom) if any(h)]
    for w in {w for _, h in live[1:] for w in compress(count(), h)}:
        if sum(h[w] > 0 for _, h in live) > 1:
            # its levels end at the first that has none inside it
            cut = takewhile(bool, (tuple([f for f in level if f | w == w])
                                   for level in full.by_size))
            ranks = _homology_ranks(list(cut), _boundary_rank)[d - 1:]
            for h, value in zip_longest(hom, ranks, fillvalue=0):
                h[w] = value
    table = {}
    for k, h in live:
        ranks = map(h.__getitem__, order)
        for m in range(n + 1):
            if value := sum(islice(ranks, comb(n, m))):
                table[m - d - k, m] = value
    return GradedBettiTable(n, d, tuple(sorted(table.items())))


def has_linear_resolution(clutter: Clutter, max_n: int | None = None) -> bool:
    """One-sided oracle: does the circuit ideal have a d-linear resolution?

    True for every chordal clutter; the converse direction is not
    settled mathematics, so a True here never certifies chordality.
    The complete clutter (zero ideal) passes vacuously.
    """
    return hochster_betti(clutter, max_n).is_linear()
