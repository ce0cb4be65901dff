"""Brute-force graded Betti numbers via reduced simplicial homology.

This is the package's independent referee.  The graded Betti numbers
of a squarefree monomial ideal decompose over vertex subsets W into
reduced homology ranks of the induced subcomplex:

    beta_{i,j}(ideal) = sum over |W| = j of rank H~_{j-i-2}(complex_W)

computed here over the rationals with exact integer arithmetic
(fraction-free Gaussian elimination on the boundary matrices).  Nothing
in this module knows about simplicial orders or multisets, so an
agreement with the formula side is genuine evidence.

The clique complex on all n vertices is built once per call; the
complex induced on a subset W is read off it by keeping the faces that
lie inside W, so no subset regrows its own faces.  All subset
enumeration is exponential in n; the caps in guards.py apply.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .clutter import Clutter, Vertices, mask_of, verts_of
from .guards import FACES_DEFAULT, HOCHSTER_DEFAULT, check_cap


@dataclass(frozen=True, slots=True)
class FaceList:
    """Faces of a simplicial complex grouped by cardinality.

    by_size[k] holds the masks of the k-vertex faces in lexicographic
    order of their vertex tuples; by_size[0] is always the empty face.
    """

    universe: Vertices
    by_size: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        """Dimension of the complex; -1 when only the empty face exists."""
        return len(self.by_size) - 2

    @property
    def face_count(self) -> int:
        return sum(len(level) for level in self.by_size)

    def all_masks(self) -> frozenset[int]:
        return frozenset(m for level in self.by_size for m in level)


def clique_complex_faces(clutter: Clutter, within: Iterable[int],
                         max_n: int | None = None) -> FaceList:
    """Faces of the clique complex induced on a vertex subset.

    A face is any subset of `within` all of whose d-subsets are
    circuits; subsets with fewer than d vertices qualify vacuously.
    Faces are grown one vertex at a time, so only the new d-subsets are
    re-tested at each level.

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
            levels.append(tuple(grown))
        current = grown
    return FaceList(w, tuple(levels))


# ----- exact rank ------------------------------------------------------------


def integer_matrix_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    mat = [row[:] for row in rows if any(row)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        p = mat[row][col]
        for r in range(row + 1, len(mat)):
            factor = mat[r][col]
            if factor == 0 and prev == 1:
                continue
            line = mat[r]
            top = mat[row]
            for c in range(col + 1, ncols):
                line[c] = (p * line[c] - factor * top[c]) // prev
            line[col] = 0
        prev = p
        rank += 1
        row += 1
        if row == len(mat):
            break
    return rank


def _boundary_rank(upper: tuple[int, ...], lower: tuple[int, ...]) -> int:
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
    return integer_matrix_rank(rows)


def reduced_homology_ranks(faces: FaceList) -> tuple[int, ...]:
    """Reduced rational homology ranks, dimensions -1 through dim.

    Entry k of the result is rank H~_{k-1}.  Uses the reduced chain
    complex, so the empty face is a genuine generator in dimension -1
    and every vertex maps onto it.
    """
    by_size = faces.by_size
    top = len(by_size) - 1
    ranks_of_maps = [0] * (top + 2)  # ranks_of_maps[k]: size k -> size k-1
    for k in range(1, top + 1):
        ranks_of_maps[k] = _boundary_rank(by_size[k], by_size[k - 1])
    out = []
    for k in range(top + 1):
        out.append(len(by_size[k]) - ranks_of_maps[k] - ranks_of_maps[k + 1])
    return tuple(out)


def _has_cone_vertex(face_masks: frozenset[int], universe: Vertices) -> bool:
    """A vertex lying in a face with every face is a cone apex.

    Cones are contractible, so all reduced homology vanishes; checking
    this first skips most of the elimination work.
    """
    for v in universe:
        vbit = 1 << (v - 1)
        if all(m | vbit in face_masks for m in face_masks):
            return True
    return False


# ----- Hochster-style decomposition ------------------------------------------


@dataclass(frozen=True, slots=True)
class GradedBettiTable:
    """Nonzero graded Betti numbers of a circuit ideal, keyed (i, j)."""

    n: int
    d: int
    entries: tuple[tuple[tuple[int, int], int], ...]

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


def hochster_betti(clutter: Clutter, max_n: int | None = None) -> GradedBettiTable:
    """Graded Betti numbers of the circuit ideal by subset decomposition.

    Builds the clique complex on all n vertices once.  For every vertex
    subset W the induced subcomplex is the faces lying inside W, taken
    level by level in the complex's lex order; since faces are closed
    downward, the first level with no face inside W ends it.  Its
    reduced homology books rank H~_{|W|-i-2} into entry (i, |W|).  The
    complete clutter yields an empty table (zero ideal).
    """
    check_cap("hochster_betti", clutter.n, HOCHSTER_DEFAULT, max_n)
    n = clutter.n
    table: dict[tuple[int, int], int] = {}
    vertices = range(1, n + 1)
    complex_levels = clique_complex_faces(
        clutter, vertices, max_n=max(n, FACES_DEFAULT)).by_size
    for size in range(n + 1):
        for w in itertools.combinations(vertices, size):
            wmask = mask_of(w)
            levels = []
            for level in complex_levels:
                # Not tuple(generator): shrinking its 10-slot tuple shuffles
                # tuple free lists and added 1 MB to 100 --verify jobs' peak.
                inside = tuple([m for m in level if m & wmask == m])
                if not inside:
                    break
                levels.append(inside)
            faces = FaceList(w, tuple(levels))
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


def has_linear_resolution(clutter: Clutter, max_n: int | None = None) -> bool:
    """One-sided oracle: does the circuit ideal have a d-linear resolution?

    True for every chordal clutter; the converse direction is not
    settled mathematics, so a True here never certifies chordality.
    The complete clutter (zero ideal) passes vacuously.
    """
    return hochster_betti(clutter, max_n).is_linear()
