"""Uniform clutters on a finite vertex set, stored as bit masks.

A d-uniform clutter on vertices 1..n is a set of d-element subsets,
called circuits.  Each circuit is held as an integer bit mask (vertex v
maps to bit v-1), which makes membership tests, deletions and
neighborhood computations cheap set arithmetic.  Masks are fixed-width
in spirit: vertex counts above MAX_VERTICES are rejected so that every
stored value fits one machine word on typical builds.

Vertex sets cross the public API as sorted tuples of 1-based ints; the
mask representation is an internal convention shared with the sibling
modules.
"""

from collections.abc import Iterable
from itertools import chain, combinations, repeat
from operator import attrgetter, lt

MAX_VERTICES = 64
_BITS = tuple(1 << v >> 1 for v in range(MAX_VERTICES + 1))  # _BITS[v] = mask_of((v,))

Vertices = tuple[int, ...]


# ----- mask helpers -------------------------------------------------------


def mask_of(vertices: Iterable[int]) -> int:
    """Bit mask of a vertex collection (1-based vertices)."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def verts_of(mask: int) -> Vertices:
    """Sorted vertex tuple of a bit mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


# ----- value types --------------------------------------------------------


class Record:
    """Base of the immutable value types, whose fields are their __slots__.

    A record is built positionally, one value per field in slot order.
    Two records are equal when they have the same type and equal fields,
    and equal records hash alike.  repr is Name(field=value, ...), and
    assigning or deleting an attribute raises AttributeError.  Pickling
    and copying rebuild a record through its constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = staticmethod(attrgetter(*cls.__slots__))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._setters)} "
                            f"fields, got {len(values)}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _immutable(self, name, *_):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _immutable


class Clutter(Record):
    """A d-uniform clutter on [n], circuits in canonical order.

    Fields n, d and circuit_masks, a tuple of ints sorted by the
    lexicographic order of the sorted vertex tuples, so equal clutters
    compare and hash equal and every iteration over circuits is
    deterministic.
    """

    __slots__ = ("n", "d", "circuit_masks")

    @property
    def circuits(self) -> tuple[Vertices, ...]:
        return tuple(map(verts_of, self.circuit_masks))

    @property
    def num_circuits(self) -> int:
        return len(self.circuit_masks)

    def mask_set(self) -> frozenset[int]:
        return frozenset(self.circuit_masks)

    def __repr__(self) -> str:
        body = ",".join("".join(map(str, c)) if self.n <= 9 else str(c)
                        for c in self.circuits)
        return f"Clutter(n={self.n}, d={self.d}, {{{body}}})"


class SquarefreeIdeal(Record):
    """A squarefree monomial ideal given by its minimal generators.

    Fields n and gen_masks: the generators, vertex subsets of [n] in the
    same canonical mask order used for circuits.  They always form an
    antichain under inclusion; make_ideal discards non-minimal input
    monomials.
    """

    __slots__ = ("n", "gen_masks")

    @property
    def gens(self) -> tuple[Vertices, ...]:
        return tuple(verts_of(m) for m in self.gen_masks)

    @property
    def num_gens(self) -> int:
        return len(self.gen_masks)

    @property
    def degree(self) -> int | None:
        """Common generator degree when equigenerated, else None."""
        sizes = {m.bit_count() for m in self.gen_masks}
        return sizes.pop() if len(sizes) == 1 else None

    def contains(self, vertices: Iterable[int]) -> bool:
        """Monomial membership: some generator divides the monomial."""
        m = mask_of(vertices)
        return any(g & m == g for g in self.gen_masks)

    def __repr__(self) -> str:
        body = ",".join("".join(map(str, g)) if self.n <= 9 else str(g)
                        for g in self.gens)
        return f"SquarefreeIdeal(n={self.n}, ({body}))"


def canonical_mask_order(masks: Iterable[int]) -> tuple[int, ...]:
    """Deduplicate and sort masks by their sorted vertex tuples."""
    return tuple(sorted(set(masks), key=verts_of))


# ----- constructors -------------------------------------------------------


def _check_parameters(n: int, d: int | None = None) -> None:
    """Reject a vertex count outside 1..MAX_VERTICES or a uniformity d < 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"positive vertex count expected, got {n!r}")
    if n > MAX_VERTICES:
        raise ValueError(
            f"n={n} exceeds the supported maximum of {MAX_VERTICES} vertices")
    if d is not None and (not isinstance(d, int) or d < 1):
        raise ValueError(f"positive uniformity expected, got {d!r}")


def _check_vertex_range(n: int, vertices: Iterable[int]) -> None:
    for v in vertices:
        if not isinstance(v, int) or not 1 <= v <= n:
            raise ValueError(f"vertex {v!r} out of range 1..{n}")


def make_clutter(n: int, d: int, circuits: Iterable[Iterable[int]]) -> Clutter:
    """Build a d-uniform clutter on [n] from vertex collections.

    Duplicate circuits collapse.  When n < d the only legal clutter is
    the empty one.  Raises ValueError for non-positive parameters,
    vertices outside 1..n, circuits of the wrong cardinality, or
    n > MAX_VERTICES.

    A non-empty list of lists, or of tuples, is built by passes over all
    its rows at once.  Each row must hold d exact ints (no bools) within
    1..n, checked by one set of types and by min and max.  A row's mask
    is then the sum of its vertices' bits (_BITS[v] = mask_of((v,))).
    Adding a power of two to a sum raises its popcount by one, less the
    number of carries, so a sum of d powers of two has popcount d
    exactly when no addition carries, that is, when no two are equal.
    So every sum having popcount d shows that every row names d distinct
    vertices and that its sum is its mask.  When the
    rows also increase strictly within themselves and from row to row
    (as clutter_to_text, generate and the JSON reports write them), each
    row is verts_of of its mask and the rows are distinct and in
    lexicographic order, so the masks are already in canonical order and
    the sort is skipped.  Any other input, or a failed check, goes to the
    per-circuit loop, which raises every error with its usual message.
    """
    _check_parameters(n, d)
    if (type(circuits) is list and {*map(type, circuits)} in ({list}, {tuple})
            and {*map(len, circuits)} == {d}
            and {*map(type, flat := [*chain.from_iterable(circuits)])} == {int}
            and 1 <= min(flat) and max(flat) <= n):
        masks = [*map(sum, map(map, repeat(_BITS.__getitem__), circuits))]
        if {*map(int.bit_count, masks)} == {d}:
            ordered = all(map(lt, circuits, circuits[1:])) and all(
                all(map(lt, flat[j::d], flat[j + 1::d])) for j in range(d - 1))
            return Clutter(n, d, tuple(masks) if ordered else canonical_mask_order(masks))
    masks = []
    for circ in circuits:
        vs = tuple(circ)
        _check_vertex_range(n, vs)
        m = mask_of(vs)
        if m.bit_count() != d:
            raise ValueError(
                f"circuit {sorted(set(vs))} has {m.bit_count()} vertices, expected {d}")
        masks.append(m)
    if n < d and masks:
        raise ValueError(f"no {d}-subsets exist on {n} vertices")
    return Clutter(n, d, canonical_mask_order(masks))


def clutter_from_masks(n: int, d: int, masks: Iterable[int]) -> Clutter:
    """Internal fast path: masks are trusted to be d-subsets of [n]."""
    return Clutter(n, d, canonical_mask_order(masks))


def make_ideal(n: int, gens: Iterable[Iterable[int]]) -> SquarefreeIdeal:
    """Build a squarefree ideal, reducing the input to minimal generators."""
    _check_parameters(n)
    masks = set()
    for g in gens:
        vs = tuple(g)
        _check_vertex_range(n, vs)
        if not vs:
            raise ValueError("the unit ideal (empty generator) is not supported")
        masks.add(mask_of(vs))
    minimal = [m for m in masks
               if not any(o != m and o & m == o for o in masks)]
    return SquarefreeIdeal(n, canonical_mask_order(minimal))


def ideal_from_masks(n: int, masks: Iterable[int]) -> SquarefreeIdeal:
    """Internal fast path: masks are trusted to form an antichain."""
    return SquarefreeIdeal(n, canonical_mask_order(masks))


def complete_clutter(n: int, d: int) -> Clutter:
    """All d-subsets of [n] (empty when n < d).

    combinations lists the d-subsets in lexicographic order, so their
    masks come in canonical order and need no sort.
    """
    _check_parameters(n, d)
    return Clutter(n, d, tuple(map(mask_of, combinations(range(1, n + 1), d))))


# ----- core operations ----------------------------------------------------


def complement(clutter: Clutter) -> Clutter:
    """The d-subsets of [n] that are not circuits.  Needs n >= d.

    They keep the canonical order in which complete_clutter lists them.
    """
    n, d = clutter.n, clutter.d
    if n < d:
        raise ValueError(f"complement needs n >= d, got n={n}, d={d}")
    have = clutter.mask_set()
    return Clutter(n, d, tuple(m for m in complete_clutter(n, d).circuit_masks
                               if m not in have))


def neighborhood_map(circuit_masks: Iterable[int]) -> dict[int, int]:
    """Map each submaximal mask e to the mask of its open neighborhood.

    c is a neighbor of e exactly when e plus c is a circuit.
    """
    nbrs: dict[int, int] = {}
    for m in circuit_masks:
        rest = m
        while rest:
            low = rest & -rest
            e = m ^ low
            nbrs[e] = nbrs.get(e, 0) | low
            rest ^= low
    return nbrs


def submaximal_circuits(clutter: Clutter) -> frozenset[Vertices]:
    """All (d-1)-subsets contained in at least one circuit."""
    return frozenset(map(verts_of, neighborhood_map(clutter.circuit_masks)))


def open_neighborhood(clutter: Clutter, e: Iterable[int]) -> Vertices:
    """Vertices c with e + {c} a circuit, for a (d-1)-set e."""
    evs = tuple(e)
    _check_vertex_range(clutter.n, evs)
    emask = mask_of(evs)
    if emask.bit_count() != clutter.d - 1:
        raise ValueError(
            f"open_neighborhood expects a {clutter.d - 1}-subset, got {sorted(set(evs))}")
    nbr = 0
    for m in clutter.circuit_masks:
        if m & emask == emask:
            nbr |= m ^ emask
    return verts_of(nbr)


def closed_neighborhood(clutter: Clutter, e: Iterable[int]) -> Vertices:
    """e together with its open neighborhood."""
    evs = tuple(e)
    return tuple(sorted(set(evs) | set(open_neighborhood(clutter, evs))))


def mask_is_clique(circuit_set: frozenset[int] | set[int], vmask: int, d: int) -> bool:
    """Clique test on masks: every d-subset of vmask is a circuit.

    Sets with fewer than d vertices are cliques vacuously.
    """
    if vmask.bit_count() < d:
        return True
    bits = []
    while vmask:
        low = vmask & -vmask
        bits.append(low)
        vmask ^= low
    # distinct single bits: their sum is the mask of the d-subset
    for sub in combinations(bits, d):
        if sum(sub) not in circuit_set:
            return False
    return True


def is_clique(clutter: Clutter, vertices: Iterable[int]) -> bool:
    """True when every d-subset of the given vertices is a circuit."""
    vs = tuple(vertices)
    _check_vertex_range(clutter.n, vs)
    return mask_is_clique(clutter.mask_set(), mask_of(vs), clutter.d)


def delete(clutter: Clutter, e: Iterable[int]) -> Clutter:
    """Remove every circuit containing the (d-1)-set e."""
    evs = tuple(e)
    _check_vertex_range(clutter.n, evs)
    emask = mask_of(evs)
    if emask.bit_count() != clutter.d - 1:
        raise ValueError(
            f"delete expects a {clutter.d - 1}-subset, got {sorted(set(evs))}")
    kept = tuple(m for m in clutter.circuit_masks if m & emask != emask)
    return Clutter(clutter.n, clutter.d, kept)


def circuit_ideal(clutter: Clutter) -> SquarefreeIdeal:
    """The squarefree ideal generated by the non-circuits of [n].

    This is the Stanley-Reisner ideal of the clique complex: its
    generators are exactly the complement's circuits, so it is
    equigenerated in degree d (and zero for the complete clutter).
    """
    comp = complement(clutter)
    return SquarefreeIdeal(clutter.n, comp.circuit_masks)

