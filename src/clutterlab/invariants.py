"""f-vectors, h-vectors and Betti sequences of chordal clutters.

For a chordal d-uniform clutter the multiset of neighborhood sizes
collected by any complete simplicial order determines the face numbers
of the clique complex, hence the h-vector of its Stanley-Reisner
quotient, hence (the resolution being d-linear) the total Betti numbers
of the circuit ideal.  This module walks that chain, one step per
function, on plain integer coefficient tuples: the multiset gives
f (f_vector_from_multiset), f gives h (h_from_f), and h gives the Betti
numbers (betti_from_h).  h_vector_from_multiset and betti_from_multiset
are those steps composed.  The oracle f_vector_direct counts the faces
of homology.clique_complex_faces instead.

Conventions.  An f-vector is the coefficient tuple of the f-polynomial
f(t) = sum f_{i-1} t^i, so it reads (f_-1, f_0, ..., f_{delta-1}) with
f_-1 = 1 counting the empty face and delta = dim + 1.  An h-vector has
exactly delta + 1 entries h_0..h_delta and may contain negative entries
(clique complexes of chordal clutters are generally not Cohen-Macaulay).
A Betti sequence lists (beta_0, ..., beta_p) with every entry positive;
its length fixes the projective dimension p.
"""

from collections import Counter
from collections.abc import Iterable
from math import comb

from .clutter import Clutter, verts_of  # noqa: F401  perfbench/tracing.py patches this name here
from .guards import F_VECTOR_DEFAULT, check_cap
from .homology import FaceList, clique_complex_faces
from .polynomials import binom

FVector = tuple[int, ...]
HVector = tuple[int, ...]
BettiSequence = tuple[int, ...]


def _as_counts(multiset: Counter | Iterable[int]) -> Counter:
    counts = Counter(multiset)
    for size, mult in counts.items():
        if not isinstance(size, int) or size < 1:
            raise ValueError(f"neighborhood sizes must be positive ints, got {size!r}")
        if not isinstance(mult, int) or mult < 0:
            raise ValueError(f"multiplicities must be non-negative ints, got {mult!r}")
    return +counts


def delta_from_multiset(d: int, multiset: Counter | Iterable[int]) -> int:
    """delta = dim + 1 of the clique complex: max size + d - 1.

    The empty multiset (empty clutter) degenerates to delta = d - 1,
    which needs n >= d - 1.  On fewer vertices the complex is the whole
    simplex on [n], with delta = n, the top index of
    f_vector_from_multiset.
    """
    return max(_as_counts(multiset), default=0) + d - 1


# ----- f ---------------------------------------------------------------------


def f_vector_from_multiset(n: int, d: int,
                           multiset: Counter | Iterable[int]) -> FVector:
    """f-vector (f_-1, ..., f_{delta-1}) of the clique complex from a multiset.

    f(t) = sum_{i<d} C(n,i) t^i  +  t^(d-1) * sum_i M_i t^i, where
    M_i sums C(size, i) over the multiset.  Trailing zeros are dropped,
    so for n < d - 1 the vector stops at f_{n-1}.  The tests check this
    against the equivalent closed form through (1+t)^size - 1.
    """
    counts = _as_counts(multiset)
    if any(size > n - d + 1 for size in counts):
        raise ValueError("a neighborhood size exceeds n - d + 1")
    f = [binom(n, i) for i in range(d)] + [
        sum(mult * binom(size, i) for size, mult in counts.items())
        for i in range(1, max(counts, default=0) + 1)
    ]
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def f_vector_direct(clutter: Clutter, max_n: int | None = None,
                    faces: FaceList | None = None) -> FVector:
    """Brute-force f-vector: the level sizes of the clique complex.

    Independent of the multiset formula: only the clique definition is
    used, through homology.clique_complex_faces.  `faces` may pass in
    the clutter's clique complex on all of [n], as `invariants --verify`
    builds it once for both oracles.  Guarded by the oracle cap since
    the face count is exponential in the worst case.
    """
    check_cap("f_vector_direct", clutter.n, F_VECTOR_DEFAULT, max_n)
    faces = faces or clique_complex_faces(clutter, range(1, clutter.n + 1), max_n=clutter.n)
    return tuple(len(level) for level in faces.by_size)


# ----- h ---------------------------------------------------------------------


def h_from_f(f: FVector) -> HVector:
    """h-vector from an f-vector; delta is the f-vector's top index."""
    if not f or f[0] != 1:
        raise ValueError("an f-vector starts with f_-1 = 1")
    delta = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * binom(delta - i, k - i) * f[i] for i in range(k + 1))
        for k in range(delta + 1)
    )


def f_from_h(h: HVector, delta: int) -> FVector:
    """Inverse transform; h may be given trimmed, missing entries are 0."""
    if len(h) > delta + 1:
        raise ValueError(f"h-vector longer than delta + 1 = {delta + 1}")
    hs = list(h) + [0] * (delta + 1 - len(h))
    return tuple(
        sum(binom(delta - i, k - i) * hs[i] for i in range(k + 1))
        for k in range(delta + 1)
    )


def h_vector_from_multiset(n: int, d: int,
                           multiset: Counter | Iterable[int]) -> HVector:
    """h-vector through h_from_f: delta is the top index of the f-vector."""
    return h_from_f(f_vector_from_multiset(n, d, multiset))


# ----- Betti -----------------------------------------------------------------


def _betti_from_expansion(coeffs: tuple[int, ...], d: int) -> BettiSequence:
    """Read (beta_i) off the coefficients of 1 + sum (-1)^(i+1) beta_i t^(i+d).

    Enforces the d-linear shape: constant term 1, nothing in degrees
    1..d-1, then strictly alternating signs with no interior zeros.
    Trailing zeros are allowed.
    """
    if not coeffs or coeffs[0] != 1:
        raise ValueError("expansion does not start at 1: not a d-linear shape")
    for k in range(1, min(d, len(coeffs))):
        if coeffs[k] != 0:
            raise ValueError(
                f"nonzero coefficient in degree {k} < d: not a d-linear shape")
    betti = []
    tail = coeffs[d:]
    for i, c in enumerate(tail):
        if c == 0:
            if any(tail[i:]):
                raise ValueError(
                    f"interior zero at homological degree {i}: "
                    "minimal resolutions have no gaps")
            break
        if (c > 0) != (i % 2 == 1):
            raise ValueError(
                f"sign violation at homological degree {i}: not a d-linear shape")
        betti.append(abs(c))
    return tuple(betti)


def betti_from_h(n: int, d: int, h: HVector, delta: int) -> BettiSequence:
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
    # Not tuple(generator): CPython grows such a tuple from 10 slots and
    # shrinks it, which shuffles tuple free lists and raises peak memory.
    expansion = tuple([
        sum((-1) ** (k - i) * binom(m, k - i) * h[i] for i in range(min(k + 1, len(h))))
        for k in range(m + len(h))
    ])
    return _betti_from_expansion(expansion, d)


def betti_from_multiset(n: int, d: int,
                        multiset: Counter | Iterable[int]) -> BettiSequence:
    """Total Betti numbers from the multiset, through f, h and betti_from_h.

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
    h = h_vector_from_multiset(n, d, counts)
    return betti_from_h(n, d, h, len(h) - 1)


def multiplicity(clutter: Clutter) -> int:
    """Circuit count = number of (d-1)-dimensional cliques.

    For a chordal clutter this equals the multiplicity invariant of the
    circuit ideal; the count itself is well-defined for any clutter.
    """
    return clutter.num_circuits


def projective_dimension(betti: BettiSequence) -> int:
    """Index of the last Betti number (the sequence is gap-free)."""
    if not betti:
        raise ValueError("the zero ideal has no projective dimension here")
    return len(betti) - 1
