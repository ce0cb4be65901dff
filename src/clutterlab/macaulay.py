"""Macaulay representations, M-sequences and realizable lambda-sequences.

The lambda-sequence of a chordal d-uniform clutter on [n] is governed
by an arithmetic ladder: a fixed alpha-sequence depending only on
(n, d), and a varying part that is exactly the m-vector (generator
counts by largest variable index) of a squarefree strongly stable ideal
generated in degree d.  A candidate lambda is realizable precisely when
the l-sequence recovered from it is an M-sequence whose second entry is
at most d.  This module implements both directions of that translation,
the classical Macaulay growth bound behind "M-sequence", the extremal
profiles attaining the per-index maximum, and the generator-count
identity used to cross-check strongly stable ideals.

The arithmetic runs as C-level passes over math.comb where it can.
The growth check warm-starts each top of a Macaulay representation from
the one found before it, which Macaulay's theorem (1927) makes sound
and close: C(t, k) strictly increases in t >= k, so any start finds the
same largest top, and l_{i+1} <= l_i^<i> < C(a_i + 2, i + 1), a_i the
first top of l_i, puts the first top of l_{i+1} at most a_i + 1.

A lambda trimmed to k entries touches only the last k entries of its
l-sequence.  The head below h = n-d+1-k is C(d-1+j, j), the Hilbert
function of K[x_1..x_d], which meets every growth bound with equality:
C(d-1+i, i)^<i> = C(d+i, i+1).  So lsequence_from_lambda subtracts and
sign-checks only the tail, and validate_lambda checks the growth bound
from index h on, at a cost set by lambda's nonzero tail.
"""

from collections.abc import Iterable, Sequence
from itertools import accumulate, combinations, islice, repeat
from math import comb
from operator import sub

from .clutter import (
    Clutter,
    Record,
    SquarefreeIdeal,
    Vertices,
    ideal_from_masks,
    mask_of,
    verts_of,
)
from .polynomials import IntPolynomial, binom

LSequence = tuple[int, ...]


# ----- Macaulay representation and growth bound ------------------------------


def _top(rest: int, idx: int, start: int) -> int:
    """Largest top with C(top, idx) <= rest, for rest >= 1 and start >= idx.

    C(top, idx) strictly increases in top >= idx, so every start finds
    the same top; a start near it finds it in few steps.  Gallop
    from start, doubling the step, in the direction of the answer, then
    bisect.  C(idx, idx) = 1 <= rest stops a downward gallop at idx.
    """
    lo, hi, step = start, start, 1
    if comb(start, idx) <= rest:
        while comb(hi := lo + step, idx) <= rest:
            lo, step = hi, 2 * step
    else:
        while comb(lo := max(hi - step, idx), idx) > rest:
            hi, step = lo, 2 * step
    while hi - lo > 1:  # C(lo, idx) <= rest < C(hi, idx)
        mid = (lo + hi) // 2
        if comb(mid, idx) <= rest:
            lo = mid
        else:
            hi = mid
    return lo


def macaulay_representation(a: int, i: int) -> tuple[tuple[int, int], ...]:
    """Greedy binomial expansion of a at index i.

    Returns ((a_i, i), (a_{i-1}, i-1), ...) with a = sum C(a_k, k),
    a_i > a_{i-1} > ... and every a_k >= k >= 1.  The greedy choice is
    the unique such representation.  Requires a >= 1 and i >= 1.
    """
    if a < 1:
        raise ValueError(f"positive integer expected, got {a}")
    if i < 1:
        raise ValueError(f"positive index expected, got {i}")
    rep = []
    rest, idx = a, i
    while rest > 0:
        top = _top(rest, idx, idx)
        rep.append((top, idx))
        rest -= comb(top, idx)
        idx -= 1
    return tuple(rep)


def macaulay_bound(a: int, i: int) -> int:
    """a^<i>: shift every term of the representation up by one.

    This is the classical upper bound for the next value of an
    M-sequence after a at position i; 0^<i> = 0.
    """
    if a == 0:
        return 0
    return sum(comb(top + 1, idx + 1)
               for top, idx in macaulay_representation(a, i))


def is_M_sequence(seq: Sequence[int]) -> bool:
    """True for l_0 = 1 and l_{i+1} <= l_i^<i> for i = 1, 2, ....

    The step from l_0 to l_1 is unconstrained (any number of variables
    may appear in degree one); all entries must be non-negative.  The
    growth bounds are checked by _within_growth_bounds from i = 1.  An
    entry C(d-1+i, i), the Hilbert function of K[x_1..x_d], has the
    one-term representation (d-1+i, i) and the bound C(d+i, i+1), the
    next such entry: a run of them meets every bound with equality,
    which lets validate_lambda start past its l-sequence's head.
    """
    ls = tuple(seq)
    if not ls or ls[0] != 1 or not all(map(isinstance, ls, repeat(int))) or min(ls) < 0:
        return False
    return _within_growth_bounds(ls, 1, 0)


def _within_growth_bounds(ls: LSequence, first: int, top: int) -> bool:
    """l_{i+1} <= l_i^<i> for i = first, ..., len(ls) - 2.

    ls holds non-negative ints, first >= 1, and top is l_{first-1}'s
    first top, or any top >= 0 when first = 1, as l_0 has none.  Each
    l_i^<i> is summed term by term from l_i's representation, and only
    until it reaches l_{i+1}.  The search for l_i's first top starts at
    l_{i-1}'s first top + 1, and each later top at the one before it - 1.
    Any start gives the same top (see _top), and these are close:
    l_{i-1}^<i-1> is itself a representation at index i with top
    a_{i-1} + 1, so l_{i-1}^<i-1> < C(a_{i-1} + 2, i), and
    l_i <= l_{i-1}^<i-1> forces a_i <= a_{i-1} + 1.  When that bound
    fails, the function has returned False before the search.
    """
    for i in range(first, len(ls) - 1):
        rest, nxt = ls[i], ls[i + 1]
        bound, idx, start = 0, i, top + 1
        while rest and bound < nxt:
            start = _top(rest, idx, start)
            top = start if idx == i else top
            bound += comb(start + 1, idx + 1)
            rest -= comb(start, idx)
            idx, start = idx - 1, start - 1
        if nxt > bound:
            return False
    return True


# ----- the alpha-sequence ----------------------------------------------------


class AlphaSequence(Record):
    """The (n, d) ladder: alpha, its negated partial sums sigma, and p.

    alpha is defined by sum alpha_j s^j = sum_{j=0}^{n-d} C(n, d+j) (s-1)^(j+1),
    a polynomial of degree n-d+1.  sigma_j = -(alpha_0 + ... + alpha_j)
    is non-negative with sigma_{n-d+1} = 0, and p(s) = sum_{j} C(n, d+j) (s-1)^j
    has coefficients (sigma_0, ..., sigma_{n-d}), monic of degree n-d.
    Fields n, d, alpha and sigma, the last two tuples of ints.
    """

    __slots__ = ("n", "d", "alpha", "sigma")


def p_polynomial(n: int, d: int) -> IntPolynomial:
    """p(s) = sum_{j=0}^{n-d} C(n, d+j) (s-1)^j, for n >= d >= 0."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    poly = IntPolynomial()
    s_minus_1 = IntPolynomial([-1, 1])
    power = IntPolynomial([1])
    for j in range(n - d + 1):
        poly = poly + power.scale(comb(n, d + j))
        power = power * s_minus_1
    return poly


def alpha_sequence(n: int, d: int) -> AlphaSequence:
    """Build the alpha/sigma data for 1 <= d < n, in O(n) binomials.

    sigma_k = C(n-1-k, d-1), and alpha follows as alpha_0 = -sigma_0,
    alpha_k = sigma_{k-1} - sigma_k.  This agrees with the generating
    function, the authoritative definition: p(s) has coefficients
    sigma_0..sigma_{n-d} (the tests compare them with p_polynomial),
    and alpha(s) = (s-1) p(s).  See alpha_entry_closed_form for the
    summation form of each alpha_k.
    """
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    sigma = (*map(comb, range(n - 1, d - 2, -1), repeat(d - 1)), 0)
    alpha = (-sigma[0], *map(sub, sigma, sigma[1:]))
    return AlphaSequence(n, d, alpha, sigma)


def alpha_entry_closed_form(n: int, d: int, k: int) -> int:
    """Direct summation form of alpha_k.

    alpha_k = sum_{j >= max(k, 1)}^{n-d+1} (-1)^(j-k) C(n, d+j-1) C(j, k).
    The lower limit is max(k, 1), not k: the generating function has no
    (s-1)^0 term, so the j = 0 summand must be excluded at k = 0.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    return sum(
        (-1) ** (j - k) * binom(n, d + j - 1) * binom(j, k)
        for j in range(max(k, 1), n - d + 2)
    )


# ----- lambda <-> l-sequence -------------------------------------------------


class UnrealizableLambda(ValueError):
    """A candidate lambda-sequence no chordal clutter can produce."""


def lambda_from_lsequence(n: int, d: int, l: Sequence[int]) -> tuple[int, ...]:
    """lambda-sequence from an l-sequence (l_0, ..., l_{n-d}).

    lambda_{n-d-i} = alpha_{n-d-i} + l_i - l_{i+1} for i = 0..n-d-1, and
    lambda_{n-d+1} = 1 - l_0 = 0.  Raises UnrealizableLambda when some
    entry comes out negative, naming the offending index.
    """
    ls = list(l)
    if len(ls) != n - d + 1:
        raise ValueError(
            f"l-sequence must have n - d + 1 = {n - d + 1} entries, got {len(ls)}")
    if ls[0] != 1:
        raise ValueError(f"l_0 must be 1, got {ls[0]}")
    alpha = alpha_sequence(n, d).alpha
    lam = [0] * (n - d + 1)  # lambda_1 .. lambda_{n-d+1}
    for i in range(n - d):
        j = n - d - i  # target index of lambda
        lam[j - 1] = alpha[j] + ls[i] - ls[i + 1]
        if lam[j - 1] < 0:
            raise UnrealizableLambda(
                f"lambda_{j} = {lam[j - 1]} < 0 for the given l-sequence")
    lam[n - d] = 1 - ls[0]
    while lam and lam[-1] == 0:
        lam.pop()
    return tuple(lam)


def lsequence_from_lambda(n: int, d: int, lam: Sequence[int]) -> LSequence:
    """Invert lambda_from_lsequence.

    l_j = sigma_{n-d-j} - (lambda_{n-d-j+1} + ... + lambda_{n-d+1}) for
    j = 0..n-d, where sigma_{n-d-j} = C(d-1+j, d-1).  The input may be
    trimmed; anything longer than n-d entries means the clutter would
    have to be complete, which has no l-sequence, so that raises.  With
    lambda trimmed to k entries, the sums vanish below h = n-d+1-k, so
    the head l_0..l_{h-1} is C(d-1+j, d-1) >= 1, the Hilbert function
    of K[x_1..x_d], and only the k tail entries are subtracted and
    checked for sign.  A negative l_j raises UnrealizableLambda with
    the first offending index.  Parameters outside 1 <= d < n raise
    ValueError before any other check.
    """
    return _split_lsequence(n, d, lam)[0]


def _split_lsequence(n: int, d: int, lam: Sequence[int]) -> tuple[LSequence, int]:
    """lsequence_from_lambda's l-sequence, and the length h of its head."""
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    lam = list(lam)
    if not all(map(isinstance, lam, repeat(int))) or lam and min(lam) < 0:
        raise ValueError("lambda entries must be non-negative integers")
    while lam and lam[-1] == 0:
        lam.pop()
    if len(lam) > n - d:
        raise UnrealizableLambda(
            f"lambda_{len(lam)} > 0 needs more than n - d = {n - d} deletions "
            "of distinct sizes; only the complete clutter reaches index "
            f"{n - d + 1}, and it is excluded here")
    h = n - d + 1 - len(lam)
    tail = [*map(sub, map(comb, range(d - 1 + h, n), repeat(d - 1)), accumulate(reversed(lam)))]
    if tail and min(tail) < 0:
        j = next(j for j, lj in enumerate(tail) if lj < 0)
        raise UnrealizableLambda(f"l_{h + j} = {tail[j]} < 0: lambda is not realizable")
    return (*map(comb, range(d - 1, d - 1 + h), repeat(d - 1)), *tail), h


class LambdaDiagnosis(Record):
    """Outcome of a realizability check for a candidate lambda.

    Fields valid, a bool; reason, a str or None; and l_sequence, the
    recovered l-sequence or None.
    """

    __slots__ = ("valid", "reason", "l_sequence")


def validate_lambda(n: int, d: int, lam: Sequence[int]) -> LambdaDiagnosis:
    """Full realizability check with a structured verdict.

    Valid means: the l-sequence exists (no negative entry), is an
    M-sequence, and has l_1 <= d.  Exactly the lambda-sequences of
    chordal d-uniform clutters on [n] other than the complete one pass.

    l_1 <= d needs no check: an l-sequence exists only for lambda with
    at most n-d entries, so lambda_{n-d+1} = 0 and l_1 = d - lambda_{n-d}.
    The growth bound is checked from index h only, h >= 1 the length of
    the head of lsequence_from_lambda, warm-started at l_{h-1}'s first
    top d-2+h.  The bounds below h are met: the head entry
    l_i = C(d-1+i, i) has the one-term representation (d-1+i, i), so
    l_i^<i> = C(d+i, i+1) is the untouched value at i+1.  Inside the
    head that is l_{i+1}, with equality, and at i = h-1 it is >= l_h,
    which subtracts a non-negative sum of lambda's entries from it.
    """
    try:
        ls, h = _split_lsequence(n, d, lam)
    except (UnrealizableLambda, ValueError) as exc:
        return LambdaDiagnosis(False, str(exc), None)
    if not _within_growth_bounds(ls, h, d - 2 + h):
        return LambdaDiagnosis(
            False, f"recovered l-sequence {ls} violates the Macaulay growth bound", ls)
    return LambdaDiagnosis(True, None, ls)


def is_valid_lambda(n: int, d: int, lam: Sequence[int]) -> bool:
    return validate_lambda(n, d, lam).valid


# ----- extremal values -------------------------------------------------------


def _check_index(n: int, d: int, i: int) -> None:
    """The extremal results need d >= 1 and 1 <= i <= n - d."""
    if d < 1:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    if not 1 <= i <= n - d:
        raise ValueError(f"index must satisfy 1 <= i <= n - d = {n - d}, got {i}")


def lambda_max(n: int, d: int, i: int) -> int:
    """Largest lambda_i over chordal clutters on [n] other than the complete one.

    Equals C(n-i, d-1): the bound is alpha_i + C(n-1-i, d-1), and
    alpha_i = sigma_{i-1} - sigma_i = C(n-i, d-1) - C(n-1-i, d-1).
    Requires d >= 1 and 1 <= i <= n - d.
    """
    _check_index(n, d, i)
    return binom(n - i, d - 1)


def extremal_lambda_profile(n: int, d: int, i: int) -> tuple[int, ...]:
    """The unique lambda attaining lambda_max at index i.

    lambda_j = alpha_j for j < i, alpha_i + C(n-1-i, d-1) at j = i, and
    alpha_j - C(n-1-j, d-2) for j > i.  By Pascal's rule alpha_j =
    C(n-1-j, d-2), so the entries before i are C(n-1-j, d-2), entry i
    is lambda_max = C(n-i, d-1) > 0, and every entry after i is 0 and
    trimmed.  For d = 1, binom's zero extension gives the zero entries
    before i; math.comb refuses a negative k.
    """
    _check_index(n, d, i)
    choose = comb if d > 1 else binom
    return (*map(choose, range(n - 2, n - 1 - i, -1), repeat(d - 2)), choose(n - i, d - 1))


def extremal_clutter(n: int, d: int, i: int) -> Clutter:
    """The clutter of d-subsets not contained in [n-i].

    Its circuit ideal is squarefree strongly stable and its
    lambda-sequence matches extremal_lambda_profile(n, d, i).  The
    d-subsets come from combinations in lexicographic order, so their
    masks are in canonical order and need no sort.
    """
    _check_index(n, d, i)
    cutoff = 1 << (n - i)  # masks below this live inside [n-i]
    masks = map(mask_of, combinations(range(1, n + 1), d))
    return Clutter(n, d, tuple(m for m in masks if m >= cutoff))


def complete_lambda(n: int, d: int) -> tuple[int, ...]:
    """lambda-sequence of the complete d-uniform clutter on [n].

    lambda_i = C(n-1-i, d-2) for i = 1..n-d+1; needs n >= d >= 2, so
    n-1-i >= d-2 >= 0 and every entry is positive.
    """
    if d < 2 or n < d:
        raise ValueError(f"need n >= d >= 2, got n={n}, d={d}")
    return tuple(map(comb, range(n - 2, d - 3, -1), repeat(d - 2)))


# ----- squarefree strongly stable ideals -------------------------------------


def _down_exchanges(g: int) -> Iterable[int]:
    """(u - {j}) + {i} for the set u of g, every j in u and i < j outside u."""
    for j in verts_of(g):
        for i in range(1, j):
            if not g >> (i - 1) & 1:
                yield g ^ (1 << (j - 1)) | (1 << (i - 1))


def is_squarefree_strongly_stable(ideal: SquarefreeIdeal) -> bool:
    """Exchange test: swapping any generator vertex down stays in the ideal.

    For every generator u, every j in u and every i < j outside u, the
    set (u - {j}) + {i} must contain some generator.
    """
    gens = ideal.gen_masks
    return all(any(h & s == h for h in gens) for g in gens for s in _down_exchanges(g))


def m_vector(ideal: SquarefreeIdeal) -> tuple[int, ...]:
    """(m_d, ..., m_n): generator counts by largest vertex.

    Requires an ideal equigenerated in some degree d with at least one
    generator.
    """
    d = ideal.degree
    if d is None:
        raise ValueError("m_vector needs an equigenerated ideal")
    counts = [0] * (ideal.n - d + 1)
    for g in ideal.gen_masks:
        counts[g.bit_length() - d] += 1
    return tuple(counts)


def mu_direct(ideal: SquarefreeIdeal, j: int) -> int:
    """Count minimal generators of the degree-(d+j) truncation directly.

    The truncation is generated by every squarefree monomial of degree
    d + j lying in the ideal; being equigenerated they are all minimal,
    so this is a plain count over (d+j)-subsets of [n].  No stability
    assumption is used.
    """
    d = ideal.degree
    if d is None:
        raise ValueError("mu_direct needs an equigenerated ideal")
    if j < 0:
        raise ValueError(f"non-negative shift expected, got {j}")
    return sum(map(ideal.contains, combinations(range(1, ideal.n + 1), d + j)))


def mu_via_lemma(ideal: SquarefreeIdeal, j: int) -> int:
    """Truncation generator count via the m-vector identity.

    mu_{d+j} = sum_i C(n-d-i, j) m_{d+i}, valid for squarefree strongly
    stable ideals equigenerated in degree d; refuses other input.
    """
    if j < 0:
        raise ValueError(f"non-negative shift expected, got {j}")
    if not is_squarefree_strongly_stable(ideal):
        raise ValueError("mu_via_lemma needs a squarefree strongly stable ideal")
    d = ideal.degree
    if d is None:
        raise ValueError("mu_via_lemma needs an equigenerated ideal")
    mv = m_vector(ideal)
    n = ideal.n
    return sum(binom(n - d - i, j) * mv[i] for i in range(n - d + 1))


def strongly_stable_closure(n: int, seeds: Iterable[Vertices]) -> SquarefreeIdeal:
    """Smallest squarefree strongly stable ideal containing the seed sets.

    Closes the seed generators under all downward exchanges.  Seeds
    must share one cardinality so the closure stays equigenerated.
    """
    masks = {mask_of(s) for s in seeds}
    if not masks:
        raise ValueError("at least one seed generator is required")
    if len({m.bit_count() for m in masks}) != 1:
        raise ValueError("seed generators must share one cardinality")
    queue = list(masks)
    while queue:
        for swapped in _down_exchanges(queue.pop()):
            if swapped not in masks:
                masks.add(swapped)
                queue.append(swapped)
    return ideal_from_masks(n, masks)


def ideal_with_m_vector(n: int, d: int, counts: Sequence[int]) -> SquarefreeIdeal:
    """A squarefree strongly stable witness with a prescribed m-vector.

    For each largest-vertex level d+i this takes the counts[i] first
    (d-1)-subsets of [d+i-1] in lexicographic order and appends the
    level vertex.  The generators are distinct (each level takes
    distinct subsets, and levels differ in their largest vertex), so
    the m-vector is counts by construction.  The result is verified
    to be strongly stable: when it is not (exactly when counts is not
    an M-sequence with second entry <= d), a ValueError is raised
    rather than returning a wrong witness.  All-zero counts describe
    no ideal and raise ValueError too.
    """
    counts = list(counts)
    if len(counts) != n - d + 1:
        raise ValueError(
            f"m-vector must have n - d + 1 = {n - d + 1} entries, got {len(counts)}")
    if any(not isinstance(c, int) or c < 0 for c in counts):
        raise ValueError("m-vector entries must be non-negative integers")
    if not any(counts):
        raise ValueError("an all-zero m-vector describes no ideal")
    masks = []
    for i, c in enumerate(counts):
        level = d + i
        capacity = comb(level - 1, d - 1)
        if c > capacity:
            raise ValueError(
                f"m_{level} = {c} exceeds the {capacity} available "
                f"{d}-sets with largest vertex {level}")
        masks.extend(mask_of(base) | (1 << (level - 1))
                     for base in islice(combinations(range(1, level), d - 1), c))
    ideal = ideal_from_masks(n, masks)
    if not is_squarefree_strongly_stable(ideal):
        raise ValueError(
            "greedy witness is not strongly stable; the requested m-vector "
            "is not an M-sequence with second entry <= d")
    return ideal
