"""Macaulay arithmetic, alpha-sequences, lambda realizability, stable ideals."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from clutterlab import (
    UnrealizableLambda,
    alpha_entry_closed_form,
    alpha_sequence,
    complete_clutter,
    complete_lambda,
    circuit_ideal,
    extremal_clutter,
    extremal_lambda_profile,
    ideal_with_m_vector,
    is_M_sequence,
    is_chordal,
    is_squarefree_strongly_stable,
    is_valid_lambda,
    lambda_from_lsequence,
    lambda_max,
    lambda_of,
    lsequence_from_lambda,
    m_vector,
    macaulay_bound,
    macaulay_representation,
    make_ideal,
    mu_direct,
    mu_via_lemma,
    p_polynomial,
    random_chordal_clutter,
    random_strongly_stable_ideal,
    strongly_stable_closure,
    validate_lambda,
)
from clutterlab.macaulay import _top
from clutterlab.polynomials import IntPolynomial, binom


def test_macaulay_representation_examples():
    assert macaulay_representation(5, 2) == ((3, 2), (2, 1))
    assert macaulay_representation(10, 3) == ((5, 3),)
    for i in range(1, 6):
        assert macaulay_representation(1, i) == ((i, i),)
    with pytest.raises(ValueError):
        macaulay_representation(0, 2)
    with pytest.raises(ValueError):
        macaulay_representation(3, 0)


def linear_scan_representation(a: int, i: int) -> tuple[tuple[int, int], ...]:
    """Reference: each top binomial found by scanning upward one at a time."""
    rep = []
    rest = a
    idx = i
    while rest > 0:
        top = idx
        while comb(top + 1, idx) <= rest:
            top += 1
        rep.append((top, idx))
        rest -= comb(top, idx)
        idx -= 1
    return tuple(rep)


def boundary_values(i: int) -> list[int]:
    """Every small value, and both sides of every binomial boundary at i."""
    values = set(range(1, 300))
    for top in range(i, 60):
        values.update({comb(top, i) - 1, comb(top, i), comb(top, i) + 1})
    return sorted(values - {0})


def test_macaulay_representation_matches_linear_scan():
    for i in range(1, 9):
        for a in boundary_values(i):
            assert macaulay_representation(a, i) == linear_scan_representation(a, i), (a, i)


def test_top_search_from_every_start_matches_linear_scan():
    # the answer must not depend on the start, below or above the top
    for i in range(1, 11):
        for a in boundary_values(i):
            top = linear_scan_representation(a, i)[0][0]
            for start in range(i, top + 4):
                assert _top(a, i, start) == top, (a, i, start)


def bisect_representation(a: int, i: int) -> tuple[tuple[int, int], ...]:
    """Reference: each top found from idx by doubling a step, then bisecting."""
    rep = []
    rest = a
    idx = i
    while rest > 0:
        lo, step = idx, 1
        while comb(lo + step, idx) <= rest:
            lo, step = lo + step, 2 * step
        hi = lo + step  # C(lo, idx) <= rest < C(hi, idx)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if comb(mid, idx) <= rest:
                lo = mid
            else:
                hi = mid
        rep.append((lo, idx))
        rest -= comb(lo, idx)
        idx -= 1
    return tuple(rep)


@cache
def bound_ref(a: int, i: int) -> int:
    """Reference a^<i>, each term summed from bisect_representation."""
    return sum(comb(top + 1, idx + 1) for top, idx in bisect_representation(a, i))


def is_M_sequence_ref(seq) -> bool:
    """Reference: the entry checks, then every growth bound in full."""
    ls = list(seq)
    if not ls or ls[0] != 1:
        return False
    if any(not isinstance(x, int) or x < 0 for x in ls):
        return False
    return all(ls[i + 1] <= bound_ref(ls[i], i) for i in range(1, len(ls) - 1))


def test_bisect_representation_matches_linear_scan():
    for i in range(1, 9):
        for a in boundary_values(i):
            assert bisect_representation(a, i) == linear_scan_representation(a, i), (a, i)


def test_macaulay_representation_of_huge_values():
    for a, i in ((10**24, 3), (10**60 + 7, 5), (2**200, 2)):
        rep = macaulay_representation(a, i)
        assert sum(comb(t, k) for t, k in rep) == a
        assert [k for _, k in rep] == list(range(i, i - len(rep), -1))
        assert all(t > u for (t, _), (u, _) in zip(rep, rep[1:]))


def test_macaulay_representation_reconstructs():
    rng = random.Random(2)
    for _ in range(300):
        a = rng.randint(1, 10_000)
        i = rng.randint(1, 10)
        rep = macaulay_representation(a, i)
        assert sum(comb(t, k) for t, k in rep) == a
        tops = [t for t, _ in rep]
        assert tops == sorted(tops, reverse=True)
        ks = [k for _, k in rep]
        assert ks == list(range(i, i - len(ks), -1))


def test_macaulay_bound_examples():
    assert macaulay_bound(5, 2) == 7
    assert macaulay_bound(0, 3) == 0
    for d in range(1, 5):
        for i in range(1, 6):
            assert macaulay_bound(comb(d + i - 1, i), i) == comb(d + i, i + 1)


def test_is_M_sequence():
    assert is_M_sequence((1, 3, 6, 10))
    assert not is_M_sequence((1, 2, 4))
    assert not is_M_sequence((1, 0, 5))
    assert not is_M_sequence((2, 1))
    assert is_M_sequence((1,))
    # l_1 itself is unconstrained by the growth chain
    assert is_M_sequence((1, 99, 100))


def test_is_M_sequence_on_every_small_sequence():
    for tail in product(range(8), repeat=5):
        seq = (1, *tail)
        assert is_M_sequence(seq) == is_M_sequence_ref(seq), seq


@given(st.integers(0, 40) | st.integers(0, 10**30),
       st.lists(st.integers(-3, 1) | st.integers(-10**30, 0), max_size=58))
@example(10**30, [0] * 58)
@example(7, [0] * 40 + [1])
@example(0, [0, 1])
def test_is_M_sequence_near_the_boundary(l1, shifts):
    # each entry is the previous one's growth bound moved by a shift, the
    # small shifts landing on either side of it, clamped to 0..10**30
    seq = [1, l1]
    for shift in shifts:
        seq.append(min(max(bound_ref(seq[-1], len(seq) - 1) + shift, 0), 10**30))
    assert is_M_sequence(seq) == is_M_sequence_ref(seq), seq


ODD_ENTRIES = st.sampled_from([True, False, -1, -10**30, 1.0, 2.5, None, "1", Fraction(1)])


@given(st.lists(st.integers(0, 9) | ODD_ENTRIES, max_size=8), st.booleans())
@example([True, 3, 3], False)
@example([3, 4], True)
@example([3, -1], True)
@example([3, 4.0], True)
def test_is_M_sequence_entry_checks_match(entries, lead):
    seq = [1, *entries] if lead else entries
    assert is_M_sequence(seq) == is_M_sequence_ref(seq), seq
    assert is_M_sequence(tuple(seq)) == is_M_sequence(iter(seq))


def test_alpha_sequence_examples():
    a = alpha_sequence(4, 3)
    assert a.alpha == (-3, 2, 1)
    assert a.sigma == (3, 1, 0)
    a = alpha_sequence(5, 3)
    assert a.alpha == (-6, 3, 2, 1)
    assert a.sigma == (6, 3, 1, 0)
    with pytest.raises(ValueError):
        alpha_sequence(3, 3)


def test_alpha_closed_form_matches_generating_function():
    for n in range(2, 13):
        for d in range(1, n):
            a = alpha_sequence(n, d)
            for k in range(n - d + 2):
                assert alpha_entry_closed_form(n, d, k) == a.alpha[k]


def test_alpha_sequence_matches_generating_function():
    # alpha(s) = (s - 1) p(s); alpha_sequence uses the binomial closed form
    for n in range(2, 40):
        for d in range(1, n):
            gen = p_polynomial(n, d) * IntPolynomial([-1, 1])
            expected = tuple(gen.coeff(j) for j in range(n - d + 2))
            assert alpha_sequence(n, d).alpha == expected, (n, d)


def test_p_polynomial_properties():
    for n in range(1, 15):
        for d in range(0, n):
            p = p_polynomial(n, d)
            assert p.degree == n - d
            assert p.coeffs[-1] == 1
            assert all(c >= 0 for c in p.coeffs)
    # degenerate case: p_{n,0} = s^n means a single leading 1
    p = p_polynomial(6, 0)
    assert p.coeffs == (0,) * 6 + (1,)


def test_p_polynomial_pascal_recursion():
    for n in range(2, 14):
        for d in range(1, n):
            assert p_polynomial(n + 1, d) == p_polynomial(n, d) + p_polynomial(n, d - 1)


def test_p_coefficients_are_sigma():
    for n in range(2, 41):
        for d in range(1, n):
            a = alpha_sequence(n, d)
            assert p_polynomial(n, d).coeffs == a.sigma[:-1]
            assert a.sigma[-1] == 0


def lsequence_ref(n: int, d: int, lam) -> tuple[int, ...]:
    """Reference: the tails of lambda summed one entry at a time."""
    lam = list(lam)
    if any(not isinstance(x, int) or x < 0 for x in lam):
        raise ValueError("lambda entries must be non-negative integers")
    while lam and lam[-1] == 0:
        lam.pop()
    if len(lam) > n - d:
        raise UnrealizableLambda(
            f"lambda_{len(lam)} > 0 needs more than n - d = {n - d} deletions "
            "of distinct sizes; only the complete clutter reaches index "
            f"{n - d + 1}, and it is excluded here")
    full = lam + [0] * (n - d + 1 - len(lam))
    sig = [binom(n - 1 - k, d - 1) for k in range(n - d + 2)]
    out = []
    tail = 0
    for k in range(n - d + 1):
        j = n - d - k
        tail += full[j]
        lk = sig[j] - tail
        if lk < 0:
            raise UnrealizableLambda(f"l_{k} = {lk} < 0: lambda is not realizable")
        out.append(lk)
    return tuple(out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_lsequence_from_lambda_matches_plain_loop_on_small_input():
    # every lambda of length <= 3 with entries <= 7, on every (n, d) with n <= 6
    for n in range(2, 7):
        for d in range(1, n):
            for size in range(4):
                for lam in product(range(8), repeat=size):
                    assert outcome(lsequence_from_lambda, n, d, lam) == \
                        outcome(lsequence_ref, n, d, lam), (n, d, lam)


@given(st.data(), st.integers(2, 40))
def test_lsequence_from_lambda_matches_plain_loop(data, n):
    d = data.draw(st.integers(1, n - 1))
    top = comb(n - 1, d - 1) + 2
    entry = (st.integers(0, 2) | st.integers(0, top) | st.integers(-2, 0)
             | st.sampled_from([True, 1.0, None]))
    lam = data.draw(st.lists(entry, max_size=n - d + 2))
    assert outcome(lsequence_from_lambda, n, d, lam) == outcome(lsequence_ref, n, d, lam)


def test_lsequence_from_lambda_checks_parameters_first():
    for n, d in ((3, 4), (3, 3), (6, 0), (0, 0)):
        for lam in ((), (1,), (1, 2, 3, 4, 5), (-1,)):
            with pytest.raises(ValueError, match="^need 1 <= d < n, got ") as exc:
                lsequence_from_lambda(n, d, lam)
            assert type(exc.value) is ValueError
            diag = validate_lambda(n, d, lam)
            assert not diag.valid and diag.reason == f"need 1 <= d < n, got d={d}, n={n}"


def test_lambda_from_lsequence_examples():
    assert lambda_from_lsequence(4, 3, (1, 0)) == (3,)
    assert lambda_from_lsequence(5, 3, (1, 1, 0)) == (4, 2)
    # third reference value re-derived from the complement of a single
    # triple on [5]: f = (1,5,10,9,3) forces the multiset {1,1,1,2,2,2}
    assert lambda_from_lsequence(5, 3, (1, 0, 0)) == (3, 3)
    with pytest.raises(ValueError):
        lambda_from_lsequence(5, 3, (1, 0))        # wrong length
    with pytest.raises(ValueError):
        lambda_from_lsequence(5, 3, (2, 0, 0))     # l_0 != 1


def test_lsequence_from_lambda_examples():
    assert lsequence_from_lambda(5, 3, (4, 2)) == (1, 1, 0)
    assert lsequence_from_lambda(4, 3, (3,)) == (1, 0)
    with pytest.raises(UnrealizableLambda):
        lsequence_from_lambda(4, 3, (2, 1))   # lambda of the complete clutter
    with pytest.raises(UnrealizableLambda):
        lsequence_from_lambda(5, 3, (6, 2))   # forces a negative m entry


def test_round_trip_on_enumerated_msequences():
    n, d = 6, 3
    cap = comb(n - 1, d - 1)
    seqs = [(1,)]
    for _ in range(n - d):
        grown = []
        for s in seqs:
            bound = cap if len(s) == 1 else min(cap, macaulay_bound(s[-1], len(s) - 1))
            for nxt in range(bound + 1):
                grown.append(s + (nxt,))
        seqs = grown
    checked = 0
    for l in seqs:
        if l[1] > d:
            continue
        lam = lambda_from_lsequence(n, d, l)
        assert all(v >= 0 for v in lam)
        assert lsequence_from_lambda(n, d, lam) == l
        assert is_valid_lambda(n, d, lam)
        checked += 1
    assert checked > 10


def test_validate_lambda():
    assert is_valid_lambda(5, 3, (4, 2))
    assert is_valid_lambda(5, 3, (6,))
    assert not is_valid_lambda(5, 3, (7, 2))
    diag = validate_lambda(5, 3, (4, 2))
    assert diag.valid and diag.l_sequence == (1, 1, 0)
    diag = validate_lambda(5, 3, (6, 2))
    assert not diag.valid and "lambda is not realizable" in diag.reason
    diag = validate_lambda(4, 3, (2, 1))
    assert not diag.valid
    # negative entries rejected cleanly
    assert not is_valid_lambda(5, 3, (-1, 2))


def test_lambda_max_examples():
    assert lambda_max(4, 3, 1) == 3
    assert lambda_max(5, 3, 1) == 6
    assert lambda_max(5, 3, 2) == 3
    with pytest.raises(ValueError):
        lambda_max(5, 3, 3)
    with pytest.raises(ValueError):
        lambda_max(5, 3, 0)


def test_extremal_lambda_profile():
    assert extremal_lambda_profile(4, 3, 1) == (3,)
    # untrimmed profile is (6, 0); the sequence type trims trailing zeros
    assert extremal_lambda_profile(5, 3, 1) == (6,)
    assert extremal_lambda_profile(5, 3, 2) == (3, 3)
    for n in range(4, 8):
        for i in range(1, n - 3 + 1):
            assert is_valid_lambda(n, 3, extremal_lambda_profile(n, 3, i))


def test_lambda_max_and_profile_match_alpha_formulas():
    # the alpha-based forms the closed forms replaced, kept as the reference
    def ref_lambda_max(n, d, i):
        return alpha_sequence(n, d).alpha[i] + binom(n - 1 - i, d - 1)

    def ref_profile(n, d, i):
        alpha = alpha_sequence(n, d).alpha
        lam = []
        for j in range(1, n - d + 1):
            if j < i:
                lam.append(alpha[j])
            elif j == i:
                lam.append(alpha[j] + binom(n - 1 - i, d - 1))
            else:
                lam.append(alpha[j] - binom(n - 1 - j, d - 2))
        while lam and lam[-1] == 0:
            lam.pop()
        return tuple(lam)

    for n in range(2, 40):
        for d in range(1, n):
            for i in range(1, n - d + 1):
                assert lambda_max(n, d, i) == ref_lambda_max(n, d, i), (n, d, i)
                assert extremal_lambda_profile(n, d, i) == ref_profile(n, d, i), (n, d, i)
    assert lambda_max(10**12, 3, 1) == comb(10**12 - 1, 2)
    for bad_d in (0, -1):
        with pytest.raises(ValueError):
            lambda_max(5, bad_d, 1)
        with pytest.raises(ValueError):
            extremal_lambda_profile(5, bad_d, 1)


def test_profile_and_complete_match_binom_formulas():
    for d in range(1, 13):
        for n in range(d + 1, d + 30):
            for i in range(1, n - d + 1):
                ref = tuple(binom(n - 1 - j, d - 2) for j in range(1, i)) + (binom(n - i, d - 1),)
                assert extremal_lambda_profile(n, d, i) == ref, (n, d, i)
            if d >= 2:
                ref = tuple(binom(n - 1 - i, d - 2) for i in range(1, n - d + 2))
                assert complete_lambda(n, d) == ref, (n, d)


@given(st.integers(4, 9), st.integers(1, 3), st.integers(0, 8), st.integers(0, 2**32))
def test_lambda_lsequence_round_trip_on_chordal_clutters(n, d, steps, seed):
    c = random_chordal_clutter(n, d, steps=steps, rng=random.Random(seed))
    if c.num_circuits == comb(n, d):
        return  # the complete clutter has no l-sequence
    lam = lambda_of(c)
    assert lambda_from_lsequence(n, d, lsequence_from_lambda(n, d, lam)) == lam


def test_extremal_clutter():
    assert extremal_clutter(4, 3, 1).circuits == ((1, 2, 4), (1, 3, 4), (2, 3, 4))
    E = extremal_clutter(5, 3, 1)
    assert E.num_circuits == 6
    assert all(5 in c for c in E.circuits)
    assert is_squarefree_strongly_stable(circuit_ideal(E))


def test_extremal_clutter_attains_bound():
    for n in range(4, 8):
        for i in range(1, n - 3 + 1):
            E = extremal_clutter(n, 3, i)
            lam = lambda_of(E)
            assert lam is not None
            assert lam[i - 1] == lambda_max(n, 3, i)


def test_complete_lambda():
    assert complete_lambda(4, 3) == (2, 1)
    assert complete_lambda(5, 3) == (3, 2, 1)
    for n in range(3, 8):
        lam = complete_lambda(n, 3)
        assert lambda_of(complete_clutter(n, 3)) == lam
        assert sum(lam) == comb(n - 1, 3 - 1)


def test_strongly_stable_detection():
    assert is_squarefree_strongly_stable(make_ideal(4, [(1, 2, 3)]))
    assert not is_squarefree_strongly_stable(make_ideal(4, [(2, 3, 4)]))
    # empty ideal is vacuously stable
    assert is_squarefree_strongly_stable(make_ideal(4, []))


def test_strongly_stable_closure():
    I = strongly_stable_closure(4, [(2, 3, 4)])
    assert is_squarefree_strongly_stable(I)
    assert I.gens == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    assert strongly_stable_closure(5, [(1, 2)]).gens == ((1, 2),)


def test_m_vector():
    assert m_vector(make_ideal(4, [(1, 2)])) == (1, 0, 0)
    assert m_vector(make_ideal(5, [(1, 2, 5), (1, 3, 5), (2, 3, 5),
                                   (2, 4, 5), (3, 4, 5)])) == (0, 0, 5)
    assert m_vector(make_ideal(5, [(1, 2, 3)])) == (1, 0, 0)
    with pytest.raises(ValueError):
        m_vector(make_ideal(5, [(1, 2), (1, 3, 4)]))   # not equigenerated


def test_mu_example():
    I = make_ideal(4, [(1, 2)])
    assert [mu_direct(I, j) for j in range(3)] == [1, 2, 1]
    assert [mu_via_lemma(I, j) for j in range(3)] == [1, 2, 1]


def test_mu_j_zero_counts_generators():
    rng = random.Random(13)
    for _ in range(10):
        I = random_strongly_stable_ideal(6, 3, seeds=rng.randint(1, 3), rng=rng)
        assert mu_via_lemma(I, 0) == I.num_gens == mu_direct(I, 0)


def test_mu_lemma_random_property():
    rng = random.Random(29)
    for _ in range(12):
        n = rng.randint(4, 7)
        d = rng.choice([2, 3])
        I = random_strongly_stable_ideal(n, d, seeds=rng.randint(1, 3), rng=rng)
        for j in range(n - d + 1):
            assert mu_via_lemma(I, j) == mu_direct(I, j)


def test_mu_via_lemma_refuses_unstable_input():
    with pytest.raises(ValueError):
        mu_via_lemma(make_ideal(4, [(2, 3, 4)]), 1)


def test_witness_construction():
    W = ideal_with_m_vector(5, 3, (1, 3, 0))
    assert m_vector(W) == (1, 3, 0)
    assert is_squarefree_strongly_stable(W)
    # its complement is the extremal clutter for (5,3,1)
    comp_gens = set(W.gens)
    E = extremal_clutter(5, 3, 1)
    from itertools import combinations
    rest = [c for c in combinations(range(1, 6), 3) if c not in comp_gens]
    assert tuple(rest) == E.circuits

    W2 = ideal_with_m_vector(6, 3, (1, 3, 4, 2))
    assert m_vector(W2) == (1, 3, 4, 2)
    assert is_squarefree_strongly_stable(W2)


def test_witness_has_the_requested_m_vector():
    # every count vector within the level capacities C(d+i-1, d-1)
    built = 0
    for n, d in ((4, 2), (5, 2), (5, 3), (6, 3), (6, 4)):
        ranges = [range(comb(d + i - 1, d - 1) + 1) for i in range(n - d + 1)]
        for counts in product(*ranges):
            if not any(counts):
                with pytest.raises(ValueError, match="all-zero"):
                    ideal_with_m_vector(n, d, counts)
                continue
            feasible = is_M_sequence(counts) and counts[1] <= d
            try:
                W = ideal_with_m_vector(n, d, counts)
            except ValueError:
                assert not feasible, (n, d, counts)
                continue
            assert feasible, (n, d, counts)
            assert len(W.gen_masks) == sum(counts), (n, d, counts)
            assert m_vector(W) == counts, (n, d, counts)
            built += 1
    assert built > 100


def test_witness_construction_rejects_infeasible():
    with pytest.raises(ValueError):
        ideal_with_m_vector(5, 3, (1, 2, 4))    # not an M-sequence shape
    with pytest.raises(ValueError):
        ideal_with_m_vector(5, 3, (2, 0, 0))    # level capacity exceeded
    with pytest.raises(ValueError):
        ideal_with_m_vector(5, 3, (1, 0))       # wrong length


def test_stable_circuit_ideal_l_sequence_reproduces_lambda():
    # chordal clutter with strongly stable circuit ideal: the m-vector,
    # read as an l-sequence, reproduces the search lambda
    for n, d, i in [(5, 3, 1), (5, 3, 2), (6, 3, 1), (6, 3, 2), (6, 3, 3)]:
        C = extremal_clutter(n, d, i)
        I = circuit_ideal(C)
        assert is_squarefree_strongly_stable(I)
        l = m_vector(I)
        assert is_M_sequence(l) and l[1] <= d
        assert lambda_from_lsequence(n, d, l) == lambda_of(C)
        assert is_chordal(C)
