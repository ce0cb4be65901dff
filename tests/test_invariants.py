"""Multiset-driven invariants against direct enumeration."""

from __future__ import annotations

import random
from collections import Counter
from math import comb

import pytest

from clutterlab import (
    OracleBoundError,
    betti_from_h,
    betti_from_multiset,
    complete_clutter,
    delta_from_multiset,
    f_from_h,
    f_vector_direct,
    f_vector_from_multiset,
    find_simplicial_order,
    h_from_f,
    h_vector_from_multiset,
    make_clutter,
    multiplicity,
    projective_dimension,
    random_chordal_clutter,
    random_tree,
    simplicial_multiset,
)
from clutterlab.polynomials import IntPolynomial

EX = make_clutter(5, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 4, 5)])
EX_MS = Counter({2: 1, 1: 3})


def test_delta():
    assert delta_from_multiset(3, EX_MS) == 4
    assert delta_from_multiset(3, Counter()) == 2
    assert delta_from_multiset(2, Counter({4: 2})) == 5


def test_empty_clutters_match_their_complex():
    # With d > n + 1 the complex of the empty clutter is the whole simplex
    # on [n], so delta is n, not d - 1, and h is (1, 0, ..., 0).
    for n in range(1, 7):
        for d in range(1, n + 4):
            f = f_vector_direct(make_clutter(n, d, []))
            assert f_vector_from_multiset(n, d, ()) == f, (n, d)
            assert h_vector_from_multiset(n, d, ()) == h_from_f(f), (n, d)


def test_f_polynomial_worked_example():
    assert f_vector_from_multiset(5, 3, EX_MS) == (1, 5, 10, 5, 1)


def test_f_polynomial_matches_closed_form():
    # f(t) = sum_{i<d} C(n,i) t^i + t^(d-1) * sum_k ((1+t)^size_k - 1),
    # whose coefficients, trailing zeros dropped, are the f-vector.  For
    # d > n the multiset is empty, and at d = n + 2 the zero C(n, n+1) is
    # dropped, so f stops at f_{n-1}
    def one_plus_t(m):
        return IntPolynomial([comb(m, k) for k in range(m + 1)])

    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(1, 14)
        d = rng.randint(1, n + 2)
        sizes = range(1, n - d + 2)
        ms = Counter({rng.choice(sizes): rng.randint(0, 4)
                      for _ in range(rng.randint(0, 5) if sizes else 0)})
        closed = IntPolynomial([comb(n, i) for i in range(d)])
        for size, mult in ms.items():
            bump = (one_plus_t(size) - IntPolynomial([1])).scale(mult)
            closed = closed + bump.shift(d - 1)
        assert f_vector_from_multiset(n, d, ms) == closed.coeffs, (n, d, ms)
    for n, d in ((1, 3), (2, 4), (3, 5)):
        assert f_vector_from_multiset(n, d, Counter()) == tuple(
            comb(n, i) for i in range(n + 1))


def test_f_vector_direct_worked_example():
    # the unique 4-clique is {1,2,3,4}
    assert f_vector_direct(EX) == (1, 5, 10, 5, 1)


def test_f_direct_counts_low_faces():
    C = make_clutter(6, 3, [(1, 2, 3)])
    fv = f_vector_direct(C)
    assert fv[0] == 1 and fv[1] == 6 and fv[2] == comb(6, 2)
    assert fv[3] == 1 and len(fv) == 4


def test_h_from_f_worked_example():
    assert h_from_f((1, 5, 10, 5, 1)) == (1, 1, 1, -4, 2)
    assert h_vector_from_multiset(5, 3, EX_MS) == (1, 1, 1, -4, 2)


def test_f_h_round_trip():
    rng = random.Random(17)
    for _ in range(12):
        C = random_chordal_clutter(rng.randint(4, 8), 3,
                                   steps=rng.randint(1, 6), rng=rng)
        ms = simplicial_multiset(find_simplicial_order(C))
        f = f_vector_from_multiset(C.n, 3, ms)
        h = h_from_f(f)
        assert f_from_h(h, len(f) - 1) == f


def test_betti_worked_examples():
    assert betti_from_h(4, 2, (1, 2, 0), 2) == (3, 2)
    assert betti_from_h(5, 3, (1, 1, 1, -4, 2), 4) == (5, 6, 2)
    assert betti_from_multiset(5, 3, EX_MS) == (5, 6, 2)


def test_betti_leading_value():
    # beta_0 counts the complement circuits
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(4, 8)
        C = random_chordal_clutter(n, 3, steps=rng.randint(1, 6), rng=rng)
        ms = simplicial_multiset(find_simplicial_order(C))
        if C.num_circuits == comb(n, 3):
            continue
        b = betti_from_multiset(n, 3, ms)
        assert b[0] == comb(n, 3) - C.num_circuits


def test_betti_spanning_tree_formula():
    rng = random.Random(9)
    for _ in range(8):
        n = rng.randint(4, 9)
        T = random_tree(n, rng)
        ms = simplicial_multiset(find_simplicial_order(T))
        assert h_vector_from_multiset(n, 2, ms) == (1, n - 2, 0)
        expect = tuple((i + 1) * comb(n - 1, i + 2) for i in range(n - 2))
        assert betti_from_multiset(n, 2, ms) == expect


def test_betti_complete_clutter_is_an_error():
    lam_ms = simplicial_multiset(find_simplicial_order(complete_clutter(4, 3)))
    with pytest.raises(ValueError, match="complete"):
        betti_from_multiset(4, 3, lam_ms)


def test_betti_rejects_overfull_multiset():
    with pytest.raises(ValueError):
        betti_from_multiset(4, 3, Counter({2: 3}))   # 6 > C(4,3) circuits


def test_multiplicity_and_projdim():
    assert multiplicity(EX) == 5
    assert multiplicity(make_clutter(4, 3, [])) == 0
    assert projective_dimension((5, 6, 2)) == 2
    with pytest.raises(ValueError):
        projective_dimension(())


def test_formula_vs_direct_random_sweep():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(4, 8)
        C = random_chordal_clutter(n, 3, steps=rng.randint(1, 7), rng=rng)
        ms = simplicial_multiset(find_simplicial_order(C))
        assert f_vector_from_multiset(n, 3, ms) == f_vector_direct(C)


def test_multiset_validation():
    with pytest.raises(ValueError):
        f_vector_from_multiset(5, 3, Counter({0: 1}))
    with pytest.raises(ValueError):
        f_vector_from_multiset(5, 3, Counter({4: 1}))   # size > n-d+1
    with pytest.raises(ValueError):
        h_vector_from_multiset(5, 3, Counter({-1: 2}))


def test_oracle_guard(monkeypatch):
    big = make_clutter(22, 2, [(i, i + 1) for i in range(1, 22)])
    with pytest.raises(OracleBoundError):
        f_vector_direct(big)
    # explicit override wins
    assert f_vector_direct(big, max_n=22) == (1, 22, 21)
    # environment override too
    monkeypatch.setenv("CLUTTERLAB_MAX_N", "25")
    assert f_vector_direct(big) == (1, 22, 21)
