import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icc_kit.poly import (
    MultiPoly,
    evaluate,
    evaluate_batch,
    monomials,
    random_poly,
    reduce_exponent,
    total_degree,
)


def P(num_vars, q, terms):
    return MultiPoly.from_terms(num_vars, q, terms)


def test_total_degree_reads_exponent_sums():
    f = P(3, 2, {(1, 1, 0): 1, (0, 0, 1): 1})  # x1*x2 + x3
    assert total_degree(f) == 2


def test_total_degree_of_constant_is_zero():
    f = P(1, 11, {(0,): 7})
    assert total_degree(f) == 0
    assert not f.is_zero


def test_total_degree_mixed_exponents():
    f = P(2, 5, {(2, 1): 1, (1, 0): 1})  # x1^2*x2 + x1
    assert total_degree(f) == 3


def test_zero_polynomial():
    z = P(2, 3, {})
    assert z.is_zero
    assert total_degree(z) == 0
    for x in itertools.product(range(3), repeat=2):
        assert evaluate(z, x) == 0


def test_evaluate_hand_cases():
    f = P(2, 2, {(1, 0): 1, (0, 1): 1})
    assert evaluate(f, (1, 1)) == 0

    g = P(3, 2, {(1, 1, 1): 1})
    assert evaluate(g, (1, 1, 1)) == 1

    # x1^2 + 2 x2 at (2,3): 4 + 6 = 10 = 0 mod 5
    h = P(2, 5, {(2, 0): 1, (0, 1): 2})
    assert evaluate(h, (2, 3)) == 0


def test_evaluate_rejects_wrong_arity_or_modulus():
    f = P(2, 5, {(1, 0): 1})
    with pytest.raises(ValueError):
        evaluate(f, (1, 2, 3))
    # the point carries no modulus any more; a float point is rejected
    # rather than truncated
    with pytest.raises(ValueError):
        evaluate(f, (1.5, 2.0))
    with pytest.raises(ValueError):
        evaluate_batch(f, [(1.5, 2.0)])


def test_addition_is_pointwise_exhaustive():
    rng = np.random.default_rng(99)
    for q, n in [(2, 4), (3, 3), (5, 2)]:
        for _ in range(6):
            f = random_poly(n, 2, q, int(rng.integers(2**31)))
            g = random_poly(n, 2, q, int(rng.integers(2**31)))
            s = f + g
            for x in itertools.product(range(q), repeat=n):
                assert evaluate(s, x) == (evaluate(f, x) + evaluate(g, x)) % q


def test_exponent_reduction_preserves_evaluation():
    # x^q = x on F_q, so raw exponents e >= q reduce without changing values
    for q in (2, 3, 5):
        for e in range(1, 3 * q):
            assert reduce_exponent(e, q) == (e - 1) % (q - 1) + 1
    rng = np.random.default_rng(7)
    for q, n in [(2, 3), (3, 2), (5, 2)]:
        for _ in range(10):
            exps = tuple(int(rng.integers(0, 3 * q)) for _ in range(n))
            coef = int(rng.integers(1, q))
            f = MultiPoly.from_terms(n, q, {exps: coef})
            for x in itertools.product(range(q), repeat=n):
                direct = coef
                for xi, e in zip(x, exps):
                    direct = direct * pow(xi, e, q) % q
                assert evaluate(f, x) == direct


def test_from_terms_merges_aliased_exponents():
    # x^3 and x both reduce to x over F_3, so the coefficients combine
    f = MultiPoly.from_terms(1, 3, {(3,): 1, (1,): 1})
    assert f.terms == {(1,): 2}


def test_random_poly_degree_zero_is_constant():
    f = random_poly(4, 0, 7, 123)
    assert total_degree(f) == 0
    assert len(f.terms) <= 1


def test_random_poly_deterministic_under_seed():
    a = random_poly(3, 2, 5, 42)
    b = random_poly(3, 2, 5, 42)
    assert a == b
    c = random_poly(3, 2, 5, 43)
    assert a != c  # one collision would be astronomically unlucky


def test_random_poly_support_and_degree_bound():
    admissible = set(monomials(3, 2, 2))
    assert admissible == {
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, 0, 1), (0, 1, 1),
    }
    for seed in range(20):
        f = random_poly(3, 2, 2, seed)
        assert set(f.terms) <= admissible
        assert total_degree(f) <= 2


def test_monomial_count_matches_binomial_oracle():
    import math

    # over F_2 exponents are 0/1, so counting monomials is choosing variables
    for m in range(1, 7):
        for d in range(0, m + 1):
            expected = sum(math.comb(m, i) for i in range(d + 1))
            assert len(monomials(m, d, 2)) == expected


def test_evaluate_batch_agrees_with_single_point():
    rng = np.random.default_rng(17)
    for q, n in [(2, 3), (3, 2), (5, 3)]:
        f = random_poly(n, 2, q, int(rng.integers(2**31)))
        pts = np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64)
        vals = evaluate_batch(f, pts)
        for row, val in zip(pts, vals):
            assert evaluate(f, row) == int(val)


LARGE_PRIMES = [2147483647, 4294967311, 2**61 - 1]


@st.composite
def poly_and_points(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 251, 65537] + LARGE_PRIMES))
    n = draw(st.integers(1, 5))
    exp = st.tuples(*[st.integers(0, q - 1)] * n)
    terms = draw(st.lists(st.tuples(exp, st.integers(1, q - 1)), max_size=20))
    points = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), min_size=1, max_size=8))
    return MultiPoly.from_terms(n, q, terms), points


@settings(max_examples=200, deadline=None)
@given(case=poly_and_points())
def test_evaluate_batch_matches_evaluate_at_every_prime(case):
    f, points = case
    vals = evaluate_batch(f, np.array(points, dtype=np.int64))
    assert [int(v) for v in vals] == [evaluate(f, x) for x in points]


@pytest.mark.parametrize("q", LARGE_PRIMES)
def test_evaluate_batch_is_exact_where_int64_sums_overflow(q):
    # every coefficient-times-value product is near (q-1)^2, so an int64 sum
    # over the 16 terms wraps already at q = 2^31 - 1; above 2^32 the
    # product x1*x2 alone wraps
    terms = {tuple(int(i == v) for i in range(15)): q - 1 for v in range(15)}
    terms[(1, 1) + (0,) * 13] = q - 1
    f = MultiPoly.from_terms(15, q, terms)
    x = (q - 1,) * 15
    assert int(evaluate_batch(f, np.array([x]))[0]) == evaluate(f, x) == 14


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 5), d=st.integers(0, 6), q=st.sampled_from([2, 3, 5, 7]))
def test_monomials_match_product_filter_oracle(n, d, q):
    oracle = tuple(e for e in itertools.product(range(q), repeat=n) if sum(e) <= d)
    assert monomials(n, d, q) == oracle


def test_json_round_trip():
    f = P(2, 5, {(2, 1): 3, (0, 0): 4})
    blob = f.to_json()
    assert blob["n"] == 2 and blob["q"] == 5
    assert MultiPoly.from_json(blob) == f


def test_degree_bound_respected_at_construction():
    with pytest.raises(ValueError):
        MultiPoly(2, 5, {(2, 2): 1}, degree_bound=3)
