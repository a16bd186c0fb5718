import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icc_kit import poly
from icc_kit.poly import (
    MultiPoly,
    evaluate,
    evaluate_batch,
    monomial_values,
    monomials,
    random_poly,
    reduce_exponent,
)


def P(num_vars, q, terms):
    return MultiPoly.from_terms(num_vars, q, terms)


def test_total_degree_reads_exponent_sums():
    f = P(3, 2, {(1, 1, 0): 1, (0, 0, 1): 1})  # x1*x2 + x3
    assert f.degree == 2


def test_total_degree_of_constant_is_zero():
    f = P(1, 11, {(0,): 7})
    assert f.degree == 0
    assert not f.is_zero
    # no slot columns: the kernel's product is 1 at every point
    points = [(0,), (5,), (10,)]
    assert monomial_values(f.slots, points, 11).tolist() == [[1, 1, 1]]
    assert evaluate_batch(f, np.array(points)).tolist() == [7, 7, 7]


def test_total_degree_mixed_exponents():
    f = P(2, 5, {(2, 1): 1, (1, 0): 1})  # x1^2*x2 + x1
    assert f.degree == 3


def test_zero_polynomial():
    z = P(2, 3, {})
    assert z.is_zero
    assert z.degree == 0
    for x in itertools.product(range(3), repeat=2):
        assert evaluate(z, x) == 0
    points = np.array(list(itertools.product(range(3), repeat=2)))
    assert monomial_values(z.slots, points, 3).shape == (0, 9)
    assert evaluate_batch(z, points).tolist() == [0] * 9


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
            s = MultiPoly.from_terms(n, q, list(f.terms.items()) + list(g.terms.items()))
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
    assert f.degree == 0
    assert len(f.terms) <= 1


def test_random_poly_deterministic_under_seed():
    a = random_poly(3, 2, 5, 42)
    b = random_poly(3, 2, 5, 42)
    assert a == b
    c = random_poly(3, 2, 5, 43)
    assert a != c  # one collision would be astronomically unlucky


def test_random_poly_support_and_degree_bound():
    admissible = set(map(tuple, monomials(3, 2, 2).tolist()))
    assert admissible == {
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, 0, 1), (0, 1, 1),
    }
    for seed in range(20):
        f = random_poly(3, 2, 2, seed)
        assert set(f.terms) <= admissible
        assert f.degree <= 2


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


# The lazy-reduction boundaries of the monomial kernel, with the first
# prime past each: three residues multiply within int64 below 2^21 (and
# wrap just above it), two do below sqrt(2^63) (and are Python ints just
# above it), and at 2^61 - 1 every product is an exact Python int.
BOUNDARY_PRIMES = [2097143, 2097169, 3037000493, 3037000507, 2**61 - 1]


def _near_top(low, q):
    """Integers in [low, q), half of the draws within 3 of q - 1, where the
    products come closest to the bounds."""
    return st.one_of(st.integers(low, q - 1), st.integers(max(low, q - 4), q - 1))


@st.composite
def boundary_polys(draw):
    q = draw(st.sampled_from(BOUNDARY_PRIMES))
    n = draw(st.integers(1, 4))
    exp = st.tuples(*[st.one_of(st.integers(0, 3), _near_top(q - 3, q))] * n)
    terms = draw(st.lists(st.tuples(exp, _near_top(1, q)), min_size=1, max_size=40))
    points = draw(st.lists(st.tuples(*[_near_top(0, q)] * n), min_size=1, max_size=6))
    return MultiPoly.from_terms(n, q, terms), points


@settings(max_examples=200, deadline=None)
@given(case=boundary_polys())
def test_lazy_reduction_matches_evaluate_at_the_boundary_primes(case):
    f, points = case
    assert [int(v) for v in evaluate_batch(f, np.array(points))] == [evaluate(f, x) for x in points]
    # each monomial on its own: the reduced kernel output against evaluate
    values = monomial_values(f.slots, points, f.q)
    for t, exp in enumerate(f.terms):
        single = MultiPoly.from_terms(f.num_vars, f.q, {exp: 1})
        assert [int(v) for v in values[t]] == [evaluate(single, x) for x in points]


@pytest.mark.parametrize("q", BOUNDARY_PRIMES)
def test_lazy_reduction_at_the_largest_products(q):
    # every factor and coefficient is q - 1: a three-slot product reaches
    # (q-1)^3, and three two-slot terms sum to 3 (q-1)^3 before reduction
    x = (q - 1,) * 3
    three_slots = MultiPoly.from_terms(3, q, {(1, 1, 1): q - 1, (1, 0, 0): q - 1})
    pairs = MultiPoly.from_terms(3, q, {(1, 1, 0): q - 1, (1, 0, 1): q - 1, (0, 1, 1): q - 1})
    for f in (three_slots, pairs):
        assert int(evaluate_batch(f, np.array([x]))[0]) == evaluate(f, x)
        # (q-1)^k is 1 for an even k and q - 1 for an odd k
        assert monomial_values(f.slots, [x], q).ravel().tolist() == [
            1 if sum(exp) % 2 == 0 else q - 1 for exp in f.terms]


def test_lazy_reduction_contracts_past_int64_at_2_61_minus_1():
    # 40 terms of three slots at x = q - 1: T (q-1)^(k+1) is far past 2^63
    q = 2**61 - 1
    terms = {tuple(int(i in (a, b, c)) for i in range(6)): q - 1 - t
             for t, (a, b, c) in enumerate(itertools.combinations(range(6), 3))}
    terms.update({(e, 1, 0, 0, 0, 0): q - 2 for e in range(2, 22)})
    f = MultiPoly.from_terms(6, q, terms)
    assert len(f.coefs) == 40
    points = [(q - 1,) * 6, (2, 3, q - 2, 5, 7, q - 3)]
    assert [int(v) for v in evaluate_batch(f, np.array(points))] == [evaluate(f, x) for x in points]


def _dense_reference(f, x):
    """f(x) straight from the exponent tuples: every coordinate's power,
    zero exponents included, multiplied term by term."""
    total = 0
    for exp, coef in f.terms.items():
        prod = coef
        for xi, e in zip(x, exp):
            prod = prod * pow(xi, e, f.q) % f.q
        total += prod
    return total % f.q


@st.composite
def polys_for_the_oracle(draw):
    """(f, x): the zero polynomial, a constant (both with no slot columns),
    or terms with up to n slots, at primes up to 2^64 - 59 (object dtype)."""
    q = draw(st.sampled_from([2, 3, 5, 7, 251] + LARGE_PRIMES + [2**64 - 59]))
    n = draw(st.integers(1, 6))
    coef = st.integers(1, q - 1)
    kind = draw(st.sampled_from(["zero", "constant", "general"]))
    if kind == "zero":
        terms = []
    elif kind == "constant":
        terms = [((0,) * n, draw(coef))]
    else:
        exp = st.tuples(*[st.integers(0, q - 1)] * n)
        # one term with every exponent nonzero, so it fills all n slots
        full = st.tuples(*[st.integers(1, q - 1)] * n)
        terms = draw(st.lists(st.tuples(exp, coef), max_size=12)) + [(draw(full), draw(coef))]
    x = draw(st.tuples(*[st.integers(0, q - 1)] * n))
    return MultiPoly.from_terms(n, q, terms), x


@settings(max_examples=300, deadline=None)
@given(case=polys_for_the_oracle())
def test_evaluate_matches_dense_exponent_reference(case):
    f, x = case
    assert evaluate(f, x) == _dense_reference(f, x)


@settings(max_examples=200, deadline=None)
@given(case=polys_for_the_oracle())
def test_pair_index_reproduces_the_slots(case):
    f, _ = case
    pair_var, pair_exp, pair_of = f.pairs
    var, exp = f.slots
    assert pair_of.shape == var.shape
    assert pair_var[pair_of].tolist() == var.tolist()
    assert pair_exp[pair_of].tolist() == exp.tolist()
    pairs = list(zip(pair_var.tolist(), pair_exp.tolist()))
    assert len(set(pairs)) == len(pairs)


def test_evaluate_raises_each_distinct_pair_once(monkeypatch):
    f = random_poly(90, 2, 5, 3)
    x = [(3 * i + 1) % 5 for i in range(90)]
    expected = evaluate(f, x)
    calls = []
    monkeypatch.setattr(poly, "pow", lambda *args: calls.append(args) or pow(*args), raising=False)
    assert evaluate(f, x) == expected
    var, exp = f.slots
    assert len(calls) == len(set(zip(var.ravel().tolist(), exp.ravel().tolist())))


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
    assert monomials(n, d, q).tolist() == [list(e) for e in oracle]


def test_json_round_trip():
    f = P(2, 5, {(2, 1): 3, (0, 0): 4})
    blob = f.to_json()
    assert blob["n"] == 2 and blob["q"] == 5
    assert MultiPoly.from_json(blob) == f


def test_degree_bound_respected_at_construction():
    with pytest.raises(ValueError, match="exceeds declared bound"):
        MultiPoly.from_terms(2, 5, {(2, 2): 1}, degree_bound=3)


RANDOM_POLY_SHA256 = {
    # the sim-wide size (n, d, q) and the sim-cold size, three seeds each
    ((90, 2, 5), 1): "cba77fb9a53e5f5dcb4abf1565d666ebdaf0a72c03d247b0321811d49ef8633d",
    ((90, 2, 5), 2): "06680fbf29a4e926db71bd5566756e304975a4fc6cd72f7f069424f21b80810a",
    ((90, 2, 5), 3): "b6f901fd382c7ad62f18434d724b4be544063785ebd6bb268011178185d2683c",
    ((32, 2, 2), 1): "d5fab2af4d7daa867709eda277acaa1d7d3bd647daa2249fcef94e1d1ffc4974",
    ((32, 2, 2), 2): "0a92c9c5edbbbe294a911ae00afeade3efb6d739072f8062c92155c74ab7fcec",
    ((32, 2, 2), 3): "590deafcd4bd54cb3d2bb985d648f60a16b994dd5f39ee785e7680aaa944aef9",
}


def _json_sha256(f):
    return hashlib.sha256(json.dumps(f.to_json()).encode()).hexdigest()


def test_random_poly_output_is_pinned():
    for (size, seed), digest in RANDOM_POLY_SHA256.items():
        assert _json_sha256(random_poly(*size, seed)) == digest, (size, seed)
    # colliding, unreduced (x^q = x), cancelling and zero-coefficient terms
    raw = [((0, 5, 1), 2), ((0, 1, 1), 3), ((6, 0, 0), 4), ((2, 0, 0), 0), ((0, 0, 9), 7),
           ((1, 0, 0), 1), ((0, 1, 1), 2), ((3, 0, 0), -1), ((0, 0, 0), 12), ((0, 2, 0), 3),
           ((0, 6, 0), 2), ((1, 1, 1), 0)]
    f = MultiPoly.from_terms(3, 5, raw)
    assert f.to_json()["terms"] == [
        {"exp": [0, 0, 0], "coef": 2}, {"exp": [0, 0, 1], "coef": 2},
        {"exp": [0, 1, 1], "coef": 2}, {"exp": [1, 0, 0], "coef": 1},
        {"exp": [2, 0, 0], "coef": 4}, {"exp": [3, 0, 0], "coef": 4},
    ]
    assert _json_sha256(f) == "6f010614c801abe5d605115b5e10b3e24b4966e7db2529b4dcef9bf3acfcab82"


@pytest.mark.parametrize("raw", [
    {(1.7, 0): 2.9},  # was silently {(1, 0): 2}
    {(2.0, 0): 1},
    {(1, 0): 2.5},
    {(True, 0): 1},  # a bool beside an int was read as exponent 1
    {(1, 0): True, (0, 1): 2},
    {(1, 0): np.float64(3.0)},
])
def test_from_terms_rejects_floats_and_bools(raw):
    with pytest.raises(ValueError, match="integers"):
        MultiPoly.from_terms(2, 5, raw)


def test_from_json_rejects_float_exponents_and_coefficients():
    for term in ({"exp": [1.5, 0], "coef": 1}, {"exp": [1, 0], "coef": 1.0},
                 {"exp": [False, 1], "coef": 1}):
        with pytest.raises(ValueError, match="integers"):
            MultiPoly.from_json({"n": 2, "q": 5, "d": 2, "terms": [term]})


def test_from_terms_rejects_wrong_length_and_negative_exponents():
    with pytest.raises(ValueError, match="length 2"):
        MultiPoly.from_terms(2, 5, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="rectangular"):
        MultiPoly.from_terms(2, 5, [((1, 0), 1), ((1,), 1)])
    with pytest.raises(ValueError, match="non-negative"):
        MultiPoly.from_terms(2, 5, {(-1, 0): 1})


def _arr(rows):
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1)


def test_constructor_checks_the_canonical_slot_form():
    # 2 x1^2 + x0 x2 over F_5 in three variables: rows in lexicographic order
    f = MultiPoly(3, 5, (_arr([[1, 0], [0, 2]]), _arr([[2, 0], [1, 1]])), _arr([2, 1]).ravel())
    assert f.terms == {(0, 2, 0): 2, (1, 0, 1): 1}
    assert f.degree == 2 and f.degree_bound == 2
    bad = {
        "lexicographic": [([[0, 2], [1, 0]], [[1, 1], [2, 0]], [1, 2]),  # rows swapped
                          ([[1, 0], [1, 0]], [[2, 0], [2, 0]], [2, 1])],  # repeated term
        "increasing order": [([[2, 0]], [[1, 1]], [1]),  # variables out of order
                             ([[0, 1]], [[0, 2]], [1]),  # padding before a slot
                             ([[1, 1]], [[1, 1]], [1]),  # one variable twice
                             ([[0]], [[5]], [1]),  # exponent not reduced below q
                             ([[3]], [[1]], [1]),  # no variable 3
                             ([[0]], [[-1]], [1])],
        "nonzero residues": [([[0]], [[1]], [0]), ([[0]], [[1]], [5])],
        "arrays": [([[0]], [[1, 0]], [1]), ([[0]], [[1]], [1, 2])],
        "exceeds declared bound": [([[0, 1]], [[1, 1]], [1])],
    }
    for message, cases in bad.items():
        for var, exp, coefs in cases:
            with pytest.raises(ValueError, match=message):
                MultiPoly(3, 5, (_arr(var), _arr(exp)), np.array(coefs), degree_bound=1)
    with pytest.raises(ValueError, match="integers"):
        MultiPoly(3, 5, (_arr([[0]]), np.array([[1.0]])), np.array([1]))


def _slot_rows(rows, num_vars, dtype):
    """(variables, exponents) slot arrays of dense exponent rows, as given."""
    pairs = [[(v, e) for v, e in enumerate(row) if e] for row in rows]
    width = max(map(len, pairs), default=0)
    padded = [p + [(0, 0)] * (width - len(p)) for p in pairs]
    var = np.array([[v for v, _ in p] for p in padded], dtype).reshape(len(rows), width)
    exp = np.array([[e for _, e in p] for p in padded], dtype).reshape(len(rows), width)
    return var, exp


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_constructor_order_check_matches_sorted_oracle(data):
    # random rows with repeats and rows equal up to padding (a term and the
    # same term less its last factor), in drawn or sorted order, signed or
    # unsigned: the constructor accepts exactly the strictly increasing lists
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=8))
    for row in data.draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []:
        nonzero = [v for v, e in enumerate(row) if e]
        if nonzero:
            rows.append(tuple(0 if v == nonzero[-1] else e for v, e in enumerate(row)))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []
    order = data.draw(st.sampled_from(["drawn", "sorted", "distinct"]))
    if order == "sorted":
        rows = sorted(rows)
    elif order == "distinct":
        rows = sorted(set(rows))
    dtype = data.draw(st.sampled_from([np.int64, np.uint8]))
    slots = _slot_rows(rows, n, dtype)
    coefs = np.ones(len(rows), np.int64)
    if rows == sorted(set(rows)):
        f = MultiPoly(n, q, slots, coefs)
        assert list(f.terms) == rows
        assert f.degree == max(map(sum, rows), default=0)
    else:
        with pytest.raises(ValueError, match="lexicographic exponent order"):
            MultiPoly(n, q, slots, coefs)


def test_evaluate_batch_matches_evaluate_with_many_variables_at_2_61_minus_1():
    # 600 variables and exponents spread over [1, q - 1]: the pair index
    # marks variable-exponent keys far beyond the basis shapes
    q, n = 2**61 - 1, 600
    rng = np.random.default_rng(6100)
    terms = {}
    for _ in range(80):
        chosen = rng.choice(n, size=int(rng.integers(0, 5)), replace=False)
        exp = [0] * n
        for v in chosen.tolist():
            exp[v] = int(rng.choice([1, 2, q - 2, q - 1, int(rng.integers(1, q))]))
        terms[tuple(exp)] = int(rng.integers(1, q))
    f = MultiPoly.from_terms(n, q, terms)
    points = [[int(c) for c in rng.integers(0, q, size=n)] for _ in range(4)]
    points.append([q - 1] * n)
    assert [int(v) for v in evaluate_batch(f, np.array(points))] == [evaluate(f, x) for x in points]


def test_constructor_keeps_private_read_only_copies():
    var, exp, coefs = _arr([[1, 0], [0, 2]]), _arr([[2, 0], [1, 1]]), np.array([2, 1])
    f = MultiPoly(3, 5, (var, exp), coefs)
    for arr in (*f.slots, f.coefs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2
    # the caller's arrays stay writable, and writing them leaves f alone
    var[0, 0], exp[0, 0], coefs[0] = 2, 1, 3
    assert f.terms == {(0, 2, 0): 2, (1, 0, 1): 1}


def test_terms_is_a_read_only_view():
    f = random_poly(90, 2, 5, 1)
    assert len(f.terms) == len(f.coefs)
    assert list(f.terms) == [tuple(t["exp"]) for t in f.to_json()["terms"]]
    with pytest.raises(TypeError):
        f.terms[(0,) * 90] = 1


def _reference_model(q, raw):
    """The dict a polynomial stands for: reduced exponent tuple -> nonzero
    coefficient, merged and reduced term by term."""
    model = {}
    for exp, coef in raw:
        red = tuple(0 if e == 0 else (e - 1) % (q - 1) + 1 for e in exp)
        model[red] = (model.get(red, 0) + coef) % q
    return {exp: coef for exp, coef in model.items() if coef}


@st.composite
def raw_term_lists(draw):
    """(n, q, two raw term lists): exponents up to 3q, repeated terms, and
    collisions that cancel, either directly or through x^q = x."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    exp = st.tuples(*[st.integers(0, 3 * q)] * n)

    def one_list():
        base = draw(st.lists(st.tuples(exp, st.integers(-2 * q, 2 * q)), max_size=10))
        cancelled = base if draw(st.booleans()) else draw(st.lists(st.sampled_from(base))) if base else []
        # the same monomial under an aliased exponent, with the negated coefficient
        undo = [(tuple(e + (q - 1) if e else 0 for e in exps), -coef) for exps, coef in cancelled]
        return draw(st.permutations(base + undo))

    return n, q, one_list(), one_list()


@settings(max_examples=300, deadline=None)
@given(case=raw_term_lists())
def test_from_terms_matches_dict_reference_model(case):
    n, q, raw_f, raw_g = case
    f, g = (MultiPoly.from_terms(n, q, raw) for raw in (raw_f, raw_g))
    model_f, model_g = _reference_model(q, raw_f), _reference_model(q, raw_g)
    degree = max((sum(exp) for exp in model_f), default=0)
    assert f.to_json() == {
        "n": n, "q": q, "d": degree,
        "terms": [{"exp": list(exp), "coef": coef} for exp, coef in sorted(model_f.items())],
    }
    assert f.degree == degree and f.is_zero == (not model_f)
    assert dict(f.terms) == model_f
    assert f == MultiPoly.from_terms(n, q, list(reversed(raw_f)))
    assert (f == g) == (model_f == model_g)
    merged = MultiPoly.from_terms(n, q, list(f.terms.items()) + list(g.terms.items()),
                                  max(f.degree, g.degree))
    assert merged == MultiPoly.from_terms(n, q, list(g.terms.items()) + list(f.terms.items()),
                                          max(f.degree, g.degree))
    assert merged == MultiPoly.from_terms(n, q, raw_f + raw_g, max(f.degree, g.degree))
