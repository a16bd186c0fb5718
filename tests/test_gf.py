"""Prime-field arithmetic on field arrays: the boundary validator, exhaustive
axiom checks at small q through the package's own arithmetic (encode,
shift, elimination, the monomial kernel), and an independent
span-enumeration oracle for rank."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icc_kit.codes import LinearCode, encode, shift, subcolumns_full_rank
from icc_kit.gf import (
    field_array,
    is_prime,
    pivot_columns,
    rank,
    row_reduce,
)
from icc_kit.infometrics import smoothing_report, uniform
from icc_kit.poly import monomial_values
from oracles import gauss_jordan

PRIMES = [2, 3, 5, 7, 11, 13]


def test_is_prime_small_values():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_matches_trial_division():
    def trial(q):
        return q > 1 and all(q % f for f in range(2, math.isqrt(q) + 1))

    assert all(is_prime(q) == trial(q) for q in range(20000))
    rng = random.Random(2)
    for q in (rng.randrange(2**31, 2**32) for _ in range(200)):
        assert is_prime(q) == trial(q)


def test_is_prime_large_and_pseudoprime_cases():
    for q in (2147483647, 4294967311, 2**61 - 1, 2**64 - 59):
        assert is_prime(q)
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, and a
    # Carmichael number
    for c in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(c)
    with pytest.raises(ValueError, match="exactly only below"):
        is_prime(2**89 - 1)


def test_non_prime_modulus_rejected():
    for q in (4, 6, 1, 0, -7, 2.0, True):
        with pytest.raises(ValueError, match="prime"):
            field_array((0, 1), q)
    with pytest.raises(ValueError, match="prime"):
        LinearCode(((1, 0),), 4)


def test_field_array_rejects_floats_wrong_shape_and_empty():
    with pytest.raises(ValueError, match="integers"):
        field_array((1.0, 2.0), 5)  # not truncated to (1, 2)
    with pytest.raises(ValueError, match="integers"):
        field_array((1, 2.5), 5)
    with pytest.raises(ValueError, match="integers"):
        field_array((True, False), 2)
    with pytest.raises(ValueError, match="integers"):
        field_array(np.array([1, "a"], dtype=object), 5)
    with pytest.raises(ValueError, match="shape"):
        field_array((1, 2, 3), 5, (2,))
    with pytest.raises(ValueError, match="shape"):
        field_array(((1, 2), (3, 4)), 5, (2,))
    with pytest.raises(ValueError, match="shape"):
        field_array((1, 2), 5, (None, 2))
    for empty in ((), ((),), np.zeros((2, 0), dtype=np.int64)):
        with pytest.raises(ValueError, match="empty"):
            field_array(empty, 5)
    # the same checks guard the public entry points
    code = LinearCode(((1, 1, 0), (0, 1, 1)), 2)
    with pytest.raises(ValueError, match="integers"):
        encode((1.0, 0.0, 1.0), (1, 0), code)
    with pytest.raises(ValueError, match="shape"):
        shift((1, 0, 1), ((1, 0, 1),), code)
    with pytest.raises(ValueError, match="empty"):
        rank(np.zeros((2, 0), dtype=np.int64), 2)


@pytest.mark.parametrize("q", PRIMES)
def test_multiplicative_inverse_via_elements(q):
    # elimination scales each pivot row by the pivot's inverse: [a | 1]
    # becomes [1 | a^-1], and [a | a] becomes [1 | 1]
    for a in range(1, q):
        red, pivots = row_reduce([[a + q, 1 - q]], q)  # unreduced representatives
        assert pivots == [0] and red[0, 0] == 1
        assert a * int(red[0, 1]) % q == 1
        assert row_reduce([[a, a]], q)[0].tolist() == [[1, 1]]


def scalar_code(g, q):
    """1 x 1 generator (g): encode(x, k) = x + k g."""
    return LinearCode(((g,),), q)


@pytest.mark.parametrize("q", PRIMES)
def test_addition_associative_exhaustive(q):
    plus = scalar_code(1, q)
    for a, b, c in itertools.product(range(q), repeat=3):
        left = encode(encode((a,), (b,), plus), (c,), plus)
        right = encode((a,), encode((b,), (c,), plus), plus)
        assert left.tolist() == right.tolist() == [(a + b + c) % q]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_ring_axioms_exhaustive(q):
    def mul(a, b):
        return int(encode((0,), (a,), scalar_code(b, q))[0])

    def add(a, b):
        return int(encode((a,), (b,), scalar_code(1, q))[0])

    for a, b, c in itertools.product(range(q), repeat=3):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a) == a * b % q


def test_element_negation_and_subtraction():
    for q in (2, 5):
        plus = scalar_code(1, q)
        for a, b in itertools.product(range(q), repeat=2):
            diff = shift((a,), (b,), plus)
            assert diff.tolist() == encode((a,), (-b,), plus).tolist() == [(a - b) % q]


def test_element_pow_matches_repeated_product():
    # the monomial kernel's square-and-multiply against repeated products
    q = 7
    # one slot per term: variable 0 raised to e = 1..8
    slots = (np.zeros((8, 1), dtype=np.int64), np.arange(1, 9).reshape(8, 1))
    powers = monomial_values(slots, [(a,) for a in range(q)], q)
    for a in range(q):
        acc = 1
        for e in range(1, 9):
            acc = acc * a % q
            assert powers[e - 1, a] == acc


def test_modulus_mismatch_is_an_error():
    with pytest.raises(ValueError, match="modulus mismatch"):
        smoothing_report(uniform(3, 2), LinearCode(((1, 0),), 2), 2, 0.5)


IDENTITY = {q: LinearCode(np.eye(n, dtype=np.int64), q) for q, n in ((2, 3), (5, 2))}


def test_vec_add_examples():
    # with an identity generator, encode adds the key to the data
    # characteristic 2: every vector is its own inverse
    assert encode((1, 0, 1), (1, 1, 1), IDENTITY[2]).tolist() == [0, 1, 0]
    assert encode((4, 3), (2, 4), IDENTITY[5]).tolist() == [1, 2]
    assert encode((2, 1), (0, 0), IDENTITY[5]).tolist() == [2, 1]


def test_vec_sub_cancels_vec_add():
    a, b = (1, 2), (3, 4)
    assert shift(encode(a, b, IDENTITY[5]), b, IDENTITY[5]).tolist() == list(a)


def test_vec_length_mismatch_is_an_error():
    with pytest.raises(ValueError, match="shape"):
        encode((1, 0), (1, 0, 1), IDENTITY[2])
    with pytest.raises(ValueError, match="shape"):
        encode((1, 0, 1), (1, 0), IDENTITY[2])


def test_vector_indexing_and_reduction():
    v = field_array((7, -1, 3), 5)
    assert v.tolist() == [2, 4, 3]
    assert v[1] == 4
    assert len(v) == 3
    # unsigned and beyond-int64 inputs are reduced exactly, not wrapped
    assert field_array(np.array([2**64 - 1], dtype=np.uint64), 7).tolist() == [(2**64 - 1) % 7]
    assert field_array([2**70 + 3, -(2**70)], 5).tolist() == [(2**70 + 3) % 5, -(2**70) % 5]


G_EXAMPLE = LinearCode(((1, 1, 0), (0, 1, 1)), 2)
ZERO3 = (0, 0, 0)


def test_mat_vec_left_selects_first_row():
    # key.G, the codeword encode adds
    assert encode(ZERO3, (1, 0), G_EXAMPLE).tolist() == [1, 1, 0]


def test_mat_vec_left_sums_rows():
    # (1,1)G = row0 + row1 mod 2
    assert encode(ZERO3, (1, 1), G_EXAMPLE).tolist() == [1, 0, 1]


def test_mat_vec_left_zero_annihilates():
    assert encode(ZERO3, (0, 0), G_EXAMPLE).tolist() == [0, 0, 0]


def test_mat_vec_left_dimension_mismatch():
    with pytest.raises(ValueError):
        encode(ZERO3, (1, 0, 1), G_EXAMPLE)


def test_matrix_accessors():
    code = LinearCode(((1, 0, 3), (2, 4, 3)), 5)
    assert (code.m, code.n, code.q) == (2, 3, 5)
    assert code.generator[1, 1] == 4
    assert code.generator[1].tolist() == [2, 4, 3]
    assert code.generator[:, 0].tolist() == [1, 2]
    assert code.to_json() == {"n": 3, "m": 2, "q": 5, "G": [[1, 0, 3], [2, 4, 3]]}
    with pytest.raises(ValueError):
        code.generator[0, 0] = 2  # a code's generator is read-only


def test_identity_matrix_rank():
    ident = np.eye(3, dtype=np.int64)
    assert rank(ident, 2) == 3
    assert pivot_columns(ident, 2) == (0, 1, 2)


def test_zero_matrix_rank():
    assert rank(((0, 0), (0, 0)), 3) == 0


def test_repeated_row_rank():
    assert rank(((1, 1), (1, 1)), 2) == 1


def test_elimination_is_exact_above_int64_products():
    # the first prime above 2^32: products of two residues overflow int64
    q = 4294967311
    assert is_prime(q)
    rng = random.Random(4294967311)
    for _ in range(20):
        row = [rng.randrange(1, q) for _ in range(3)]
        k = rng.randrange(2, q)
        other = [rng.randrange(q) for _ in range(3)]
        mat = (tuple(row), tuple(k * v for v in row), tuple(other))
        # pivot columns by 2x2 minors against the first row, in exact ints
        minor = [(row[0] * other[j] - row[j] * other[0]) % q for j in (1, 2)]
        assert any(minor)  # the third row is independent of the first
        assert rank(mat, q) == 2
        assert pivot_columns(mat, q) == ((0, 1) if minor[0] else (0, 2))


def span_size(rows, q):
    """Brute-force row-span cardinality: try every coefficient vector."""
    seen = set()
    for coefs in itertools.product(range(q), repeat=len(rows)):
        combo = tuple(
            sum(c * row[j] for c, row in zip(coefs, rows)) % q
            for j in range(len(rows[0]))
        )
        seen.add(combo)
    return len(seen)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_reduce_matches_textbook_gauss_jordan(data):
    # row_reduce scales only pivots other than 1 and clears only the columns
    # from the pivot rightwards; the RREF must not change, entry for entry,
    # on square, wide and tall (m > n) systems
    q = data.draw(st.sampled_from([2, 3, 5, 2**31 - 1, 2**61 - 1]))
    m, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, q - 1))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in data.draw(st.lists(st.integers(0, m - 1), max_size=2)):  # zero rows
        rows[i] = [0] * n
    for j in data.draw(st.lists(st.integers(0, n - 1), max_size=2)):  # zero columns
        for row in rows:
            row[j] = 0
    if m > 1 and data.draw(st.booleans()):  # a repeated row
        rows[data.draw(st.integers(1, m - 1))] = list(rows[0])
    red, pivots = row_reduce(rows, q)
    want, want_pivots = gauss_jordan(rows, q)
    assert pivots == want_pivots
    assert [[int(v) for v in row] for row in red] == want


def test_rank_matches_span_enumeration_oracle():
    rng = np.random.default_rng(314)
    for _ in range(120):
        q = int(rng.choice([2, 3]))
        nrows = int(rng.integers(1, 5))
        ncols = int(rng.integers(1, 6))
        entries = tuple(
            tuple(int(v) for v in rng.integers(0, q, ncols)) for _ in range(nrows)
        )
        expected = round(math.log(span_size(entries, q), q))
        assert rank(entries, q) == expected


def test_submatrix_columns():
    # column subsets are taken in the given order and range-checked; a
    # negative index must not wrap around to the last column
    code = LinearCode(((1, 2, 3), (4, 0, 1)), 5)
    assert rank(code.generator[:, [0, 2]], 5) == 2
    assert subcolumns_full_rank(code, (2, 0))
    for bad in ((0, 3), (-1,)):
        with pytest.raises(ValueError, match="out of range"):
            subcolumns_full_rank(code, bad)


def test_integer_array_rejects_bools_beside_ints():
    # numpy reads [True, 2] as the ints [1, 2]; the entries as given decide
    for values in ((True, 2), [[0, 1], [np.True_, 3]], (2, 2 ** 70, False)):
        with pytest.raises(ValueError, match="integers"):
            field_array(values, 5)
    assert field_array((3, 2 ** 70), 5).tolist() == [3, 2 ** 70 % 5]
