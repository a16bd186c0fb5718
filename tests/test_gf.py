"""Prime-field arithmetic: exhaustive axiom checks at small q plus an
independent span-enumeration oracle for rank."""

import itertools
import math
import random

import pytest

from icc_kit.gf import (
    FieldElement,
    FieldMatrix,
    FieldVector,
    inverse_mod,
    is_prime,
    mat_vec_left,
    pivot_columns,
    rank,
    submatrix_columns,
    vec_add,
    vec_sub,
)

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
    with pytest.raises(ValueError):
        FieldElement(1, 4)
    with pytest.raises(ValueError):
        FieldVector((0, 1), 6)


@pytest.mark.parametrize("q", PRIMES)
def test_inverse_mod_exhaustive(q):
    for a in range(1, q):
        assert a * inverse_mod(a, q) % q == 1
    with pytest.raises(ZeroDivisionError):
        inverse_mod(0, q)


@pytest.mark.parametrize("q", PRIMES)
def test_multiplicative_inverse_via_elements(q):
    one = FieldElement(1, q)
    for a in range(1, q):
        el = FieldElement(a, q)
        assert el * el.inverse() == one
        assert el / el == one


@pytest.mark.parametrize("q", PRIMES)
def test_addition_associative_exhaustive(q):
    for a, b, c in itertools.product(range(q), repeat=3):
        ea, eb, ec = FieldElement(a, q), FieldElement(b, q), FieldElement(c, q)
        assert (ea + eb) + ec == ea + (eb + ec)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_ring_axioms_exhaustive(q):
    for a, b, c in itertools.product(range(q), repeat=3):
        ea, eb, ec = FieldElement(a, q), FieldElement(b, q), FieldElement(c, q)
        assert (ea * eb) * ec == ea * (eb * ec)
        assert ea * (eb + ec) == ea * eb + ea * ec
        assert ea + eb == eb + ea
        assert ea * eb == eb * ea


def test_element_negation_and_subtraction():
    for q in (2, 5):
        for a, b in itertools.product(range(q), repeat=2):
            ea, eb = FieldElement(a, q), FieldElement(b, q)
            assert ea - eb == ea + (-eb)
            assert int(ea - eb) == (a - b) % q


def test_element_pow_matches_repeated_product():
    q = 7
    for a in range(q):
        el = FieldElement(a, q)
        acc = FieldElement(1, q)
        for e in range(1, 9):
            acc = acc * el
            assert el ** e == acc


def test_modulus_mismatch_is_an_error():
    with pytest.raises(ValueError):
        FieldElement(1, 2) + FieldElement(1, 3)
    with pytest.raises(ValueError):
        vec_add(FieldVector((1, 0), 2), FieldVector((1, 0), 3))


def test_vec_add_examples():
    # characteristic 2: every vector is its own inverse
    assert vec_add(FieldVector((1, 0, 1), 2), FieldVector((1, 1, 1), 2)) == FieldVector((0, 1, 0), 2)
    assert vec_add(FieldVector((4, 3), 5), FieldVector((2, 4), 5)) == FieldVector((1, 2), 5)
    a = FieldVector((2, 1, 4), 5)
    assert vec_add(a, FieldVector((0, 0, 0), 5)) == a


def test_vec_sub_cancels_vec_add():
    a = FieldVector((1, 2, 0, 4), 5)
    b = FieldVector((3, 3, 3, 3), 5)
    assert vec_sub(vec_add(a, b), b) == a


def test_vec_length_mismatch_is_an_error():
    with pytest.raises(ValueError):
        vec_add(FieldVector((1, 0), 2), FieldVector((1, 0, 1), 2))


def test_vector_indexing_and_reduction():
    v = FieldVector((7, -1, 3), 5)
    assert v.values == (2, 4, 3)
    assert v[1] == FieldElement(4, 5)
    assert len(v) == 3


def test_vector_json_round_trip():
    v = FieldVector((1, 0, 2), 3)
    assert v.to_json() == {"q": 3, "elements": [1, 0, 2]}


G_EXAMPLE = FieldMatrix(((1, 1, 0), (0, 1, 1)), 2)


def test_mat_vec_left_selects_first_row():
    assert mat_vec_left(FieldVector((1, 0), 2), G_EXAMPLE) == FieldVector((1, 1, 0), 2)


def test_mat_vec_left_sums_rows():
    # (1,1)G = row0 + row1 mod 2
    assert mat_vec_left(FieldVector((1, 1), 2), G_EXAMPLE) == FieldVector((1, 0, 1), 2)


def test_mat_vec_left_zero_annihilates():
    assert mat_vec_left(FieldVector((0, 0), 2), G_EXAMPLE) == FieldVector((0, 0, 0), 2)


def test_mat_vec_left_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_vec_left(FieldVector((1, 0, 1), 2), G_EXAMPLE)


def test_matrix_accessors():
    m = FieldMatrix(((1, 2), (0, 4), (3, 3)), 5)
    assert (m.num_rows, m.num_cols) == (3, 2)
    assert m.entry(1, 1) == FieldElement(4, 5)
    assert m.row(2) == FieldVector((3, 3), 5)
    assert m.column(0) == FieldVector((1, 0, 3), 5)
    assert m.to_json() == {"q": 5, "rows": [[1, 2], [0, 4], [3, 3]]}


def test_identity_matrix_rank():
    ident = FieldMatrix.identity(3, 2)
    assert rank(ident) == 3
    assert pivot_columns(ident) == (0, 1, 2)


def test_zero_matrix_rank():
    assert rank(FieldMatrix(((0, 0), (0, 0)), 3)) == 0


def test_repeated_row_rank():
    assert rank(FieldMatrix(((1, 1), (1, 1)), 2)) == 1


def test_elimination_is_exact_above_int64_products():
    # the first prime above 2^32: products of two residues overflow int64
    q = 4294967311
    assert is_prime(q)
    rng = random.Random(4294967311)
    for _ in range(20):
        row = [rng.randrange(1, q) for _ in range(3)]
        k = rng.randrange(2, q)
        other = [rng.randrange(q) for _ in range(3)]
        mat = FieldMatrix((tuple(row), tuple(k * v for v in row), tuple(other)), q)
        # pivot columns by 2x2 minors against the first row, in exact ints
        minor = [(row[0] * other[j] - row[j] * other[0]) % q for j in (1, 2)]
        assert any(minor)  # the third row is independent of the first
        assert rank(mat) == 2
        assert pivot_columns(mat) == ((0, 1) if minor[0] else (0, 2))


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


def test_rank_matches_span_enumeration_oracle():
    import numpy as np

    rng = np.random.default_rng(314)
    for _ in range(120):
        q = int(rng.choice([2, 3]))
        nrows = int(rng.integers(1, 5))
        ncols = int(rng.integers(1, 6))
        entries = tuple(
            tuple(int(v) for v in rng.integers(0, q, ncols)) for _ in range(nrows)
        )
        mat = FieldMatrix(entries, q)
        expected = round(math.log(span_size(entries, q), q))
        assert rank(mat) == expected


def test_submatrix_columns():
    m = FieldMatrix(((1, 2, 3), (4, 0, 1)), 5)
    sub = submatrix_columns(m, (0, 2))
    assert sub.to_json() == {"q": 5, "rows": [[1, 3], [4, 1]]}
