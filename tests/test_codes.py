"""Random linear codes and the additive masking encoder."""

import itertools

import numpy as np
import pytest

from icc_kit.codes import (
    LinearCode,
    encode,
    key_gen,
    sample_code,
    shift,
    subcolumns_full_rank,
)


def test_sample_code_deterministic_under_seed():
    a = sample_code(5, 3, 2, 2024)
    b = sample_code(5, 3, 2, 2024)
    assert a == b
    assert a != sample_code(5, 3, 2, 2025)


def test_sample_code_shape_and_alphabet():
    code = sample_code(4, 2, 2, 9)
    assert (code.n, code.m, code.q) == (4, 2, 2)
    assert set(code.generator.flat) <= {0, 1}


def test_sample_code_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        sample_code(3, 4, 2, 0)
    with pytest.raises(ValueError):
        sample_code(3, 0, 2, 0)


def test_generator_entry_frequencies_near_uniform():
    # aggregate symbol counts over 10^4 sampled generators, 3 sigma band
    q, n, m = 3, 4, 2
    seeds = np.random.default_rng(555).integers(0, 2**63, size=10_000)
    counts = np.zeros(q, dtype=np.int64)
    for seed in seeds:
        code = sample_code(n, m, q, int(seed))
        counts += np.bincount(code.generator.ravel(), minlength=q)
    total = counts.sum()
    expected = total / q
    sigma = (total * (1 / q) * (1 - 1 / q)) ** 0.5
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_key_gen_alphabet_and_determinism():
    k = key_gen(1, 2, 77)
    assert k.shape == (1,) and k[0] in (0, 1)
    assert key_gen(4, 5, 31).tolist() == key_gen(4, 5, 31).tolist()


def test_key_gen_chi_square_uniformity():
    # m=2, q=3: 9 cells, 8 degrees of freedom, alpha = 0.01 cutoff 20.09
    seeds = np.random.default_rng(808).integers(0, 2**63, size=10_000)
    counts = np.zeros(9, dtype=np.int64)
    for seed in seeds:
        key = key_gen(2, 3, int(seed))
        counts[key[0] * 3 + key[1]] += 1
    expected = len(seeds) / 9
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 20.09


G23 = LinearCode(((1, 1, 0), (0, 1, 1)), 2)


def test_encode_zero_key_is_identity():
    assert encode((1, 0, 1), (0, 0), G23).tolist() == [1, 0, 1]


def test_encode_hand_value():
    assert encode((0, 0, 0), (1, 1), G23).tolist() == [1, 0, 1]


def test_shift_zero_is_identity():
    assert shift((1, 1, 0), (0, 0), G23).tolist() == [1, 1, 0]


def test_shift_hand_value_ternary():
    code = LinearCode(((1, 2, 0), (0, 1, 2)), 3)
    # tG = (1,1,1) for t = (1,2), so (2,2,2) shifts to (1,1,1)
    assert shift((2, 2, 2), (1, 2), code).tolist() == [1, 1, 1]


@pytest.mark.parametrize("q,n,m", [(2, 3, 2), (2, 4, 2), (3, 2, 2), (5, 2, 1)])
def test_encode_shift_inverse_exhaustive(q, n, m):
    code = sample_code(n, m, q, 1000 + q)
    keys = list(itertools.product(range(q), repeat=m))
    for x in itertools.product(range(q), repeat=n):
        for k in keys:
            masked = encode(x, k, code)
            assert shift(masked, k, code).tolist() == list(x)
        # a stack of keys gives one row per key, each equal to the single call
        stacked = encode(x, keys, code)
        assert stacked.tolist() == [encode(x, k, code).tolist() for k in keys]


@pytest.mark.parametrize("q", [2147483647, 4294967311])
def test_encode_shift_exact_above_int64_sums(q):
    # column 0 of G is all q-1 and the keys are near q-1, so its sum of
    # m = 3 products overflows int64 at both primes; above 2^32 (the first
    # prime there) a single product of two residues does too
    n, m = 5, 3
    rng = np.random.default_rng(4294967311)
    gen = [[q - 1] + [int(v) for v in rng.integers(0, q, n - 1)] for _ in range(m)]
    code = LinearCode(gen, q)
    for _ in range(20):
        x = [int(v) for v in rng.integers(0, q, n)]
        key = [q - 1 - int(v) for v in rng.integers(0, 1000, m)]  # near q - 1
        expected = [(x[j] + sum(key[i] * gen[i][j] for i in range(m))) % q for j in range(n)]
        masked = encode(x, key, code)
        assert masked.tolist() == expected
        assert shift(masked, key, code).tolist() == x
        assert shift(masked, [key, [0] * m], code).tolist() == [x, expected]


def test_encode_dimension_mismatch():
    with pytest.raises(ValueError):
        encode((1, 0), (1, 1), G23)


def test_subcolumns_identity_pivots():
    code = LinearCode(((1, 0, 0), (0, 1, 0)), 2)
    assert subcolumns_full_rank(code, (0, 1))
    assert subcolumns_full_rank(code, (0,))


def test_subcolumns_zero_column():
    code = LinearCode(((1, 0), (1, 0)), 2)
    assert not subcolumns_full_rank(code, (1,))


def test_subcolumns_rejects_oversized_or_repeated_subsets():
    with pytest.raises(ValueError):
        subcolumns_full_rank(G23, (0, 1, 2))
    with pytest.raises(ValueError):
        subcolumns_full_rank(G23, (1, 1))


def test_subcolumns_take_indices_by_the_subset_rule():
    # (True, False) used to read as a column mask, (0.5,) to raise a raw
    # IndexError and ('1',) a TypeError
    code = LinearCode(((1, 0), (0, 1)), 2)
    for bad in ((True, False), (0.5,), ("1",)):
        with pytest.raises(ValueError, match="must be integers"):
            subcolumns_full_rank(code, bad)
    assert subcolumns_full_rank(code, [1, 0])


def test_subcolumns_match_image_enumeration_oracle():
    rng = np.random.default_rng(4242)
    for _ in range(150):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, min(n, 3) + 1))
        code = sample_code(n, m, q, int(rng.integers(2**31)))
        r = int(rng.integers(1, m + 1))
        subset = tuple(sorted(rng.choice(n, size=r, replace=False).tolist()))
        image = set()
        for k in itertools.product(range(q), repeat=m):
            image.add(
                tuple(
                    sum(k[i] * int(code.generator[i, j]) for i in range(m)) % q
                    for j in subset
                )
            )
        assert subcolumns_full_rank(code, subset) == (len(image) == q ** r)


@pytest.mark.parametrize("q, gen", [
    (2, [[1, 0, 1, 1], [0, 1, 1, 0]]),
    (3, [[1, 2, 0, 1], [2, 1, 0, 2]]),  # repeated row up to a scalar
    (2, [[0, 0, 0, 0], [0, 0, 1, 1]]),  # zero row, pivot not in column 0
    (5, [[0, 0, 0]]),
])
def test_coset_labels_name_the_cosets_of_the_row_space(q, gen):
    code = LinearCode(gen, q)
    labels, rank = code.coset_labels
    assert code.coset_labels[0] is labels  # built once per code
    points = list(itertools.product(range(q), repeat=code.n))
    assert len(labels) == len(points)
    words = {tuple(encode(np.zeros(code.n, dtype=np.int64), key, code))
             for key in itertools.product(range(q), repeat=code.m)}
    assert len(words) == q ** rank
    # two points share a label exactly when their difference is a codeword
    for (x, x_label), (y, y_label) in itertools.product(zip(points, labels), repeat=2):
        assert (x_label == y_label) == (tuple((b - a) % q for a, b in zip(x, y)) in words)
    assert sorted(set(labels.tolist())) == list(range(q ** (code.n - rank)))


def test_linear_code_requires_wide_generator():
    with pytest.raises(ValueError):
        LinearCode(((1, 0), (0, 1), (1, 1)), 2)  # m > n


def test_code_json_round_trip():
    code = sample_code(4, 2, 3, 63)
    blob = code.to_json()
    assert blob["n"] == 4 and blob["m"] == 2 and blob["q"] == 3
    assert LinearCode.from_json(blob) == code


def test_code_json_dimension_cross_check():
    blob = sample_code(4, 2, 3, 63).to_json()
    blob["m"] = 3
    with pytest.raises(ValueError):
        LinearCode.from_json(blob)
