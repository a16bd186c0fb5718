"""Evaluation-code machinery: dimensions, information sets, replicated
super-sets, and interpolation decode.

The decode contract is checked against direct polynomial evaluation, the
straggler-tolerance property of the replicated layout is verified
exhaustively for every loss pattern at small sizes, and selection on
hand-built super-sets is checked against a greedy rank oracle.
"""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import icc_kit.rm
from icc_kit.gf import pivot_columns, rank
from icc_kit.poly import evaluate, monomials, random_poly
from icc_kit.rm import (
    RMCode,
    SuperSet,
    decode_at_key,
    information_set,
    rm_code,
    rm_dimension,
    select_available_infoset,
    trivial_superset,
)
from test_acceptance import scheme_grid


def all_points(q, m):
    """Every point of F_q^m in lexicographic order."""
    return tuple(itertools.product(range(q), repeat=m))


def basis_at(rm, point):
    """Independent oracle: every basis monomial at one point by Python pow."""
    return tuple(
        math.prod(pow(int(x), e, rm.q) for x, e in zip(point, exp)) % rm.q
        for exp in monomials(rm.m, rm.d, rm.q).tolist()
    )


def restricted_rank(rm, points):
    """Independent oracle: rank of the basis-by-points evaluation matrix."""
    rows = tuple(basis_at(rm, pt) for pt in points)
    cols = tuple(zip(*rows)) if rows else ()
    return rank(cols, rm.q) if cols else 0


def test_dimension_hand_cases():
    assert rm_dimension(2, 1, 3) == 4   # {1, x1, x2, x3}
    assert rm_dimension(3, 2, 2) == 6   # {1, x, y, x^2, xy, y^2}


def test_dimension_binary_matches_binomial_sums():
    for m in range(1, 7):
        for d in range(0, m):
            assert rm_dimension(2, d, m) == sum(math.comb(m, i) for i in range(d + 1))


def test_degenerate_degree_rejected():
    with pytest.raises(ValueError):
        rm_dimension(2, 3, 3)  # d = m(q-1)
    with pytest.raises(ValueError):
        RMCode(3, 8, 4)
    rm_dimension(2, 2, 3)  # d = m(q-1) - 1 is the last admissible degree


def test_dimension_counts_the_monomial_list():
    for q in (2, 3, 5, 7):
        for m in range(1, 6):
            for d in range(min(m * (q - 1), 12)):
                assert rm_dimension(q, d, m) == len(monomials(m, d, q)), (q, d, m)


def test_top_admissible_degree_dimension():
    # one step below the degenerate boundary misses only the all-(q-1) monomial
    for q, m in [(2, 3), (3, 2), (5, 1)]:
        assert rm_dimension(q, m * (q - 1) - 1, m) == q ** m - 1


def test_information_set_points_are_lexicographic():
    assert information_set(rm_code(2, 1, 2)).tolist() == [[0, 0], [0, 1], [1, 0]]
    points = information_set(rm_code(3, 2, 2))
    assert points.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [2, 0]]
    assert points.tolist() == sorted(points.tolist())
    assert not points.flags.writeable


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
                                 (3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3),
                                 (7, 1), (7, 2), (11, 1), (11, 2)])
def test_information_set_is_the_greedy_pivot_set_over_all_points(q, m):
    # oracle: eliminate the basis-by-points matrix over all q^m points in
    # lexicographic order, for every admissible degree
    points = all_points(q, m)
    for d in range(m * (q - 1)):
        rm = rm_code(q, d, m)
        cols = tuple(zip(*(basis_at(rm, pt) for pt in points)))
        assert information_set(rm).tolist() == [list(points[c]) for c in pivot_columns(cols, q)]


def test_information_set_is_invertible_and_deterministic():
    for q, d, m in [(2, 1, 2), (2, 2, 3), (3, 2, 2), (5, 2, 2), (3, 3, 2)]:
        rm = rm_code(q, d, m)
        info = information_set(rm)
        assert info.shape == (rm.dimension, m)
        assert len(set(map(tuple, info.tolist()))) == rm.dimension
        assert restricted_rank(rm, info) == rm.dimension
        assert np.array_equal(information_set(rm), info)


def test_information_set_binary_affine_case():
    rm = rm_code(2, 1, 2)
    assert len(information_set(rm)) == 3


def test_trivial_superset_layout():
    rm = rm_code(2, 1, 3)  # dimension 4
    assert np.array_equal(trivial_superset(rm, 0).entries, information_set(rm))
    ss = trivial_superset(rm, 2)
    assert ss.entries.shape == (12, 3)
    assert np.array_equal(ss.entries, np.concatenate([information_set(rm)] * 3))
    assert not ss.entries.flags.writeable
    with pytest.raises(ValueError):
        trivial_superset(rm, -1)


@pytest.mark.parametrize("q,d,m,S", [(2, 1, 2, 1), (2, 1, 2, 2), (2, 1, 3, 1), (3, 1, 2, 1)])
def test_superset_survives_every_loss_pattern(q, d, m, S):
    # defining property, exhaustively: every (N-S)-subset contains an
    # information set (N <= 12 keeps the subset count tame)
    rm = rm_code(q, d, m)
    ss = trivial_superset(rm, S)
    n_entries = len(ss.entries)
    assert n_entries <= 12
    for lost in itertools.combinations(range(n_entries), S):
        responded = [i for i in range(n_entries) if i not in lost]
        sources = select_available_infoset(ss, responded)
        assert set(sources.tolist()) <= set(responded)
        assert restricted_rank(rm, ss.entries[sources]) == rm.dimension


def test_select_without_stragglers_returns_canonical_set():
    rm = rm_code(3, 2, 2)
    ss = trivial_superset(rm, 1)
    sources = select_available_infoset(ss, range(len(ss.entries)))
    assert np.array_equal(ss.entries[sources], information_set(rm))


def test_select_falls_back_to_other_replicas():
    rm = rm_code(2, 1, 3)
    ss = trivial_superset(rm, 1)
    d = rm.dimension
    # first replica entirely silent; second must carry every position
    sources = select_available_infoset(ss, range(d, 2 * d))
    assert np.array_equal(ss.entries[sources], information_set(rm))
    assert (sources >= d).all()


def test_select_validates_indices_and_coverage():
    rm = rm_code(2, 1, 2)
    ss = trivial_superset(rm, 1)
    with pytest.raises(ValueError):
        select_available_infoset(ss, [0, 99])
    # a float index is rejected rather than truncated to an entry
    with pytest.raises(ValueError, match="responder indices entries must be integers"):
        select_available_infoset(ss, [0, 1.5, 2, 3])
    # both replicas of position 0 lost: no information set remains
    with pytest.raises(ValueError):
        select_available_infoset(ss, [1, 2, 4, 5])


def test_select_generic_layout_without_replica_hint():
    rm = rm_code(2, 1, 2)
    pts = all_points(2, 2)
    ss = SuperSet(entries=pts, code_params=(2, 1, 2))
    sources = select_available_infoset(ss, range(4))
    assert restricted_rank(rm, ss.entries[sources]) == rm.dimension


@pytest.mark.parametrize("entries", [
    ((0, 0), (1, 0), (0, 1), (1.5, 0)),  # a float coordinate is not truncated
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),  # three coordinates for m = 2
])
def test_select_generic_layout_validates_entries(entries):
    # the super-set checks its entries once, when it is built
    with pytest.raises(ValueError, match="super-set entries"):
        SuperSet(entries=entries, code_params=(2, 1, 2))


def test_superset_list_entries_are_reduced_read_only_and_select():
    # lists are accepted like tuples, and unreduced or negative coordinates
    # are held as their residues
    rm = rm_code(2, 1, 2)
    g = random_poly(2, 1, 2, 31)
    for entries in ([[0, 0], [0, 1], [1, 0]], [[2, -2], [0, 3], [-1, 4]]):
        ss = SuperSet(entries=entries, code_params=(2, 1, 2))
        assert ss.entries.tolist() == [[0, 0], [0, 1], [1, 0]]
        assert not ss.entries.flags.writeable
        sources = select_available_infoset(ss, range(3))
        assert sources.tolist() == [0, 1, 2]
        values = [evaluate(g, pt) for pt in ss.entries[sources]]
        for key in all_points(2, 2):
            assert decode_at_key(rm, ss.entries[sources], values, key) == evaluate(g, key)


def test_select_and_decode_with_coordinates_beyond_int64_products():
    # at q = 2^61 - 1 entries are held as Python ints; a hand-built super-set
    # with coordinates above 2^32 and one straggler still decodes exactly
    q = 2 ** 61 - 1
    rm = rm_code(q, 2, 2)
    rng = np.random.default_rng(61)
    entries = [[int(c) for c in rng.integers(2 ** 32, 2 ** 60, size=2)] for _ in range(8)]
    ss = SuperSet(entries=entries, code_params=(q, 2, 2))
    assert ss.entries.dtype == object
    g = random_poly(2, 2, q, 62)
    key = [q - 3, 2 ** 40 + 7]
    for straggler in range(len(entries)):
        responded = [i for i in range(len(entries)) if i != straggler]
        sources = select_available_infoset(ss, responded)
        assert tuple(sources.tolist()) == greedy_selection(rm, entries, responded)[1]
        points = ss.entries[sources]
        values = [evaluate(g, pt) for pt in points]
        assert decode_at_key(rm, points, values, key) == evaluate(g, key)


def greedy_selection(rm, entries, responded):
    """Independent oracle: reduce the entries mod q, walk the distinct
    responding points in lexicographic order and keep a point when the
    restricted rank grows. Returns (points, lowest responding index of
    each), or None when the rank stays below the dimension."""
    entries = [tuple(c % rm.q for c in pt) for pt in entries]
    responding = set(responded)
    kept = []
    for pt in sorted({entries[i] for i in responding}):
        if restricted_rank(rm, kept + [pt]) > len(kept):
            kept.append(pt)
    if len(kept) < rm.dimension:
        return None
    return tuple(kept), tuple(min(i for i in responding if entries[i] == pt) for pt in kept)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_selection_matches_greedy_oracle(data):
    # hand-built super-sets: each canonical point missing, once or twice,
    # extra points (now and then unreduced or negative), any order, and
    # random stragglers
    q, m = data.draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1),
                                      (5, 2), (5, 3)]))
    rm = rm_code(q, data.draw(st.integers(0, min(m * (q - 1) - 1, 4))), m)
    canonical = list(map(tuple, information_set(rm).tolist()))
    copies = data.draw(st.lists(st.sampled_from([1, 1, 1, 2, 0]),
                                min_size=len(canonical), max_size=len(canonical)))
    coord = st.integers(0, q - 1) | st.integers(-q, 2 * q)
    extra = data.draw(st.lists(st.tuples(*[coord] * m), max_size=6))
    entries = [pt for pt, c in zip(canonical, copies) for _ in range(c)] + extra
    assume(entries)
    entries = tuple(data.draw(st.permutations(entries)))
    lost = data.draw(st.sets(st.sampled_from(range(len(entries)))))
    responded = [i for i in range(len(entries)) if i not in lost]
    expected = greedy_selection(rm, entries, responded)
    ss = SuperSet(entries=entries, code_params=(q, rm.d, m))
    if expected is None:
        with pytest.raises(ValueError, match="do not contain an information set"):
            select_available_infoset(ss, responded)
    else:
        sources = select_available_infoset(ss, responded)
        assert (tuple(map(tuple, ss.entries[sources].tolist())), tuple(sources.tolist())) == expected


@pytest.mark.parametrize("q,d,m", [(2, 1, 3), (3, 2, 2), (5, 3, 2), (2, 2, 4)])
def test_covered_canonical_set_runs_no_elimination(q, d, m, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("selection ran an elimination")

    monkeypatch.setattr(icc_kit.rm, "row_reduce", no_elimination)
    rm = rm_code(q, d, m)
    grid = all_points(q, m)
    sources = select_available_infoset(SuperSet(entries=grid, code_params=(q, d, m)),
                                       range(len(grid)))
    assert sources.tolist() == [grid.index(tuple(pt)) for pt in information_set(rm).tolist()]
    # the replicated layout with its first replica lost is covered too
    ss = trivial_superset(rm, 1)
    sources = select_available_infoset(ss, range(rm.dimension, 2 * rm.dimension))
    assert sources.tolist() == list(range(rm.dimension, 2 * rm.dimension))


# d >= q (every divided-difference level up to q - 1 runs) and the large
# primes, where the Newton coefficients are exact Python ints
CANONICAL_DECODE_CODES = [(2, 1, 3), (2, 3, 4), (3, 2, 2), (3, 4, 3), (5, 2, 4), (5, 6, 2),
                          (7, 3, 2), (2**31 - 1, 2, 3), (2**61 - 1, 2, 3), (2**61 - 1, 3, 2)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_canonical_decode_matches_elimination_and_evaluate(data):
    q, d, m = data.draw(st.sampled_from(CANONICAL_DECODE_CODES), label="q, d, m")
    rm = rm_code(q, d, m)
    info = information_set(rm)
    g = random_poly(m, d, q, data.draw(st.integers(0, 2**32 - 1), label="poly seed"))
    key = data.draw(st.tuples(*[st.integers(0, q - 1)] * m), label="key")
    values = [evaluate(g, pt) for pt in info.tolist()]
    # the same points with one repeated are not the canonical set, so they
    # take the elimination path
    extra = data.draw(st.integers(0, len(info) - 1), label="repeated point")
    repeated = np.concatenate([info, info[extra:extra + 1]])
    eliminated = decode_at_key(rm, repeated, values + [values[extra]], key)
    assert decode_at_key(rm, info, values, key) == eliminated == evaluate(g, key)


@pytest.mark.parametrize("q,d,m", [(2, 1, 3), (3, 4, 3), (5, 3, 2), (2**61 - 1, 2, 3)])
def test_canonical_decode_runs_no_elimination(q, d, m, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("decode ran an elimination")

    rm = rm_code(q, d, m)
    g = random_poly(m, d, q, 77)
    ss = trivial_superset(rm, 1)
    key = [(3 * j + 1) % q for j in range(m)]
    monkeypatch.setattr(icc_kit.rm, "row_reduce", no_elimination)
    # the first replica lost: selection answers the canonical set from the second
    sources = select_available_infoset(ss, range(rm.dimension, 2 * rm.dimension))
    points = ss.entries[sources]
    values = [evaluate(g, pt) for pt in points.tolist()]
    assert decode_at_key(rm, points, values, key) == evaluate(g, key)
    # the canonical points in another order are another point set
    with pytest.raises(AssertionError, match="elimination"):
        decode_at_key(rm, points[::-1], values[::-1], key)


@pytest.mark.parametrize("q,d,m", [(2, 2, 12), (3, 4, 3), (5, 2, 4), (7, 9, 2)])
def test_newton_steps_stay_within_the_dimension(q, d, m):
    # m * min(d, q - 1) steps, each at most dimension rows: no array of the
    # decode is larger than the dimension x (dimension + 1) system
    rm = rm_code(q, d, m)
    steps = icc_kit.rm._newton_steps(rm)
    assert len(steps) == m * min(d, q - 1) < rm.dimension
    basis = information_set(rm)
    for inv, rows, lowered in steps:
        assert len(rows) == len(lowered) <= rm.dimension
        # each lowered row differs from its row by e_j for one j
        diff = basis[rows] - basis[lowered]
        assert (diff.sum(axis=1) == 1).all() and (diff >= 0).all()


def test_codewords_lie_in_generator_row_space():
    rng = np.random.default_rng(2718)
    for q, d, m in [(2, 1, 3), (2, 2, 3), (3, 2, 2), (5, 1, 1)]:
        rm = rm_code(q, d, m)
        gen_rows = tuple(basis_at(rm, pt) for pt in all_points(q, m))
        gen_cols = tuple(zip(*gen_rows))
        base_rank = rank(gen_cols, q)
        assert base_rank == rm.dimension
        for _ in range(5):
            g = random_poly(m, d, q, int(rng.integers(2**31)))
            word = tuple(evaluate(g, pt) for pt in all_points(q, m))
            assert rank(gen_cols + (word,), q) == base_rank


def test_decode_constant_polynomial():
    rm = rm_code(3, 2, 2)
    for key in itertools.product(range(3), repeat=2):
        assert decode_at_key(rm, information_set(rm), [2] * rm.dimension, key) == 2


@pytest.mark.parametrize("q,d,m", [(2, 2, 3), (3, 2, 2), (5, 1, 1), (2, 1, 2)])
def test_decode_reproduces_polynomial_at_every_key(q, d, m):
    rng = np.random.default_rng(1234 + q * 10 + d)
    rm = rm_code(q, d, m)
    info = information_set(rm)
    for _ in range(4):
        g = random_poly(m, d, q, int(rng.integers(2**31)))
        values = [evaluate(g, pt) for pt in info]
        for key in itertools.product(range(q), repeat=m):
            assert decode_at_key(rm, info, values, key) == evaluate(g, key)


def test_decode_from_non_canonical_information_set():
    # answers on all points except one canonical pivot still decode
    rm = rm_code(2, 1, 2)
    g = random_poly(2, 1, 2, 5150)
    skip = tuple(information_set(rm)[0].tolist())
    points = [pt for pt in all_points(2, 2) if pt != skip]
    values = [evaluate(g, pt) for pt in points]
    for key in itertools.product(range(2), repeat=2):
        assert decode_at_key(rm, points, values, key) == evaluate(g, key)


RM_PARAMS = sorted({(q, d, m) for q, m, d, _ in scheme_grid()})


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_decode_from_random_information_set_matches_evaluate(data):
    q, d, m = data.draw(st.sampled_from(RM_PARAMS), label="q, d, m")
    rm = rm_code(q, d, m)
    g = random_poly(m, d, q, data.draw(st.integers(0, 2**32 - 1), label="poly seed"))
    key = data.draw(st.tuples(*[st.integers(0, q - 1)] * m), label="key")
    # the points that grow the span in a random order of all q^m points
    order = data.draw(st.permutations(all_points(q, m)), label="point order")
    basis_cols = tuple(zip(*(basis_at(rm, pt) for pt in order)))
    info = [order[c] for c in pivot_columns(basis_cols, q)]
    assert len(info) == rm.dimension
    assert decode_at_key(rm, info, [evaluate(g, pt) for pt in info], key) == evaluate(g, key)


def test_decode_insufficient_answers():
    rm = rm_code(2, 1, 3)
    points = information_set(rm)[:-1]
    with pytest.raises(ValueError):
        decode_at_key(rm, points, [0] * len(points), (0, 0, 0))


def test_decode_inconsistent_answers():
    rm = rm_code(2, 1, 2)
    g = random_poly(2, 1, 2, 99)
    points = all_points(2, 2)
    values = [evaluate(g, pt) for pt in points]
    corrupt = values[:-1] + [(values[-1] + 1) % 2]  # the answer at (1, 1)
    with pytest.raises(ValueError, match="inconsistent"):
        decode_at_key(rm, points, corrupt, (0, 0))
    # a point may repeat: equal answers decode, conflicting ones do not
    repeated = points + points[:2]
    values = [evaluate(g, pt) for pt in repeated]
    for key in points:
        assert decode_at_key(rm, repeated, values, key) == evaluate(g, key)
    with pytest.raises(ValueError, match="inconsistent"):
        decode_at_key(rm, repeated, values[:-1] + [(values[-1] + 1) % 2], (0, 0))


def test_decode_validates_key():
    rm = rm_code(2, 1, 2)
    points = information_set(rm)
    with pytest.raises(ValueError):
        decode_at_key(rm, points, [0] * len(points), (0, 0, 0))
    # the key carries no modulus any more; a float key is rejected rather
    # than truncated
    with pytest.raises(ValueError):
        decode_at_key(rm, points, [0] * len(points), (0.0, 0.0))


def test_decode_validates_answered_points():
    # a float coordinate is rejected rather than truncated to (1, 0), a
    # point with the wrong number of coordinates is named as such, and there
    # must be one answer per point
    rm = rm_code(2, 1, 2)
    with pytest.raises(ValueError, match="answered points entries must be integers"):
        decode_at_key(rm, [(0, 0), (0, 1), (1.5, 0)], [1, 0, 1], (1, 1))
    with pytest.raises(ValueError, match=r"answered points must have shape \('\*', 2\)"):
        decode_at_key(rm, [(0, 0, 0), (0, 1, 0), (1, 0, 0)], [1, 0, 1], (1, 1))
    with pytest.raises(ValueError, match="answered points must be a rectangular array"):
        decode_at_key(rm, [(0, 0), (0, 1), (1, 0, 0)], [1, 0, 1], (1, 1))
    with pytest.raises(ValueError, match="answers entries must be integers"):
        decode_at_key(rm, [(0, 0), (0, 1), (1, 0)], [1, 0, 1.0], (1, 1))
    with pytest.raises(ValueError, match=r"answers must have shape \(3,\)"):
        decode_at_key(rm, [(0, 0), (0, 1), (1, 0)], [1, 0], (1, 1))


def test_point_enumeration_is_capped_before_allocation():
    # the cap bounds the dimension x (dimension + 1) decode system, checked
    # before the monomial basis (about 1.5e9 tuples here) is listed
    start = time.monotonic()
    with pytest.raises(ValueError, match="exceeds cap"):
        RMCode(2, 10, 40)
    assert time.monotonic() - start < 1
    # F_q^m is never enumerated, so a code at q = 2^31 - 1 builds
    q = 2147483647
    rm = rm_code(q, 1, 1)
    assert rm.dimension == rm_dimension(q, 1, 1) == 2
    assert information_set(rm).tolist() == [[0], [1]]
