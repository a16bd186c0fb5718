"""Exact enumeration-based probability machinery.

Every quantitative oracle here is either a hand calculation (entropies,
divergences, distances on one- and two-symbol spaces) or an independent
recomputation from the defining formula. Randomized property loops use
fixed seeds so failures replay.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icc_kit import gf, infometrics
from icc_kit.codes import LinearCode, sample_code
from icc_kit.infometrics import (
    BoundParams,
    DEFAULT_CAP,
    Distribution,
    all_subsets,
    bernoulli_iid,
    check_cap,
    check_divergence_distance_relation,
    check_entropy_gap,
    keysize_lower_bound,
    kl_divergence,
    leakage_audit,
    leakage_bound,
    leakage_bounds_both,
    measured_bounds,
    mutual_information,
    pinsker_check,
    point_mass,
    random_dirichlet,
    relation_in_context,
    renyi_divergence,
    renyi_entropy,
    smoothing_report,
    smoothing_threshold,
    subset_entropies,
    subset_leakages,
    uniform,
    v_distance,
    v_p_distance,
)
from oracles import (
    conditional_encoded,
    conditional_given,
    conditioning_events,
    dense_joint,
    dense_mutual_information,
    marginal,
    pushforward_encode,
    worst_conditional_power_sum,
)

TOL = 1e-9


# ---------------------------------------------------------------------------
# distribution type and families

def test_distribution_normalization_enforced():
    with pytest.raises(ValueError):
        Distribution(2, 1, np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        Distribution(2, 1, np.array([1.2, -0.2]))
    # NaN passed both the sign and the sum check, and entropies came out NaN
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            Distribution(2, 2, [bad, 0.5, 0.25, 0.25])


def test_distribution_table_is_read_only():
    d = uniform(2, 2)
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


def test_distribution_equality_compares_tables():
    assert uniform(2, 2) == uniform(2, 2)
    assert uniform(2, 2) != point_mass(2, 2, (0, 0))
    assert uniform(2, 2) != uniform(2, 1)
    assert uniform(2, 2) != "uniform"


def test_uniform_and_point_mass_tables():
    u = uniform(3, 2)
    assert np.allclose(u.probs, np.full(9, 1 / 9))
    pm = point_mass(2, 3, (1, 0, 1))
    assert pm.prob_of((1, 0, 1)) == 1.0
    assert pm.probs.sum() == 1.0


def test_outcomes_outside_the_space_are_rejected():
    # digits outside [0, q) or a wrong length used to wrap onto another
    # outcome: (0, 2) indexed (1, 0) and (0, -1) indexed (1, 1)
    pm = point_mass(2, 2, (1, 0))
    for bad in ((0, 2), (0, -1), (1, 0, 0), (1,), (1.0, 0.0)):
        with pytest.raises(ValueError, match="not a point"):
            point_mass(2, 2, bad)
        with pytest.raises(ValueError, match="not a point"):
            pm.prob_of(bad)
    assert pm.prob_of(np.array([1, 0], dtype=np.uint8)) == 1.0


def test_bernoulli_iid_table():
    d = bernoulli_iid(2, 0.25)
    # outcomes in lexicographic order: 00, 01, 10, 11
    assert np.allclose(d.probs, [9 / 16, 3 / 16, 3 / 16, 1 / 16])


def test_random_dirichlet_is_a_distribution_and_deterministic():
    a = random_dirichlet(3, 2, 12)
    b = random_dirichlet(3, 2, 12)
    assert np.array_equal(a.probs, b.probs)
    assert abs(a.probs.sum() - 1.0) < 1e-12
    assert (a.probs >= 0).all()
    # alpha = 0 drew an all-zero table, normalised to NaN
    with pytest.raises(ValueError, match="alpha must be positive"):
        random_dirichlet(3, 2, 12, alpha=0.0)


@pytest.mark.parametrize("build", [
    lambda: uniform(2, 30),
    lambda: point_mass(2, 30, (0,) * 30),
    lambda: bernoulli_iid(30, 0.25),
    lambda: random_dirichlet(2, 30, 7),
    lambda: Distribution(2, 30, [1.0]),
], ids=["uniform", "point_mass", "bernoulli_iid", "random_dirichlet", "Distribution"])
def test_table_builders_refuse_beyond_the_cap_before_allocating(build):
    # 2^30 float64 probabilities would take 8 GiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1073741824 outcomes exceeds cap"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_table_builders_take_the_cap_argument():
    # q^n at the cap is built, one entry above it is refused
    for build in (uniform, lambda q, n, cap: random_dirichlet(q, n, 3, cap=cap)):
        assert len(build(2, 3, cap=8).probs) == 8
        with pytest.raises(ValueError, match="exceeds cap 7"):
            build(2, 3, cap=7)
    assert point_mass(3, 2, (1, 2), cap=9).prob_of((1, 2)) == 1.0
    with pytest.raises(ValueError, match="exceeds cap 4"):
        bernoulli_iid(3, 0.5, cap=4)
    with pytest.raises(ValueError, match="exceeds cap 4"):
        Distribution(2, 3, np.full(8, 0.125), cap=4)


def test_subset_indices_bounds():
    assert gf.subset_indices((0, 2), 4) == (0, 2)
    assert gf.subset_indices([3, 0], 4) == (0, 3)  # any order, returned sorted
    for bad in ((), (0, 0), (0, 4), (-1,), [[0, 1]], 2):
        with pytest.raises(ValueError):
            gf.subset_indices(bad, 4)
    # r = n is not a proper subset: mutual_information keeps its own check
    dist, code = uniform(2, 4), sample_code(4, 2, 2, 1)
    with pytest.raises(ValueError, match="need 1 <= subset size < n"):
        mutual_information(dist, code, (0, 1, 2, 3))
    assert mutual_information(dist, code, [0, 2]) == mutual_information(dist, code, (0, 2))


def test_subset_indices_rejects_non_integer_indices():
    # (0.9, 1.2) used to truncate to (0, 1)
    for bad in ((0.9, 1.2), (0.0, 1.0), (0.5,), (True,), ("0",)):
        with pytest.raises(ValueError, match="must be integers"):
            gf.subset_indices(bad, 3)
        with pytest.raises(ValueError, match="must be integers"):
            mutual_information(uniform(2, 3), sample_code(3, 2, 2, 1), bad)
    assert gf.subset_indices(np.array([0, 2], dtype=np.uint8), 3) == (0, 2)


def test_all_subsets_counts():
    assert len(all_subsets(5, 2)) == 10
    assert all_subsets(4, 1) == [(0,), (1,), (2,), (3,)]


def test_marginal_against_manual_sum():
    d = random_dirichlet(2, 3, 77)
    sel = (0, 2)
    marg = marginal(d, sel)
    shaped = d.probs.reshape(2, 2, 2)
    assert np.allclose(marg.probs, shaped.sum(axis=1).ravel())


# ---------------------------------------------------------------------------
# entropies

def test_entropy_uniform_is_n_exact():
    assert renyi_entropy(uniform(2, 3), 2) == 3.0
    assert abs(renyi_entropy(uniform(3, 2), 2) - 2.0) < 1e-12


def test_entropy_point_mass_is_zero():
    assert renyi_entropy(point_mass(2, 3, (0, 1, 0)), 2) == 0.0


def test_entropy_bernoulli_hand_value():
    d = bernoulli_iid(1, 0.25)
    assert abs(renyi_entropy(d, 2) - (-math.log2(10 / 16))) < 1e-12


def test_entropy_non_increasing_in_order():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = random_dirichlet(2, 4, int(rng.integers(2**31)))
        values = [renyi_entropy(d, p) for p in (2, 3, 4, 5)]
        assert all(a >= b - TOL for a, b in zip(values, values[1:]))
        assert 0 <= values[-1] <= 4 + TOL


def test_entropy_rejects_order_below_two():
    with pytest.raises(ValueError):
        renyi_entropy(uniform(2, 2), 1)


# ---------------------------------------------------------------------------
# distances and divergences

def test_distances_vanish_on_equal_arguments():
    d = random_dirichlet(2, 3, 5)
    assert v_distance(d, d) == 0.0
    assert v_p_distance(d, d, 2) == 0.0
    assert kl_divergence(d, d) == 0.0
    assert renyi_divergence(d, d, 3) == 0.0


def test_distance_hand_values_single_bit():
    p = Distribution(2, 1, np.array([1.0, 0.0]))
    u = uniform(2, 1)
    assert abs(v_distance(p, u) - 1.0) < 1e-12
    assert abs(v_p_distance(p, u, 2) - 1.0) < 1e-12


def test_kl_point_mass_vs_uniform():
    pm = point_mass(2, 2, (0, 0))
    assert abs(kl_divergence(pm, uniform(2, 2)) - 2.0) < 1e-12


def test_divergence_support_violation_is_infinite():
    p = Distribution(2, 1, np.array([0.5, 0.5]))
    qd = Distribution(2, 1, np.array([1.0, 0.0]))
    assert kl_divergence(p, qd) == math.inf
    assert renyi_divergence(p, qd, 2) == math.inf


def test_distance_shape_mismatch():
    with pytest.raises(ValueError):
        v_distance(uniform(2, 2), uniform(2, 3))
    with pytest.raises(ValueError):
        v_p_distance(uniform(2, 2), uniform(3, 2), 2)


def test_v_dominated_by_vp_and_d_by_dp():
    rng = np.random.default_rng(1618)
    for i in range(1000):
        q, n = [(2, 3), (2, 4), (3, 2)][i % 3]
        a = random_dirichlet(q, n, int(rng.integers(2**31)))
        b = random_dirichlet(q, n, int(rng.integers(2**31)))
        p = 2 + i % 3
        assert v_distance(a, b) <= v_p_distance(a, b, p) + TOL
        assert kl_divergence(a, b) <= renyi_divergence(a, b, p) + TOL


# ---------------------------------------------------------------------------
# encoding pushforwards

def test_pushforward_uniform_stays_uniform():
    rng = np.random.default_rng(40)
    for _ in range(20):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n + 1))
        code = sample_code(n, m, q, int(rng.integers(2**31)))
        out = pushforward_encode(uniform(q, n), code)
        assert np.allclose(out.probs, 1 / q**n, atol=1e-14)


def test_pushforward_zero_generator_is_identity():
    d = random_dirichlet(2, 3, 8)
    zero = LinearCode(((0, 0, 0), (0, 0, 0)), 2)
    out = pushforward_encode(d, zero)
    assert np.allclose(out.probs, d.probs)


def test_pushforward_two_point_example():
    # mass split between 00 and 11; the repetition row maps the support
    # onto itself, so the encoded law keeps the same two atoms
    d = Distribution(2, 2, np.array([0.5, 0.0, 0.0, 0.5]))
    code = LinearCode(((1, 1),), 2)
    out = pushforward_encode(d, code)
    assert np.allclose(out.probs, [0.5, 0.0, 0.0, 0.5])


def test_conditional_given_null_event_errors():
    pm = point_mass(2, 2, (0, 0))
    sel = (0,)
    with pytest.raises(ValueError):
        conditional_given(pm, sel, (1,))


def test_conditional_given_rejects_non_integer_values():
    # (0.7,) used to truncate to the event X_0 = 0
    d = uniform(2, 3)
    sel = (0,)
    for bad in ((0.7,), (0.0,), (True,)):
        with pytest.raises(ValueError, match="must be integers"):
            conditional_given(d, sel, bad)
    assert conditional_given(d, sel, np.array([1])) == conditional_given(d, sel, (1,))


def test_conditional_encoded_of_deterministic_data_is_coset_uniform():
    code = sample_code(3, 2, 2, 21)
    x = (1, 0, 1)
    pm = point_mass(2, 3, x)
    sel = (0,)
    cond = conditional_encoded(pm, code, sel, (1,))
    # the encoded law of a fixed vector is uniform over its masking coset
    coset = set()
    for k0 in range(2):
        for k1 in range(2):
            shiftv = [
                (x[j] + k0 * code.generator[0, j] + k1 * code.generator[1, j]) % 2
                for j in range(3)
            ]
            coset.add(tuple(shiftv))
    for idx in range(8):
        outcome = tuple((idx >> (2 - j)) & 1 for j in range(3))
        expected = 1 / len(coset) if outcome in coset else 0.0
        assert abs(cond.prob_of(outcome) - expected) < 1e-12


def test_conditional_encoded_uniform_full_rank_matches_encoded():
    from icc_kit.codes import subcolumns_full_rank

    rng = np.random.default_rng(90)
    u = uniform(2, 4)
    hits = 0
    while hits < 10:
        code = sample_code(4, 2, 2, int(rng.integers(2**31)))
        sel = (0, 1)
        if not subcolumns_full_rank(code, sel):
            continue
        cond = conditional_encoded(u, code, sel, (1, 0))
        assert np.allclose(cond.probs, 1 / 16, atol=1e-14)
        hits += 1


# ---------------------------------------------------------------------------
# mutual information

def test_mutual_information_uniform_full_rank_is_zero():
    from icc_kit.codes import subcolumns_full_rank

    rng = np.random.default_rng(60)
    u = uniform(2, 4)
    checked = 0
    while checked < 20:
        code = sample_code(4, 2, 2, int(rng.integers(2**31)))
        for sel in all_subsets(4, 2):
            if subcolumns_full_rank(code, sel):
                assert mutual_information(u, code, sel) <= TOL
                checked += 1


def test_mutual_information_micro_instances():
    d = Distribution(2, 2, np.array([0.5, 0.0, 0.0, 0.5]))
    sel = (1,)
    leaky = LinearCode(((1, 0),), 2)
    tight = LinearCode(((1, 1),), 2)
    assert mutual_information(d, leaky, sel) == 1.0
    assert mutual_information(d, tight, sel) == 0.0


def test_mutual_information_bounded_by_subset_and_key_size():
    rng = np.random.default_rng(61)
    for _ in range(40):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n + 1))
        r = int(rng.integers(1, n))
        d = random_dirichlet(q, n, int(rng.integers(2**31)))
        code = sample_code(n, m, q, int(rng.integers(2**31)))
        sel = all_subsets(n, r)[0]
        mi = mutual_information(d, code, sel)
        assert -TOL <= mi <= min(r, n) + TOL


def _key_loop_joint(dist, code, indices) -> np.ndarray:
    """Oracle: the (encoded value, X_R value) joint table summed over every
    one of the q^m keys, shape (q^n, q^r)."""
    q, n, r = dist.q, dist.n, len(indices)
    points = np.array(list(itertools.product(range(q), repeat=n)))
    sub = points[:, list(indices)] @ q ** np.arange(r - 1, -1, -1)
    joint = np.zeros((q ** n, q ** r))
    for key in itertools.product(range(q), repeat=code.m):
        encoded = (points + np.array(key) @ code.generator) % q @ q ** np.arange(n - 1, -1, -1)
        np.add.at(joint, (encoded, sub), dist.probs / q ** code.m)
    return joint


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_coset_path_matches_key_loop(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(2, {2: 5, 3: 4, 5: 3}[q]))
    m = data.draw(st.integers(1, n))
    r = data.draw(st.integers(1, n - 1))
    gen = np.array(data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=m, max_size=m)))
    deficiency = data.draw(st.sampled_from(["none", "zero row", "repeated row"]))
    if deficiency == "zero row":
        gen[data.draw(st.integers(0, m - 1))] = 0
    elif deficiency == "repeated row" and m > 1:
        gen[-1] = gen[0] * data.draw(st.integers(1, q - 1)) % q
    probs = random_dirichlet(q, n, data.draw(st.integers(0, 2**31))).probs.copy()
    if data.draw(st.booleans()):  # zero-probability outcomes
        probs[data.draw(st.lists(st.integers(0, q**n - 1), max_size=q**n - 1))] = 0.0
    dist = Distribution(q, n, probs / probs.sum())
    code = LinearCode(gen, q)
    sel = data.draw(st.sampled_from(all_subsets(n, r)))
    joint = _key_loop_joint(dist, code, sel)
    encoded = joint.sum(axis=1)
    outer = encoded[:, None] * joint.sum(axis=0)[None, :]
    support = joint > 0
    oracle_mi = float(np.sum(joint[support] * np.log(joint[support] / outer[support]))) / math.log(q)
    assert abs(mutual_information(dist, code, sel) - oracle_mi) <= 1e-12
    assert np.max(np.abs(pushforward_encode(dist, code).probs - encoded)) <= 1e-12


def test_mutual_information_memory_at_cap_boundary():
    # q^(n+m) = 2^22 joint outcomes; the key loop peaked at 512 MB here
    dist = random_dirichlet(2, 20, 7)
    code = sample_code(20, 2, 2, 8)
    tracemalloc.start()
    try:
        mutual_information(dist, code, (3, 11, 19))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_mutual_information_builds_its_terms_in_place():
    # the (coset, X_R) table of subset (3, 11) under a rank-2 code has
    # 2^20 cells, as many as the probability table. With the coset labels
    # cached, the peak is bincount's: the keys, the table and bincount's
    # writable copy of the read-only probabilities. The terms are built in
    # one marginal-product buffer and then in the table
    dist = random_dirichlet(2, 20, 5, alpha=30.0)
    code = sample_code(20, 2, 2, 3)
    assert code.coset_labels[1] == 2
    tracemalloc.start()
    try:
        mutual_information(dist, code, (3, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * dist.probs.nbytes, peak / dist.probs.nbytes


def test_entropy_gap_memory_is_a_few_tables():
    # each marginal and slice power sum is an axis sum over the (2,)*20
    # table: no q^n subset index and no gathered copy of the masses
    dist = random_dirichlet(2, 20, 5, alpha=30.0)
    subset_entropies(dist, 2, 1)
    tracemalloc.start()
    try:
        check_entropy_gap(dist, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * dist.probs.nbytes, peak / dist.probs.nbytes


def test_cap_guards_joint_enumeration():
    # the cap counts the cells of the tables allocated, not the q^(n+m) =
    # 2^7 (data, key) outcomes: this (coset, X_R) table has 2^(4-3+1) cells
    dist, sel = random_dirichlet(2, 4, 5, cap=2**6), (0,)
    code = sample_code(4, 3, 2, 3)
    joint = _key_loop_joint(dist, code, sel)
    outer = joint.sum(axis=1)[:, None] * joint.sum(axis=0)[None, :]
    support = joint > 0
    oracle_mi = float(np.sum(joint[support] * np.log(joint[support] / outer[support]))) / math.log(2)
    assert abs(mutual_information(dist, code, sel) - oracle_mi) <= 1e-12
    check_cap(2**6, 2**6)  # at the cap is allowed
    assert DEFAULT_CAP == 2**24
    # a subset wider than the rank: the dense (coset, X_R) table has
    # 2^(8-1+6) cells, beyond the cap the law was admitted under
    code = LinearCode([[1] * 8], 2)
    with pytest.raises(ValueError, match="8192 outcomes exceeds cap 1024"):
        mutual_information(uniform(2, 8, cap=2**10), code, tuple(range(6)))
    with pytest.raises(ValueError, match="8192 outcomes exceeds cap 1024"):
        leakage_audit(uniform(2, 8, cap=2**10), code, 6, p=2, epsilon=0.25, a=2.0)
    # the 32-cell table of a 2-subset fits the cap, and so do its
    # conditional coset-law rows, 4 of 8 entries; a cap of 16 does not
    code = LinearCode([[1, 1, 0, 1]], 2)
    assert len(smoothing_report(uniform(2, 4, cap=32), code, 2, 0.5, 2).conditional_vps) == 24
    with pytest.raises(ValueError, match="32 outcomes exceeds cap 16"):
        smoothing_report(uniform(2, 4, cap=16), code, 2, 0.5, subset_size=2)


def test_audit_paths_answer_at_the_table_cap():
    # q^n = 2^16 = cap: every table an audit allocates has at most q^n
    # entries for r <= rank, whatever the key length; 2^(16+m) (data, key)
    # outcomes are no reason to refuse
    cap = 2**16
    dist = random_dirichlet(2, 16, 7, cap=cap)
    sel = (5,)
    for m in (1, 2, 15):
        code = sample_code(16, m, 2, 40 + m)
        tracemalloc.start()
        try:
            mi = mutual_information(dist, code, sel)
            encoded = pushforward_encode(dist, code)
            report = leakage_audit(dist, code, 1, p=2, epsilon=0.25, a=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 <= mi <= report["max_mi"] and report["key_length"] == m
        assert abs(encoded.probs.sum() - 1.0) < 1e-12
        assert peak < 8 * (8 * cap), (m, peak / (8 * cap))


def test_pushforward_keeps_the_cap_its_table_was_admitted_under(monkeypatch):
    # a table admitted under its caller's cap yields laws of the same size
    # that are not refused again under the smaller default
    monkeypatch.setattr(gf, "DEFAULT_CAP", 2**6)
    dist = Distribution(2, 8, random_dirichlet(2, 8, 3, cap=2**8).probs, cap=2**8)
    code = sample_code(8, 3, 2, 4)
    encoded = pushforward_encode(dist, code)
    assert encoded.probs.size == 2**8 and abs(encoded.probs.sum() - 1.0) < 1e-12
    cond = conditional_encoded(dist, code, (0,), (1,))
    assert cond.probs.size == 2**8
    with pytest.raises(ValueError, match="exceeds cap 64"):
        uniform(2, 8)


def test_a_law_audits_under_the_cap_it_was_admitted_under(monkeypatch):
    # no audit call repeats the cap: each (coset, X_R) table of a law is
    # checked against the law's own cap; every table here, 2^6 cells or
    # fewer, is above the default of 2^4 and within the law's 2^9
    monkeypatch.setattr(gf, "DEFAULT_CAP", 2**4)
    dist = random_dirichlet(2, 8, 3, cap=2**9)
    code = sample_code(8, 3, 2, 4)
    report = leakage_audit(dist, code, 1, p=2, epsilon=0.25, a=2.0)
    assert len(report["per_subset"]) == 8 and report["max_mi"] >= 0
    smoothing = smoothing_report(dist, code, 2, 0.5, subset_size=1)
    assert len(smoothing.conditional_vps) == 16 and smoothing.vp_uniform >= 0


@pytest.mark.parametrize("q,n,seed", [(2, 5, 1), (2, 6, 2), (3, 3, 3), (3, 4, 4), (5, 3, 5)])
def test_subset_entropies_equal_the_marginal_reference_exactly(q, n, seed):
    dist = random_dirichlet(q, n, seed)
    for p in (2, 3, 4):
        for r in range(1, n):
            expected = max(renyi_entropy(marginal(dist, sel), p) for sel in all_subsets(n, r))
            assert subset_entropies(dist, p, r) == (renyi_entropy(dist, p), expected)


def test_subset_size_above_n_is_refused():
    # r = n + 1 selects no subset: refused, not answered with an empty result
    dist, code = random_dirichlet(2, 4, 1), sample_code(4, 2, 2, 1)
    calls = [
        lambda: smoothing_report(dist, code, 2, 0.5, subset_size=5),
        lambda: subset_leakages(dist, code, 5),
        lambda: list(conditioning_events(dist, 5)),
        lambda: subset_entropies(dist, 2, 5),
        lambda: check_entropy_gap(dist, 2, 5),
        lambda: leakage_audit(dist, code, 5, p=2, epsilon=0.25, a=2.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need 1 <= subset size < n"):
            call()


# ---------------------------------------------------------------------------
# bound calculators

def test_keysize_bound_example_regime_closed_form():
    n, q, r, p, b = 2**18, 2, 2, 2, 2
    bp = BoundParams(
        n=n, q=q, p=p, epsilon=float(n) ** (-b), a=2.0,
        data_entropy=float(n - 1), max_subset_entropy=float(r - 1),
    )
    bound = keysize_lower_bound(bp)
    assert bound == 40.0
    assert abs(bound - (r + p + b * math.log(n, q))) < 1e-12


def test_keysize_bound_epsilon_one_drops_log_term():
    bp = BoundParams(n=6, q=2, p=2, epsilon=1.0, a=2.0,
                     data_entropy=4.0, max_subset_entropy=1.0)
    assert abs(keysize_lower_bound(bp) - (6 + 2 - 4.0 + 1.0)) < 1e-12


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(n=4, q=2, p=1, epsilon=0.1, a=2.0,
                    data_entropy=3.0, max_subset_entropy=1.0)
    with pytest.raises(ValueError):
        BoundParams(n=4, q=2, p=2, epsilon=0.0, a=2.0,
                    data_entropy=3.0, max_subset_entropy=1.0)
    with pytest.raises(ValueError):
        BoundParams(n=4, q=2, p=2, epsilon=0.1, a=1.0,
                    data_entropy=3.0, max_subset_entropy=1.0)


def test_leakage_bound_oracle_value():
    bp = BoundParams(n=2**18, q=2, p=2, epsilon=1e-4, a=2.0,
                     data_entropy=float(2**18 - 1), max_subset_entropy=1.0)
    # direct formula recomputation
    delta = 2.0 * 2 ** (3 / 2) * (1 + 2 ** (-1.0)) * (1e-4) ** 0.5
    expected = 2.0 * math.log2(1 + delta)
    got = leakage_bound(bp)
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.2350) < 5e-5


def test_leakage_bound_variants_ordered():
    bp = BoundParams(n=8, q=2, p=2, epsilon=1e-3, a=2.0,
                     data_entropy=6.0, max_subset_entropy=1.5)
    both = leakage_bounds_both(bp)
    # q^{-h} < q^{-h/p} for positive h, so the theorem constant is smaller
    assert both["theorem"] < both["proof"]
    assert leakage_bound(bp) == both["theorem"]
    assert leakage_bound(bp, variant="proof") == both["proof"]
    with pytest.raises(ValueError):
        leakage_bound(bp, variant="other")


def test_leakage_bound_monotone_and_vanishing():
    values = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-12):
        bp = BoundParams(n=8, q=2, p=2, epsilon=eps, a=2.0,
                         data_entropy=6.0, max_subset_entropy=1.0)
        values.append(leakage_bound(bp))
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-4


def test_leakage_bound_requires_epsilon_below_one():
    bp = BoundParams(n=4, q=2, p=2, epsilon=1.0, a=2.0,
                     data_entropy=3.0, max_subset_entropy=1.0)
    with pytest.raises(ValueError):
        leakage_bound(bp)


def test_measured_bounds_reads_entropies_off_the_distribution():
    bp = measured_bounds(uniform(2, 4), 2, 1, 0.5, 3.0)
    assert bp == BoundParams(n=4, q=2, p=2, epsilon=0.5, a=3.0,
                             data_entropy=4.0, max_subset_entropy=1.0)


def test_relation_screen_draws_no_code_seed_outside_its_context():
    # budget H_2 - max H_2(X_i) - p is 3 - 1 - 2 = 0 for uniform(2, 3) and
    # 4 - 1 - 3 = 0 for uniform(2, 4) at p = 3: both fail the 0.05 floor
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert relation_in_context(uniform(2, 3), 2, 2.0, rng) is None
    assert relation_in_context(uniform(2, 4), 3, 2.0, rng) is None
    assert rng.bit_generator.state == before


def test_relation_screen_reports_in_context_cases():
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    reports, bp = relation_in_context(uniform(2, 5), 2, 2.0, rng)
    assert rng.bit_generator.state != before  # one code seed drawn
    assert bp.epsilon == 0.25 and math.ceil(keysize_lower_bound(bp)) == 5
    assert len(reports) == 10  # 5 coordinates x 2 values
    assert all(report["holds"] for report in reports)


def test_smoothing_threshold_values():
    assert abs(smoothing_threshold(2, 0.01) - math.sqrt(2) * math.sqrt(0.0201)) < 1e-12
    assert smoothing_threshold(2, 1e-12) < 1e-5
    for p in (2, 3, 4):
        for eps in (0.9, 0.5, 0.1, 1e-3):
            relaxed = 2 ** ((2 * p - 1) / p) * eps ** (1 / p)
            assert smoothing_threshold(p, eps) <= relaxed + TOL


# ---------------------------------------------------------------------------
# inequality checkers

def test_entropy_gap_uniform_equality():
    for q, n in [(2, 4), (3, 3)]:
        report = check_entropy_gap(uniform(q, n), 2, 1)
        assert report["holds"]
        assert abs(report["lhs"] - report["rhs"]) < 1e-12


def test_entropy_gap_product_distribution_equality():
    # independent coordinates make the conditioning vacuous
    d = bernoulli_iid(3, 0.3)
    report = check_entropy_gap(d, 2, 1)
    assert report["holds"]
    assert abs(report["lhs"] - report["rhs"]) < 1e-9


def test_conditioning_events_skip_zero_probability_values():
    d = point_mass(2, 3, (0, 1, 1))
    events = list(conditioning_events(d, 1))
    assert events == [((0,), (0,)), ((1,), (1,)), ((2,), (1,))]
    pairs = list(conditioning_events(uniform(2, 3), 2))
    assert len(pairs) == 3 * 4
    assert pairs[:4] == [((0, 1), z) for z in ((0, 0), (0, 1), (1, 0), (1, 1))]


def test_entropy_gap_random_distributions():
    rng = np.random.default_rng(505)
    for i in range(60):
        q, n = [(2, 4), (2, 5), (3, 3)][i % 3]
        r = 1 + i % 2
        p = 2 + i % 2
        d = random_dirichlet(q, n, int(rng.integers(2**31)))
        report = check_entropy_gap(d, p, r)
        assert report["holds"], report
        assert report["slack"] >= -TOL


def _laws_with_empty_slices(draw, q, n):
    """A Dirichlet draw, a copy with one whole slice X_i = v and scattered
    outcomes set to zero, or a point mass."""
    kind = draw(st.sampled_from(["dirichlet", "zero slices", "point mass"]))
    points = np.array(list(itertools.product(range(q), repeat=n)))
    if kind == "point mass":
        return point_mass(q, n, tuple(points[draw(st.integers(0, q**n - 1))].tolist()))
    probs = random_dirichlet(q, n, draw(st.integers(0, 2**31))).probs.copy()
    if kind == "zero slices":
        probs[points[:, draw(st.integers(0, n - 1))] == draw(st.integers(0, q - 1))] = 0.0
        keep = int(np.argmax(probs))
        probs[[i for i in draw(st.lists(st.integers(0, q**n - 1))) if i != keep]] = 0.0
    return Distribution(q, n, probs / probs.sum())


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_dense_kernels_match_per_event_oracle(data):
    # the slow path builds one conditional Distribution per (R, z) event
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(2, {2: 5, 3: 4, 5: 3}[q]))
    r = data.draw(st.integers(1, min(2, n - 1)))
    p = data.draw(st.sampled_from([2, 3, 4]))
    dist = _laws_with_empty_slices(data.draw, q, n)
    events = list(conditioning_events(dist, r))
    oracle_rhs = min(renyi_entropy(conditional_given(dist, sel, z), p) for sel, z in events)
    assert abs(check_entropy_gap(dist, p, r)["rhs"] - oracle_rhs) <= 1e-12
    m = data.draw(st.integers(1, n))
    gen = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                             min_size=m, max_size=m))
    code = LinearCode(gen, q)
    encoded = pushforward_encode(dist, code)
    oracle_vps = [
        ((sel, z), v_p_distance(conditional_encoded(dist, code, sel, z), encoded, p))
        for sel, z in events
    ]
    report = smoothing_report(dist, code, p, 0.5, subset_size=r)
    assert [key for key, _ in report.conditional_vps] == [key for key, _ in oracle_vps]
    for (_, vp), (_, oracle_vp) in zip(report.conditional_vps, oracle_vps):
        assert abs(vp - oracle_vp) <= 1e-12


@pytest.mark.parametrize("batch_keys", [1, infometrics._BATCH_KEYS],
                         ids=["a batch per subset", "all subsets a batch"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_tables_match_per_subset_key_loop_and_event_oracles(batch_keys, data):
    # every audit path reads _joint_tables: the leakages of a whole batch
    # equal the one-subset answers bit for bit, on both sides of the batch
    # bound and with the subset keys memoised or not
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(2, {2: 5, 3: 4, 5: 3}[q]))
    m = data.draw(st.integers(1, n))
    r = data.draw(st.integers(1, n - 1))
    dist = _laws_with_empty_slices(data.draw, q, n)
    gen = np.array(data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=m, max_size=m)))
    deficiency = data.draw(st.sampled_from(["none", "zero row", "repeated row"]))
    if deficiency == "zero row":
        gen[data.draw(st.integers(0, m - 1))] = 0
    elif deficiency == "repeated row" and m > 1:
        gen[-1] = gen[0] * data.draw(st.integers(1, q - 1)) % q
    code = LinearCode(gen, q)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(infometrics, "_BATCH_KEYS", batch_keys)
        if data.draw(st.booleans()):
            infometrics._subset_keys.cache_clear()
        leakages = subset_leakages(dist, code, r)
        assert list(leakages) == all_subsets(n, r)
        for sel, mi in leakages.items():
            assert mi == mutual_information(dist, code, sel)
            assert mi == dense_mutual_information(dist, code, sel)
            joint = _key_loop_joint(dist, code, sel)
            outer = joint.sum(axis=1)[:, None] * joint.sum(axis=0)[None, :]
            support = joint > 0
            oracle_mi = float(np.sum(joint[support] * np.log(joint[support] / outer[support])))
            assert abs(mi - oracle_mi / math.log(q)) <= 1e-12
        encoded = pushforward_encode(dist, code)
        report = smoothing_report(dist, code, 2, 0.5, subset_size=r)
    oracle_vps = [
        ((sel, z), v_p_distance(conditional_encoded(dist, code, sel, z), encoded, 2))
        for sel, z in conditioning_events(dist, r)
    ]
    assert [key for key, _ in report.conditional_vps] == [key for key, _ in oracle_vps]
    for (_, vp), (_, oracle_vp) in zip(report.conditional_vps, oracle_vps):
        assert abs(vp - oracle_vp) <= 1e-12


def test_a_batch_holds_at_most_cap_cells():
    # five 2-subsets of 2^(6-2+2) = 64 cells each under a cap of 160:
    # batches of two subsets, and the same leakages as one subset at a time
    dist = random_dirichlet(2, 6, 4, cap=160)
    code = sample_code(6, 2, 2, 9)
    assert code.coset_labels[1] == 2
    subsets = all_subsets(6, 2)[:5]
    batches = list(infometrics._joint_tables([dist], [code], subsets))
    assert [batch for _, batch, _ in batches] == [subsets[0:2], subsets[2:4], subsets[4:5]]
    assert [tables.shape for _, _, tables in batches] == [(2, 16, 4), (2, 16, 4), (1, 16, 4)]
    leakages = subset_leakages(dist, code, 2)
    assert all(leakages[sel] == mutual_information(dist, code, sel) for sel in leakages)


def test_subset_keys_are_memoised_read_only_within_the_batch_bound():
    infometrics._subset_keys.cache_clear()
    dist = random_dirichlet(2, 10, 1)
    subset_leakages(dist, sample_code(10, 7, 2, 2), 1)
    subset_leakages(dist, sample_code(10, 7, 2, 3), 1)
    info = infometrics._subset_keys.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    rows, keys = infometrics._subset_keys(2, 10, 1)
    assert keys.shape == (10, 2**10) and not keys.flags.writeable
    assert rows[(3,)] == 3 and keys[3].tolist() == [(x >> 6) & 1 for x in range(2**10)]
    # C(10, 5) * 2^10 keys are past the bound: each subset is its own
    # batch, and nothing more is memoised
    subset_leakages(dist, sample_code(10, 7, 2, 2), 5)
    assert infometrics._subset_keys.cache_info().currsize == 1


@pytest.mark.parametrize("batch_keys", [1, 2**40],
                         ids=["axis sums per subset", "one bincount for all subsets"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_entropy_gap_matches_the_per_subset_axis_sums(batch_keys, data):
    # both sides of the batch bound against the per-subset reference, on
    # laws with zero-probability outcomes, empty slices and point masses
    q = data.draw(st.sampled_from([2, 3, 5]))
    r = data.draw(st.sampled_from([1, 2]))
    n = data.draw(st.integers(r + 1, {2: 6, 3: 4, 5: 3}[q]))
    p = data.draw(st.sampled_from([2, 3, 4]))
    dist = _laws_with_empty_slices(data.draw, q, n)
    lhs = renyi_entropy(dist, p) - max(renyi_entropy(marginal(dist, sel), p)
                                       for sel in all_subsets(n, r))
    rhs = math.log(worst_conditional_power_sum(dist, p, r)) / math.log(q) / (1 - p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(infometrics, "_BATCH_KEYS", batch_keys)
        report = check_entropy_gap(dist, p, r)
    assert report["holds"] == (lhs >= rhs - infometrics.VERDICT_TOL)
    for key, expected in (("lhs", lhs), ("rhs", rhs), ("slack", lhs - rhs)):
        assert abs(report[key] - expected) <= 1e-12, key


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_conditional_laws_are_the_same_batched_or_a_subset_at_a_time(data):
    # the conditional rows of every batch equal each subset's own slices
    # J[:, z] / P(z), and every report read off them is the same whether
    # all subsets share a batch or each is its own; each v_p is the float
    # the subset's own rows give, also past 8 cosets, where numpy sums a row
    # of another memory layout in another order
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(2, {2: 5, 3: 4, 5: 3}[q]))
    r = data.draw(st.integers(1, n - 1))
    p = data.draw(st.sampled_from([2, 3]))
    dist = _laws_with_empty_slices(data.draw, q, n)
    m = data.draw(st.integers(1, n))
    code = LinearCode(data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                                         min_size=m, max_size=m)), q)
    expected = []
    for sel in all_subsets(n, r):
        joint = dense_joint(dist, code, sel)
        mass = joint.sum(axis=0)
        expected.append((joint[:, mass > 0] / mass[mass > 0]).T)
    dense = random_dirichlet(q, p + (3 if q == 2 else 2), data.draw(st.integers(0, 2**31)),
                             alpha=100.0)
    seed = data.draw(st.integers(0, 2**31))
    encoded = infometrics._coset_law(dist, code)
    vps = [float(vp) for rows in expected for vp in infometrics._vp_rows(rows, encoded, p)]
    answers = []
    for batch_keys in (1, 2**40):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infometrics, "_BATCH_KEYS", batch_keys)
            batches = list(infometrics._conditional_encoded_laws([dist], [code], r))
            assert [event[1:] for events, _ in batches for event in events] == list(
                conditioning_events(dist, r))
            assert np.array_equal(np.concatenate([rows for _, rows in batches]),
                                  np.concatenate(expected))
            answers.append((smoothing_report(dist, code, p, 0.5, subset_size=r).conditional_vps,
                            relation_in_context(dense, p, 2.0, np.random.default_rng(seed))))
    assert answers[0] == answers[1]
    assert [vp for _, vp in answers[0][0]] == vps


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_relation_reports_match_per_event_oracle(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    p = data.draw(st.sampled_from([2, 3] if q == 5 else [2, 3, 4]))
    n = p + (3 if q == 2 else 2)  # the smallest n whose budget clears the screen
    dist = random_dirichlet(q, n, data.draw(st.integers(0, 2**31)), alpha=100.0)
    seed = data.draw(st.integers(0, 2**31))
    code_seed = int(np.random.default_rng(seed).integers(0, 2**63))  # the screen's one draw
    screened = relation_in_context(dist, p, 2.0, np.random.default_rng(seed))
    assume(screened is not None)
    reports, bp = screened
    code = sample_code(n, math.ceil(keysize_lower_bound(bp)), q, code_seed)
    encoded = pushforward_encode(dist, code)
    oracle = [
        check_divergence_distance_relation(conditional_encoded(dist, code, sel, z), encoded, p)
        for sel, z in conditioning_events(dist, 1)
    ]
    assert len(reports) == len(oracle)
    for report, expected in zip(reports, oracle):
        assert report["holds"] == expected["holds"]
        for key in ("vp", "dp", "bound"):
            assert abs(report[key] - expected[key]) <= 1e-12, key


def test_smoothing_answers_a_high_rank_code_at_n_17():
    # lifted to 2^17 entries, a conditional row summed to 1 only within
    # about 1.5e-12 and this call was refused; its coset-law rows have
    # 2^(17 - rank) entries
    dist = random_dirichlet(2, 17, 7, alpha=30.0)
    code = sample_code(17, 14, 2, 114)
    report = smoothing_report(dist, code, 2, 0.25, subset_size=1)
    encoded = pushforward_encode(dist, code)
    oracle_vps = [
        ((sel, z), v_p_distance(conditional_encoded(dist, code, sel, z), encoded, 2))
        for sel, z in conditioning_events(dist, 1)
    ]
    assert [key for key, _ in report.conditional_vps] == [key for key, _ in oracle_vps]
    for (_, vp), (_, oracle_vp) in zip(report.conditional_vps, oracle_vps):
        assert abs(vp - oracle_vp) <= 1e-12
    assert abs(report.vp_uniform - v_p_distance(encoded, uniform(2, 17), 2)) <= 1e-12


def test_relation_reports_of_a_high_rank_code_at_n_17():
    # the screen keys this law at m = n = 17; lifted to 2^17 entries its
    # conditional rows were refused as not summing to 1 within 1e-12
    dist = random_dirichlet(2, 17, 2, alpha=30.0)
    code_seed = int(np.random.default_rng(2).integers(0, 2**63))
    reports, bp = relation_in_context(dist, 2, 2.0, np.random.default_rng(2))
    code = sample_code(17, math.ceil(keysize_lower_bound(bp)), 2, code_seed)
    assert code.m == 17 and code.coset_labels[1] >= 15
    encoded = pushforward_encode(dist, code)
    oracle = [
        check_divergence_distance_relation(conditional_encoded(dist, code, sel, z), encoded, 2)
        for sel, z in conditioning_events(dist, 1)
    ]
    assert len(reports) == len(oracle) == 34
    for report, expected in zip(reports, oracle):
        assert report["holds"] == expected["holds"]
        for key in ("vp", "dp", "bound"):
            assert abs(report[key] - expected[key]) <= 1e-12, key


def test_entropy_gap_normalises_a_slice_of_tiny_mass():
    # the slice X_0 = 1 holds 1e-200: its raw masses squared underflow to 0,
    # yet its conditional law (0.7, 0.1, 0.1, 0.1) is the least entropic one
    tiny = 1e-200 * np.array([0.7, 0.1, 0.1, 0.1])
    dist = Distribution(2, 3, np.concatenate([np.full(4, (1.0 - tiny.sum()) / 4), tiny]))
    oracle = min(renyi_entropy(conditional_given(dist, sel, z), 2)
                 for sel, z in conditioning_events(dist, 1))
    assert abs(oracle + math.log2(0.52)) <= 1e-12
    assert abs(check_entropy_gap(dist, 2, 1)["rhs"] - oracle) <= 1e-12


def test_conditioning_paths_build_no_per_event_distribution(monkeypatch):
    # a per-event path builds at least one Distribution per (R, z) event;
    # the dense kernels build fewer, and the smoothing and relation paths,
    # which hold every encoded law as a coset-law array, build none
    dist = random_dirichlet(2, 5, 3, alpha=100.0)
    events = {r: len(list(conditioning_events(dist, r))) for r in (1, 2)}
    built = []
    real = Distribution.__post_init__
    monkeypatch.setattr(Distribution, "__post_init__",
                        lambda self: built.append(1) or real(self))
    calls = [
        (events[2], lambda: check_entropy_gap(dist, 2, 2)["holds"]),
        (1, lambda: relation_in_context(dist, 2, 2.0, np.random.default_rng(11)) is not None),
        (1, lambda: len(smoothing_report(dist, sample_code(5, 3, 2, 4), 2, 0.5, 1)
                        .conditional_vps) == events[1]),
    ]
    for most, call in calls:
        built.clear()
        assert call()
        assert len(built) < most, (len(built), most)


def test_divergence_distance_relation_identity_case():
    d = random_dirichlet(2, 3, 3)
    report = check_divergence_distance_relation(d, d, 2)
    assert report["holds"]
    assert report["vp"] == 0.0 and report["dp"] == 0.0


def test_divergence_distance_relation_uniform_reference():
    # with a uniform second argument the relation is a theorem, not an
    # observation: scaled-norm(P) <= 1 + V_p(P, uniform)
    rng = np.random.default_rng(2020)
    for i in range(200):
        q, n = [(2, 3), (2, 4), (3, 2), (3, 3)][i % 4]
        p = 2 + i % 3
        d = random_dirichlet(q, n, int(rng.integers(2**31)))
        report = check_divergence_distance_relation(d, uniform(q, n), p)
        assert report["holds"], report


def test_divergence_distance_report_shape():
    report = check_divergence_distance_relation(uniform(2, 2), uniform(2, 2), 2)
    assert sorted(report) == ["bound", "dp", "holds", "vp"]


def test_pinsker_identity_and_random():
    d = random_dirichlet(2, 3, 9)
    report = pinsker_check(d, d)
    assert report["classical_form_holds"]
    assert report["tv"] == 0.0
    rng = np.random.default_rng(2021)
    for _ in range(300):
        a = random_dirichlet(2, 3, int(rng.integers(2**31)))
        b = random_dirichlet(2, 3, int(rng.integers(2**31)))
        rep = pinsker_check(a, b)
        assert rep["classical_form_holds"]
        assert rep["tv"] <= math.sqrt(rep["d_nats"] / 2) + TOL


def test_pinsker_of_nearly_equal_laws_takes_a_negative_kl_as_zero():
    # a law against itself perturbed by a relative 1e-12: the KL of many such
    # pairs rounds below zero, and Pinsker's square roots take it as 0 (the
    # KL itself is reported as computed)
    negative = 0
    for seed in range(300):
        a = random_dirichlet(2, 4, seed)
        wiggle = 1.0 + 1e-12 * np.random.default_rng(seed).uniform(-1.0, 1.0, 16)
        b = Distribution(2, 4, a.probs * wiggle / (a.probs * wiggle).sum())
        report = pinsker_check(a, b)
        assert report["d_base_q"] == kl_divergence(a, b)
        assert report["sum_form_holds"] and report["classical_form_holds"], (seed, report)
        negative += report["d_base_q"] < 0
    assert negative > 50, negative


def test_pinsker_near_disjoint_supports():
    t = 1e-6
    a = Distribution(2, 1, np.array([1 - t, t]))
    b = Distribution(2, 1, np.array([t, 1 - t]))
    rep = pinsker_check(a, b)
    assert rep["classical_form_holds"]
    assert rep["d_nats"] > 10


def test_triangle_audit_through_uniform_reference():
    # conditional-to-marginal distance never exceeds the sum of each
    # side's distance to the uniform reference, for every subset and value
    rng = np.random.default_rng(303)
    for _ in range(15):
        q, n, m = 2, 4, 3
        d = random_dirichlet(q, n, int(rng.integers(2**31)))
        code = sample_code(n, m, q, int(rng.integers(2**31)))
        enc = pushforward_encode(d, code)
        ref = uniform(q, n)
        for sel in all_subsets(n, 1):
            marg = marginal(d, sel)
            for z in range(q):
                if marg.probs[z] <= 0:
                    continue
                cond = conditional_encoded(d, code, sel, (z,))
                lhs = v_distance(cond, enc)
                rhs = v_distance(cond, ref) + v_distance(enc, ref)
                assert lhs <= rhs + TOL


# ---------------------------------------------------------------------------
# smoothing report

def test_smoothing_report_fields_and_bounds():
    d = random_dirichlet(2, 4, 11)
    code = sample_code(4, 3, 2, 13)
    rep = smoothing_report(d, code, 2, 0.1, subset_size=1)
    assert rep.vp_uniform >= 0
    assert len(rep.conditional_vps) > 0
    assert all(v >= 0 for _, v in rep.conditional_vps)
    assert abs(rep.threshold - smoothing_threshold(2, 0.1)) < 1e-12
    assert rep.threshold <= rep.threshold_relaxed


# ---------------------------------------------------------------------------
# stacked kernels: the one-law metrics are their one-row calls

@pytest.mark.parametrize("batch_keys", [1, 200, infometrics._BATCH_KEYS],
                         ids=["no law batched", "a few laws a batch", "default bound"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_kernels_match_one_law_calls(batch_keys, data):
    # property_sweep checks whole (laws, q^n) stacks: every row's verdicts,
    # and its floats (v_p up to numpy's array power), are the one-law call's
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(2, {2: 5, 3: 3, 5: 2}[q]))
    count = data.draw(st.integers(1, 5))
    laws = [_laws_with_empty_slices(data.draw, q, n) for _ in range(count)]
    refs = [_laws_with_empty_slices(data.draw, q, n) for _ in range(count)]
    orders = data.draw(st.lists(st.sampled_from([2, 3]), min_size=count, max_size=count))
    rows = np.array([law.probs for law in laws])
    stack_refs = np.array([ref.probs for ref in refs])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(infometrics, "_BATCH_KEYS", batch_keys)
        for r in range(1, min(n, 3)):
            reports = infometrics._entropy_gap_rows(rows, q, n, r, orders)
            for law, p, report in zip(laws, orders, reports):
                assert repr(report) == repr(check_entropy_gap(Distribution(q, n, law.probs), p, r))
    entropies = infometrics._renyi_entropy_rows(rows, q, orders)
    assert entropies == [renyi_entropy(law, p) for law, p in zip(laws, orders)]
    vs = infometrics._v_rows(rows, stack_refs).tolist()
    kls = infometrics._kl_rows(rows, stack_refs, q)
    assert vs == [v_distance(a, b) for a, b in zip(laws, refs)]
    assert kls == [kl_divergence(a, b) for a, b in zip(laws, refs)]
    assert [infometrics._pinsker_report(v, d, q) for v, d in zip(vs, kls)] == [
        pinsker_check(a, b) for a, b in zip(laws, refs)]
    for p in (2, 3):
        dps = infometrics._renyi_divergence_rows(rows, stack_refs, p, q)
        assert dps == [renyi_divergence(a, b, p) for a, b in zip(laws, refs)]
        vps = infometrics._vp_rows(rows, stack_refs, p)
        for vp, a, b in zip(vps, laws, refs):
            assert abs(vp - v_p_distance(a, b, p)) <= 1e-15 * v_p_distance(a, b, p)
    assert any(math.isinf(d) for d in kls) == any(
        (law.probs > 0).any() and (ref.probs[law.probs > 0] == 0).any() for law, ref in zip(laws, refs))
    # a stack of Dirichlet draws is the one-row calls on a generator seeded
    # the same way (0.05 takes numpy's small-alpha path), and random_dirichlet
    # is the one-row call on its own seed's generator
    seed = data.draw(st.integers(0, 2**63 - 1))
    alpha = data.draw(st.sampled_from([0.05, 1.0, 30.0]))
    stack = infometrics._dirichlet_rows(np.random.default_rng(seed), count, q ** n, alpha)
    one_rng = np.random.default_rng(seed)
    assert stack.tobytes() == b"".join(
        infometrics._dirichlet_rows(one_rng, 1, q ** n, alpha).tobytes() for _ in range(count))
    assert random_dirichlet(q, n, seed, alpha=alpha).probs.tobytes() == infometrics._dirichlet_rows(
        np.random.default_rng(seed), 1, q ** n, alpha)[0].tobytes()


def test_a_stack_is_checked_as_each_law_is():
    good = random_dirichlet(2, 3, 1).probs
    infometrics._check_laws(np.array([good, good[::-1]]))
    for bad, message in (([np.nan] + [0.0] * 7, "finite"), ([np.inf] + [0.0] * 7, "finite"),
                         ([-0.5, 1.5] + [0.0] * 6, "non-negative"), ([0.5] * 8, "sum to 1")):
        with pytest.raises(ValueError, match=message):
            Distribution(2, 3, bad)
        with pytest.raises(ValueError, match=message):
            infometrics._check_laws(np.array([good, bad]))


@pytest.mark.parametrize("num_dists, num_pairs", [(4, 20_000), (8_000, 0)],
                         ids=["20,000 pairs", "2,000 relation cases"])
def test_property_sweep_memory_stays_flat(num_dists, num_pairs):
    # the laws of a chunk of cases hold at most _BATCH_KEYS cells in all,
    # and a chunk of relation cases at most _BATCH_KEYS subset keys (several
    # chunks a sample space here), however many cases are asked for
    tracemalloc.start()
    try:
        result = infometrics.property_sweep(5, num_dists, num_pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["all_pass"]
    counts = result["counts"]
    assert (counts["entropy_gap"], counts["metric_pairs"]) == (num_dists, num_pairs)
    assert peak < 2 * 2**20, peak


def test_one_seed_draw_of_a_chunk_equals_its_scalar_draws():
    # property_sweep draws a chunk's law seeds in one call: the same seeds in
    # the same order, and the generator left where scalar draws leave it
    for seed in range(20):
        chunk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 2, 7, (150, 2), 300):
            drawn = chunk.integers(0, 2**63, size=size).ravel().tolist()
            assert drawn == [int(scalar.integers(0, 2**63)) for _ in drawn]
            assert chunk.bit_generator.state == scalar.bit_generator.state


def test_a_chunk_draws_its_laws_from_one_generator_seeded_by_its_seeds():
    # a gap or pair chunk's seeds (one draw from the sweep's rng) seed one
    # generator by their uint32 words, and it draws each sample space's
    # stacks in turn: (a, b) stacks for pairs, in case order within a space
    spaces = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
    checked = []
    check = infometrics._check_laws

    def recording(laws):
        checked.append(np.array(laws))
        check(laws)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(infometrics, "_check_laws", recording)
        result = infometrics.property_sweep(17, 12, 7)
    assert result["all_pass"]
    rng = np.random.default_rng(17)
    expected = []
    for count, draws in ((12, 1), (7, 2)):
        seeds = rng.integers(0, 2**63, size=(count, draws))
        laws_rng = np.random.default_rng(seeds.astype(np.uint64).view(np.uint32).ravel())
        for index, (q, n) in enumerate(spaces):
            for _ in range(draws):
                laws = laws_rng.dirichlet(np.ones(q ** n), size=len(range(index, count, 5)))
                expected.append(laws / laws.sum(axis=1, keepdims=True))
    stacks = iter(checked)  # in order, among the relation cases' one-law checks
    assert all(any(laws.shape == want.shape and laws.tobytes() == want.tobytes()
                   for laws in stacks) for want in expected)


@pytest.mark.parametrize("batch_keys", [1, 1000, infometrics._BATCH_KEYS],
                         ids=["a subset a batch", "a case a batch", "default bound"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), num_dists=st.integers(0, 80),
       tol=st.sampled_from([infometrics.VERDICT_TOL, -1.0]), envelope=st.sampled_from([None, 1.0]))
def test_relation_sweep_matches_one_case_calls(batch_keys, seed, num_dists, tol, envelope):
    # the sweep screens its relation cases law by law and checks each sample
    # space's codes together; the reference is its relation loop one case
    # at a time through relation_in_context. Skip decisions and report counts
    # agree, and at a tolerance of -1 (nearly every report a violation) and
    # an envelope stand-in of 1 (some cases past it) so do the verdicts and
    # the bits of every float: at p = 2, v_p and D_p take square, sqrt and
    # reciprocal, which give each row's bits in a stack of any height
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(infometrics, "VERDICT_TOL", tol)
        if envelope is not None:
            patch.setattr(infometrics, "_vp_envelope", lambda bp, variant: envelope)
        rng = np.random.default_rng(seed)
        for _ in range(num_dists):  # the entropy-gap seeds come first
            rng.integers(0, 2**63)
        count = skipped = 0
        violations = []
        for i in range(max(1, num_dists // 4)):
            q, n = [(2, 5), (2, 6), (3, 4)][i % 3]
            dist = random_dirichlet(q, n, rng.integers(0, 2**63), alpha=[20.0, 50.0, 100.0][i % 3])
            screened = relation_in_context(dist, 2, 2.0, rng)
            if screened is None:
                skipped += 1
                continue
            count += len(screened[0])
            violations += [{"check": "divergence_distance", "case": i, "report": report}
                           for report in screened[0] if not report["holds"]]
        patch.setattr(infometrics, "_BATCH_KEYS", batch_keys)
        result = infometrics.property_sweep(seed, num_dists, 0)
    assert result["counts"]["divergence_distance"] == count
    assert result["counts"]["divergence_distance_skipped"] == skipped
    assert repr([v for v in result["violations"] if v["check"] == "divergence_distance"]) == repr(
        violations)
