"""End-to-end scheme orchestration: storage, computation, costs, and the
structural privacy split between the user and admin records."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icc_kit.codes import LinearCode, key_gen, sample_code, shift
from icc_kit.infometrics import Distribution, leakage_audit, uniform
from icc_kit import protocol
from icc_kit.poly import MultiPoly, evaluate, evaluate_batch, random_poly
from icc_kit.protocol import (
    SchemeParams,
    computation_phase,
    download_cost,
    plan,
    storage_phase,
)
from icc_kit.rm import rm_dimension
from oracles import count_straggler_patterns, straggler_patterns


def make_params(n=4, q=2, r=1, d=1, S=0):
    return SchemeParams(n=n, q=q, protected_size=r, degree_bound=d, straggler_budget=S)


def test_plan_hand_case():
    metrics = plan(make_params(n=4, q=2, r=1, d=1, S=0), 3)
    assert metrics.download_cost == 4
    assert metrics.num_workers == 4
    assert metrics.key_length == 3


def test_plan_straggler_budget_scales_workers():
    base = plan(make_params(S=0), 3)
    doubled = plan(make_params(S=1), 3)
    assert doubled.num_workers == 2 * base.num_workers
    assert doubled.download_cost == base.download_cost


def test_plan_named_rejections():
    with pytest.raises(ValueError, match="protected subset"):
        plan(make_params(r=3), 2)
    with pytest.raises(ValueError, match="exceeds data length"):
        plan(make_params(n=3), 4)
    with pytest.raises(ValueError, match="d < m"):
        plan(make_params(q=2, d=2), 2)


def find_zero_key_seed(m, q):
    for seed in range(4000):
        if not key_gen(m, q, seed).any():
            return seed
    raise AssertionError("no zero-key seed in range")


def test_storage_phase_zero_key_diagnostic():
    params = make_params(n=4, q=2, r=1, d=1, S=0)
    code = sample_code(4, 2, 2, 7)
    seed = find_zero_key_seed(2, 2)
    x = [1, 0, 1, 1]
    session = storage_phase(x, params, code, seed)
    assert session.admin.encoded.tolist() == x


def test_storage_phase_share_layout():
    params = make_params(n=5, q=3, r=2, d=2, S=1)
    code = sample_code(5, 3, 3, 21)
    x = (0, 1, 2, 0, 1)
    session = storage_phase(x, params, code, 99)
    metrics = session.metrics
    assert session.admin.shares.shape == (metrics.num_workers, params.n)
    assert metrics.num_workers == (params.straggler_budget + 1) * metrics.download_cost
    for point, share in zip(session.admin.superset.entries, session.admin.shares):
        expected = shift(session.admin.encoded, point, code)
        assert share.tolist() == expected.tolist()


def test_storage_phase_validates_shapes():
    params = make_params(n=4)
    code = sample_code(4, 2, 2, 7)
    with pytest.raises(ValueError):
        storage_phase((1, 0, 1), params, code, 0)
    # data carries no modulus; a code over another field is still refused
    with pytest.raises(ValueError):
        storage_phase((1, 0, 1, 1), params, sample_code(4, 2, 3, 7), 0)
    with pytest.raises(ValueError):
        storage_phase((1.0, 0.0, 1.0, 1.0), params, code, 0)


def test_constant_function_decodes_through_any_pattern():
    params = make_params(n=4, q=2, r=1, d=1, S=1)
    code = sample_code(4, 2, 2, 17)
    x = (1, 1, 0, 1)
    f = MultiPoly.from_terms(4, 2, {(0, 0, 0, 0): 1})
    session = storage_phase(x, params, code, 31)
    n_workers = session.metrics.num_workers
    for pattern in straggler_patterns(n_workers, 1):
        assert computation_phase(session, f, pattern) == 1


@pytest.mark.parametrize("q,m,d,S", [(2, 2, 1, 1), (3, 2, 2, 1), (2, 3, 1, 2)])
def test_decode_equals_direct_evaluation_all_patterns(q, m, d, S):
    rng = np.random.default_rng(q * 100 + m * 10 + d)
    n = m + 2
    params = SchemeParams(n=n, q=q, protected_size=1, degree_bound=d, straggler_budget=S)
    code = sample_code(n, m, q, int(rng.integers(2**31)))
    x = rng.integers(0, q, n)
    f = random_poly(n, d, q, int(rng.integers(2**31)))
    session = storage_phase(x, params, code, int(rng.integers(2**31)))
    direct = evaluate(f, x)
    n_workers = session.metrics.num_workers
    for pattern in straggler_patterns(n_workers, S):
        assert computation_phase(session, f, pattern) == direct


def test_computation_phase_evaluates_only_the_selected_answers(monkeypatch):
    # decode reads D = dim RM_q(d, m) answers, so exactly D distinct shares
    # are evaluated, never the N - |stragglers| that responded
    params = make_params(n=5, q=3, r=1, d=2, S=2)
    code = sample_code(5, 3, 3, 21)
    x = (2, 0, 1, 1, 2)
    f = random_poly(5, 2, 3, 8)
    session = storage_phase(x, params, code, 5)
    dim = session.metrics.download_cost
    rows = []

    def recording(poly, points):
        rows.append(np.array(points))
        return evaluate_batch(poly, points)

    monkeypatch.setattr(protocol, "evaluate_batch", recording)
    for pattern in straggler_patterns(session.metrics.num_workers, params.straggler_budget):
        rows.clear()
        assert computation_phase(session, f, pattern) == evaluate(f, x)
        assert len(rows) == 1 and rows[0].shape == (dim, params.n)
        assert len({tuple(row) for row in rows[0].tolist()}) == dim
        sources = session.transcript[-2]["sources"]
        assert not set(sources) & set(pattern)
        assert rows[0].tolist() == session.admin.shares[sources].tolist()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_at_large_primes_matches_evaluate(data):
    # products of two residues fill int64 at 2^31 - 1 and overflow it above,
    # so decoding must sum at the exact width through any straggler pattern
    q = data.draw(st.sampled_from([2**31 - 1, 4294967311, 2**61 - 1]), label="q")
    m = data.draw(st.integers(1, 4), label="m")
    d = data.draw(st.integers(1, 3), label="d")
    S = data.draw(st.integers(0, 2), label="S")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    n = m + 1
    x = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), label="data")
    session = storage_phase(x, make_params(n=n, q=q, d=d, S=S), sample_code(n, m, q, seed), seed)
    workers = len(session.admin.shares)
    stragglers = data.draw(st.sets(st.integers(0, workers - 1), max_size=S), label="stragglers")
    f = random_poly(n, d, q, seed)
    assert computation_phase(session, f, stragglers) == evaluate(f, x)


def test_random_draws_refuse_field_orders_from_2_63():
    # numpy draws int64 field elements, so 2^64 - 59 failed with a raw
    # "high is out of bounds for int64"; each drawing entry point names the bound
    q = 2**64 - 59
    with pytest.raises(ValueError, match=r"not below 2\^63"):
        make_params(n=4, q=q)
    for draw in (lambda: sample_code(4, 2, q, 1), lambda: key_gen(2, q, 1),
                 lambda: random_poly(4, 1, q, 1)):
        with pytest.raises(ValueError, match=r"not below 2\^63"):
            draw()
    assert len(key_gen(2, 2**63 - 25, 1)) == 2  # the largest prime below the bound


def test_budget_and_degree_rejections():
    params = make_params(n=4, q=2, r=1, d=1, S=1)
    code = sample_code(4, 2, 2, 11)
    session = storage_phase((0, 0, 1, 0), params, code, 5)
    f = random_poly(4, 1, 2, 8)
    too_many = list(range(params.straggler_budget + 2))
    with pytest.raises(ValueError, match="straggler budget"):
        computation_phase(session, f, too_many)
    heavy = MultiPoly.from_terms(4, 2, {(1, 1, 0, 0): 1})
    assert heavy.degree == 2
    with pytest.raises(ValueError, match="degree bound"):
        computation_phase(session, heavy, ())


def test_download_cost_matches_dimension():
    params = make_params(n=4, q=2, r=1, d=1, S=0)
    code = sample_code(4, 3, 2, 23)
    session = storage_phase((1, 0, 0, 1), params, code, 3)
    with pytest.raises(ValueError):
        download_cost(session)  # nothing downloaded yet
    computation_phase(session, random_poly(4, 1, 2, 12), ())
    assert download_cost(session) == rm_dimension(2, 1, 3) == 4
    assert download_cost(session) < 2 ** 3  # strictly below the full table


def test_top_degree_download_cost():
    assert rm_dimension(2, 2, 3) == 2**3 - 1
    assert rm_dimension(3, 3, 2) == 3**2 - 1


def test_repeated_computation_phases_share_one_session():
    params = make_params(n=4, q=3, r=1, d=2, S=0)
    code = sample_code(4, 2, 3, 41)
    x = (2, 0, 1, 1)
    session = storage_phase(x, params, code, 43)
    for seed in (1, 2, 3):
        f = random_poly(4, 2, 3, seed)
        assert computation_phase(session, f, ()) == evaluate(f, x)


def test_recorded_polynomial_cannot_be_rewritten():
    # the transcript holds f itself until to_json, so a write through f's
    # arrays must fail rather than rewrite what the admin was shown
    session = storage_phase((1, 2, 0, 1, 2), make_params(n=5, q=3, d=2), sample_code(5, 2, 3, 3), 5)
    f = random_poly(5, 2, 3, 1)
    computation_phase(session, f, ())
    before = session.to_json()
    with pytest.raises(ValueError, match="read-only"):
        f.coefs[0] = 2
    with pytest.raises(ValueError, match="read-only"):
        f.slots[1][0, 0] = 2
    assert session.to_json() == before


def test_transcript_event_order():
    params = make_params(n=4, q=2, r=1, d=1, S=0)
    code = sample_code(4, 2, 2, 2)
    session = storage_phase((1, 0, 1, 0), params, code, 1)
    computation_phase(session, random_poly(4, 1, 2, 77), ())
    events = [entry["event"] for entry in session.transcript]
    assert events == [
        "masked_upload",
        "shares_distributed",
        "function_shared",
        "answers_collected",
        "answer_vector_sent",
        "user_decoded",
    ]


def test_session_json_separates_user_and_admin():
    params = make_params(n=4, q=2, r=1, d=1, S=0)
    code = sample_code(4, 2, 2, 19)
    x = (1, 1, 1, 0)
    session = storage_phase(x, params, code, 29)
    blob = session.to_json()
    assert set(blob["user"]) == {"key", "params", "key_length"}
    # the admin subtree must not reference the key anywhere
    assert "key" not in json.dumps(blob["admin"])
    # the user subtree retains no copy of the data vector
    assert "encoded" not in blob["user"] and "shares" not in blob["user"]
    json.dumps(blob)  # fully serializable


def test_storage_phase_refuses_share_arrays_beyond_the_cap(monkeypatch):
    # 10^9 + 1 replicas of a 3-point information set: the super-set alone
    # would take 44.7 GiB; plan refuses N x n before anything is built
    def build_superset(*args):
        raise AssertionError("the super-set was built")

    monkeypatch.setattr(protocol, "trivial_superset", build_superset)
    params = make_params(n=4, q=2, r=1, d=1, S=10**9)
    with pytest.raises(ValueError, match="exceeds cap"):
        storage_phase((0, 1, 1, 0), params, sample_code(4, 2, 2, 1), 1)
    with pytest.raises(ValueError, match="exceeds cap"):
        plan(params, 2)


def test_straggler_pattern_counting():
    patterns = list(straggler_patterns(6, 2))
    assert len(patterns) == count_straggler_patterns(6, 2) == 1 + 6 + 15
    assert patterns[0] == ()
    assert all(len(p) <= 2 for p in patterns)


def test_leakage_audit_uniform_full_rank_code():
    # every pair of columns of this generator is independent
    code = LinearCode(((1, 0, 1), (0, 1, 1)), 2)
    report = leakage_audit(
        uniform(2, 3), code, 2, p=2, epsilon=1e-3, a=2.0
    )
    assert report["max_mi"] <= 1e-9
    assert report["passes"]["theorem"] and report["passes"]["proof"]


def test_leakage_audit_detects_untouched_coordinate():
    d = Distribution(2, 2, np.array([0.5, 0.0, 0.0, 0.5]))
    code = LinearCode(((1, 0),), 2)
    report = leakage_audit(d, code, 1, p=2, epsilon=1e-3, a=2.0)
    by_subset = {entry["indices"]: entry["mi"] for entry in report["per_subset"]}
    assert by_subset[(1,)] == 1.0
    assert report["max_mi"] == 1.0
    assert not report["passes"]["theorem"]


def test_scheme_params_json_round_trip():
    params = make_params(n=6, q=3, r=2, d=2, S=1)
    blob = params.to_json()
    assert blob == {"n": 6, "q": 3, "r": 2, "d": 2, "S": 1}
    assert SchemeParams.from_json(blob) == params


@pytest.mark.parametrize("field,value", [("straggler_budget", 1.5), ("n", 6.0),
                                         ("protected_size", 1.0), ("straggler_budget", True),
                                         ("degree_bound", "2"), ("q", 3.0)])
def test_scheme_params_refuse_non_integer_fields_by_name(field, value):
    fields = {"n": 6, "q": 3, "protected_size": 1, "degree_bound": 2, "straggler_budget": 1}
    with pytest.raises(ValueError, match=f"scheme parameter {field} must be an integer"):
        SchemeParams(**dict(fields, **{field: value}))
    # numpy integers are integers, held as Python ints
    params = SchemeParams(**{name: np.int64(v) for name, v in fields.items()})
    assert params == SchemeParams(**fields) and type(params.n) is int


@pytest.mark.parametrize("ids", [[1.7], [True], ["3"], [[1]]])
def test_computation_phase_refuses_non_integer_straggler_ids(ids):
    params = make_params(n=4, q=3, r=1, d=1, S=1)
    session = storage_phase((0, 1, 2, 0), params, sample_code(4, 2, 3, 11), 5)
    f = random_poly(4, 1, 3, 8)
    with pytest.raises(ValueError, match="straggler ids"):
        computation_phase(session, f, ids)
    # integer ids, numpy ones included, still run
    assert computation_phase(session, f, [np.int64(1)]) == evaluate(f, (0, 1, 2, 0))
