"""Exact JSON forms of a sampled code and of a session at fixed seeds.

A refactor of how field data is held must leave these dicts unchanged,
down to every leaf being a plain Python value (so json.dumps accepts it).
The session is the one `simulate` builds, captured from its call to
storage_phase, so it is pinned after a computation phase has run on it.
"""

import json

from icc_kit import cli
from icc_kit.codes import sample_code
from icc_kit.poly import random_poly
from icc_kit.protocol import SchemeParams, computation_phase, storage_phase


def assert_plain(obj):
    """Every leaf is a JSON-native Python value, not a numpy scalar."""
    if isinstance(obj, dict):
        for value in obj.values():
            assert_plain(value)
    elif isinstance(obj, list):
        for value in obj:
            assert_plain(value)
    else:
        assert type(obj) in (int, str), (obj, type(obj))


def test_sample_code_json_is_pinned():
    small = sample_code(5, 3, 3, 2024).to_json()
    assert small == {
        "n": 5, "m": 3, "q": 3,
        "G": [[0, 2, 0, 0, 0], [0, 2, 2, 2, 2], [0, 0, 2, 0, 0]],
    }
    # entries above 2^31, at a prime whose products overflow int64
    large = sample_code(3, 2, 4294967311, 7).to_json()
    assert large == {
        "n": 3, "m": 2, "q": 4294967311,
        "G": [[2684764595, 3853503946, 3331544683], [967257519, 1289204381, 3751883492]],
    }
    for blob in (small, large):
        assert_plain(blob)
        assert json.loads(json.dumps(blob)) == blob


def test_session_json_is_pinned(monkeypatch):
    sessions = []
    storage_phase = cli.storage_phase

    def capture(*args, **kwargs):
        sessions.append(storage_phase(*args, **kwargs))
        return sessions[-1]

    monkeypatch.setattr(cli, "storage_phase", capture)
    config = {"n": 4, "q": 3, "r": 1, "d": 1, "S": 1, "m": 2, "seed": 47,
              "x": [2, 0, 1, 1], "stragglers": [1]}
    assert cli.cmd_simulate(config)[0] == 0
    blob = sessions[0].to_json()

    def share(worker_id, point, elements):
        return {"worker_id": worker_id, "point": point, "data": {"q": 3, "elements": elements}}

    assert blob == {
        "user": {
            "key": {"q": 3, "elements": [2, 1]},
            "params": {"n": 4, "q": 3, "r": 1, "d": 1, "S": 1},
            "key_length": 2,
        },
        "admin": {
            "encoded": {"q": 3, "elements": [1, 2, 0, 1]},
            "shares": [
                share(0, [0, 0], [1, 2, 0, 1]),
                share(1, [0, 1], [1, 1, 2, 0]),
                share(2, [1, 0], [0, 0, 1, 0]),
                share(3, [0, 0], [1, 2, 0, 1]),
                share(4, [0, 1], [1, 1, 2, 0]),
                share(5, [1, 0], [0, 0, 1, 0]),
            ],
            "superset": [[0, 0], [0, 1], [1, 0], [0, 0], [0, 1], [1, 0]],
            "code": {"n": 4, "m": 2, "q": 3, "G": [[1, 2, 2, 1], [0, 1, 1, 1]]},
        },
        "transcript": [
            {"phase": "storage", "event": "masked_upload", "n": 4},
            {"phase": "storage", "event": "shares_distributed", "count": 6},
            {"phase": "computation", "event": "function_shared",
             "f": {"n": 4, "q": 3, "d": 1, "terms": [
                 {"exp": [0, 0, 0, 0], "coef": 2},
                 {"exp": [0, 0, 0, 1], "coef": 1},
                 {"exp": [0, 0, 1, 0], "coef": 1},
             ]}},
            {"phase": "computation", "event": "answers_collected", "workers": [0, 2, 3, 4, 5]},
            {"phase": "computation", "event": "answer_vector_sent", "sources": [0, 4, 2],
             "answers": {"(0, 0)": 0, "(0, 1)": 1, "(1, 0)": 0}},
            {"phase": "computation", "event": "user_decoded"},
        ],
    }
    assert_plain(blob)
    assert json.loads(json.dumps(blob)) == blob


def test_transcript_serialises_each_shared_polynomial_at_scale():
    # the transcript holds the polynomials and to_json serialises them: at
    # n=90 each function_shared entry is that call's f.to_json()
    params = SchemeParams(n=90, q=5, protected_size=1, degree_bound=2, straggler_budget=1)
    session = storage_phase([i % 5 for i in range(90)], params, sample_code(90, 4, 5, 11), 13)
    shared = [random_poly(90, 2, 5, seed) for seed in (21, 22)]
    for f, stragglers in zip(shared, ([], [3])):
        computation_phase(session, f, stragglers)
    blob = session.to_json()
    entries = [e for e in blob["transcript"] if e["event"] == "function_shared"]
    assert [e["f"] for e in entries] == [f.to_json() for f in shared]
    assert_plain(blob)
    assert json.loads(json.dumps(blob)) == blob
