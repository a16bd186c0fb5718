"""End-to-end distributed polynomial computation with a masked dataset.

Storage phase: the user masks the data with a random codeword
(encoded = data + key.G), uploads the masked vector, and keeps only the
key. The admin derives one share per worker by shifting the masked
vector along super-set points. Computation phase: the admin picks an
information set among the responders, only those D workers evaluate the
polynomial on their shares, and the user interpolates and evaluates at the
key, recovering the polynomial's value on the original data exactly.

The session is an in-process transcript of which side saw what, so the
separation claims (admin never holds the key, user never retains the
data) are structural properties of the records, not just conventions.
The transcript holds the shared polynomial itself (MultiPoly is
immutable) and SessionState.to_json serialises it, so a computation
phase pays nothing for a JSON form that nobody asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .codes import LinearCode, encode, key_gen, shift
from .gf import check_cap, check_sampled_field, integer_array
from .poly import MultiPoly, evaluate_batch
from .rm import SuperSet, rm_code, rm_dimension, select_available_infoset, trivial_superset


@dataclass(frozen=True)
class SchemeParams:
    """The scheme tuple: data length n over F_q, audited subsets of size
    protected_size, polynomial degree bound, and straggler budget."""

    n: int
    q: int
    protected_size: int
    degree_bound: int
    straggler_budget: int

    def __post_init__(self):
        # by integer_array's rule: floats and bools are refused, not truncated
        for name in ("n", "q", "protected_size", "degree_bound", "straggler_budget"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"scheme parameter {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        check_sampled_field(self.q)
        if not 1 <= self.protected_size < self.n:
            raise ValueError("need 1 <= protected_size < n")
        if self.degree_bound < 0:
            raise ValueError("degree bound must be non-negative")
        if self.straggler_budget < 0:
            raise ValueError("straggler budget must be non-negative")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "r": self.protected_size,
            "d": self.degree_bound,
            "S": self.straggler_budget,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SchemeParams":
        return cls(obj["n"], obj["q"], obj["r"], obj["d"], obj["S"])


@dataclass(frozen=True)
class SchemeMetrics:
    """Cost triple: worker count, download cost in F_q symbols, key length."""

    num_workers: int
    download_cost: int
    key_length: int


@dataclass
class UserRecord:
    # holds the key and public parameters only; never the data vector
    key: np.ndarray
    params: SchemeParams
    key_length: int


@dataclass
class AdminRecord:
    # everything the admin sees: masked vector, shares, super-set, code;
    # shares row i is worker i's vector, shifted by super-set entry i
    encoded: np.ndarray
    shares: np.ndarray
    superset: SuperSet
    code: LinearCode


@dataclass
class SessionState:
    user: UserRecord
    admin: AdminRecord
    metrics: SchemeMetrics
    # event dicts; a function_shared event holds its MultiPoly under "f"
    transcript: list = field(default_factory=list)
    last_answer_count: int = 0

    def to_json(self) -> dict:
        q = self.user.params.q
        return {
            "user": {
                "key": {"q": q, "elements": self.user.key.tolist()},
                "params": self.user.params.to_json(),
                "key_length": self.user.key_length,
            },
            "admin": {
                "encoded": {"q": q, "elements": self.admin.encoded.tolist()},
                "shares": [
                    {"worker_id": worker_id, "point": point, "data": {"q": q, "elements": row}}
                    for worker_id, (point, row) in enumerate(
                        zip(self.admin.superset.entries.tolist(), self.admin.shares.tolist())
                    )
                ],
                "superset": self.admin.superset.entries.tolist(),
                "code": self.admin.code.to_json(),
            },
            "transcript": [
                dict(entry, f=entry["f"].to_json()) if "f" in entry else entry
                for entry in self.transcript
            ],
        }


def plan(params: SchemeParams, key_length: int) -> SchemeMetrics:
    """Cost triple for the replicated construction at the given key length."""
    if key_length < params.protected_size:
        raise ValueError(
            f"key length {key_length} is below the protected subset size "
            f"{params.protected_size}"
        )
    if key_length > params.n:
        raise ValueError(f"key length {key_length} exceeds data length {params.n}")
    if params.degree_bound >= key_length * (params.q - 1):
        raise ValueError(
            f"degree bound {params.degree_bound} needs a longer key: "
            f"require d < m(q-1) = {key_length * (params.q - 1)}"
        )
    download = rm_dimension(params.q, params.degree_bound, key_length)
    num_workers = (params.straggler_budget + 1) * download
    # the share array (N x n) is the largest the storage phase allocates;
    # the super-set (N x m) is no larger, since m <= n
    check_cap(num_workers * params.n)
    return SchemeMetrics(
        num_workers=num_workers,
        download_cost=download,
        key_length=key_length,
    )


def storage_phase(data, params: SchemeParams, code: LinearCode, rng_seed) -> SessionState:
    """Mask the data, derive all worker shares, and return the session.

    data is n integers, validated and reduced mod q by encode. The returned session's user record holds only the key; the data
    vector is consumed here and recoverable by no record.
    """
    if code.n != params.n or code.q != params.q:
        raise ValueError("code does not match the scheme parameters")
    metrics = plan(params, code.m)
    key = key_gen(code.m, params.q, rng_seed)
    encoded = encode(data, key, code)
    rm = rm_code(params.q, params.degree_bound, code.m)
    superset = trivial_superset(rm, params.straggler_budget)
    shares = shift(encoded, superset.entries, code)
    session = SessionState(
        user=UserRecord(key=key, params=params, key_length=code.m),
        admin=AdminRecord(encoded=encoded, shares=shares, superset=superset, code=code),
        metrics=metrics,
    )
    session.transcript.append(
        {"phase": "storage", "event": "masked_upload", "n": params.n}
    )
    session.transcript.append(
        {"phase": "storage", "event": "shares_distributed", "count": len(shares)}
    )
    return session


def computation_phase(
    session: SessionState, f: MultiPoly, stragglers: Iterable[int] = ()
) -> int:
    """Run one polynomial through the session and decode its value.

    Stragglers are worker ids that stay silent; the budget is the
    session's straggler allowance. Answers are exact (workers are honest
    but possibly absent).
    """
    params = session.user.params
    ids = integer_array(list(stragglers), "straggler ids")
    if ids.ndim != 1:
        raise ValueError("straggler ids must be a flat list of worker ids")
    straggler_set = set(ids.tolist())
    num_workers = len(session.admin.shares)
    if not straggler_set.issubset(range(num_workers)):
        raise ValueError("straggler ids must be valid worker ids")
    if len(straggler_set) > params.straggler_budget:
        raise ValueError(
            f"straggler budget exceeded: {len(straggler_set)} > "
            f"{params.straggler_budget}"
        )
    if f.q != params.q or f.num_vars != params.n:
        raise ValueError("polynomial does not match the scheme parameters")
    if f.degree > params.degree_bound:
        raise ValueError(f"degree bound exceeded: {f.degree} > {params.degree_bound}")
    session.transcript.append(
        {"phase": "computation", "event": "function_shared", "f": f}
    )

    responding = [i for i in range(num_workers) if i not in straggler_set]
    session.transcript.append(
        {"phase": "computation", "event": "answers_collected", "workers": responding}
    )

    # selection reads only points, so only the chosen workers' answers,
    # distinct points in lexicographic order, are computed
    sources = select_available_infoset(session.admin.superset, responding)
    points = session.admin.superset.entries[sources]
    values = evaluate_batch(f, session.admin.shares[sources])
    session.last_answer_count = len(sources)
    session.transcript.append(
        {
            "phase": "computation",
            "event": "answer_vector_sent",
            "sources": sources.tolist(),
            "answers": {str(tuple(pt)): val for pt, val in zip(points.tolist(), values.tolist())},
        }
    )

    rm = rm_code(params.q, params.degree_bound, session.user.key_length)
    from .rm import decode_at_key

    result = decode_at_key(rm, points, values, session.user.key)
    session.transcript.append({"phase": "computation", "event": "user_decoded"})
    return result


def download_cost(session: SessionState) -> int:
    """F_q symbols the user pulled in the last computation phase."""
    if session.last_answer_count == 0:
        raise ValueError("no computation phase has run in this session")
    return session.last_answer_count

