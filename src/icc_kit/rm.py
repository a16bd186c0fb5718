"""Reed-Muller evaluation codes RM_q(d, m): dimension, information sets,
replicated super-sets for straggler tolerance, and decode-by-interpolation.

A codeword is the evaluation table of an m-variate polynomial of total
degree at most d over all q^m points of F_q^m, in lexicographic point
order. The code dimension equals the number of reduced monomials, which
is also the download cost of the distributed-evaluation protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import _check_prime, check_cap, field_array, row_reduce
from .poly import monomial_values, monomials


def _check_rm_params(q: int, d: int, m: int) -> None:
    _check_prime(q)
    if m < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree bound must be non-negative")
    if d >= m * (q - 1):
        # beyond this bound every function on F_q^m is a codeword and the
        # evaluation code degenerates; reject rather than guess a fallback
        raise ValueError(f"degree bound must satisfy d < m(q-1), got d={d}, m={m}, q={q}")


@lru_cache(maxsize=None)
def eval_points(q: int, m: int) -> tuple:
    """All q^m points of F_q^m in lexicographic order."""
    return tuple(itertools.product(range(q), repeat=m))


def rm_dimension(q: int, d: int, m: int) -> int:
    """Number of monomials with entries below q and total degree at most d."""
    _check_rm_params(q, d, m)
    return len(monomials(m, d, q))


@dataclass(frozen=True)
class RMCode:
    q: int
    d: int
    m: int

    def __post_init__(self):
        _check_rm_params(self.q, self.d, self.m)
        # the generator matrix enumerates all q^m points; refuse before any
        # of it is allocated
        check_cap(self.dimension * self.q ** self.m)

    @property
    def monomial_basis(self) -> tuple:
        return monomials(self.m, self.d, self.q)

    @property
    def eval_points(self) -> tuple:
        return eval_points(self.q, self.m)

    @property
    def dimension(self) -> int:
        return len(self.monomial_basis)


@lru_cache(maxsize=None)
def rm_code(q: int, d: int, m: int) -> RMCode:
    return RMCode(q, d, m)


@dataclass(frozen=True)
class InfoSet:
    """Ordered points whose restricted generator matrix is invertible.

    sources, when present, maps each point to the super-set entry index
    that supplied its value during straggler recovery.
    """

    points: tuple
    sources: tuple = None


@dataclass(frozen=True)
class SuperSet:
    """Multiset of evaluation points such that, after up to
    straggler_budget losses, the survivors still contain an information
    set. replica_size marks the replicated layout built by
    trivial_superset; hand-built irregular sets leave it None and rely on
    the generic pivot search."""

    entries: tuple
    straggler_budget: int
    code_params: tuple  # (q, d, m)
    replica_size: int = None


@lru_cache(maxsize=None)
def _generator_matrix(q: int, d: int, m: int) -> np.ndarray:
    """Monomials-by-points evaluation matrix, shape (dimension, q^m)."""
    out = monomial_values(monomials(m, d, q), eval_points(q, m), q)
    out.setflags(write=False)
    return out


def _point_columns(points, q: int, m: int) -> np.ndarray:
    """Generator-matrix column of each point, coordinates reduced mod q."""
    pts = np.array(points, dtype=np.int64).reshape(-1, m) % q
    return pts @ q ** np.arange(m - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=None)
def _info_pivots(q: int, d: int, m: int) -> tuple:
    gen = _generator_matrix(q, d, m)
    pivots = row_reduce(gen, q)[1]
    # full row rank is guaranteed for d < m(q-1)
    assert len(pivots) == gen.shape[0]
    return tuple(pivots)


def information_set(rm: RMCode) -> InfoSet:
    """Pivot evaluation points of the generator under elimination in
    canonical point order; deterministic for a given (q, d, m)."""
    pts = rm.eval_points
    return InfoSet(points=tuple(pts[c] for c in _info_pivots(rm.q, rm.d, rm.m)))


def trivial_superset(rm: RMCode, stragglers: int) -> SuperSet:
    """stragglers + 1 replicas of the canonical information set; total
    size (stragglers + 1) * dimension."""
    if stragglers < 0:
        raise ValueError("straggler budget must be non-negative")
    base = information_set(rm).points
    return SuperSet(
        entries=base * (stragglers + 1),
        straggler_budget=stragglers,
        code_params=(rm.q, rm.d, rm.m),
        replica_size=len(base),
    )


def select_available_infoset(ss: SuperSet, responded) -> InfoSet:
    """Pick an information set among responding entries.

    For the replicated layout each position takes its lowest-index
    responding replica. Otherwise (or if a position lost every replica)
    fall back to a generic search: walk responding points in canonical
    order and keep those that grow the span of basis rows.
    """
    resp = sorted(set(responded))
    for idx in resp:
        if not 0 <= idx < len(ss.entries):
            raise ValueError(f"responder index {idx} out of range")
    resp_set = set(resp)
    if ss.replica_size:
        size = ss.replica_size
        replicas = len(ss.entries) // size
        sources = []
        for pos in range(size):
            chosen = next(
                (rep * size + pos for rep in range(replicas) if rep * size + pos in resp_set),
                None,
            )
            if chosen is None:
                sources = None
                break
            sources.append(chosen)
        if sources is not None:
            return InfoSet(points=ss.entries[:size], sources=tuple(sources))

    q, d, m = ss.code_params
    first_source = {}
    for idx in resp:
        first_source.setdefault(ss.entries[idx], idx)
    points = sorted(first_source)
    # a column is a pivot exactly when its point grows the span of the
    # points before it, so the pivots are the greedy choice in this order
    gen = _generator_matrix(q, d, m)
    pivots = row_reduce(gen[:, _point_columns(points, q, m)], q)[1]
    if len(pivots) < gen.shape[0]:
        raise ValueError("responding entries do not contain an information set")
    chosen = [points[c] for c in pivots]
    return InfoSet(points=tuple(chosen), sources=tuple(first_source[pt] for pt in chosen))


def decode_at_key(rm: RMCode, answers, key) -> int:
    """Interpolate the unique degree-bounded polynomial matching the
    answers on an information set, then evaluate it at the key point.

    answers: mapping from evaluation point (tuple) to value in F_q.
    Raises ValueError when the answered points do not pin the polynomial
    down (the restricted system is singular) or contradict each other.
    """
    key = field_array(key, rm.q, (rm.m,), "key")
    q, dim = rm.q, rm.dimension
    pts = sorted(answers)
    if len(pts) < dim:
        raise ValueError(f"need at least {dim} answered points, got {len(pts)}")
    gen = _generator_matrix(q, rm.d, rm.m)
    values = np.array([int(answers[z]) % q for z in pts], dtype=np.int64)
    # rows are the answered points: [basis values at the point | answer]
    system, pivots = row_reduce(
        np.concatenate([gen[:, _point_columns(pts, q, rm.m)].T, values[:, None]], axis=1), q
    )
    if dim in pivots:
        raise ValueError("answers are inconsistent with a degree-bounded polynomial")
    if pivots != list(range(dim)):
        raise ValueError("answered points do not cover an information set")
    coeffs = system[:dim, dim]
    at_key = gen[:, _point_columns(key, q, rm.m)[0]]
    return int(at_key @ coeffs % q)
