"""Reed-Muller evaluation codes RM_q(d, m): dimension, information sets,
replicated super-sets for straggler tolerance, one straggler-selection
rule for any super-set, and decode-by-interpolation.

A codeword evaluates an m-variate polynomial of total degree at most d at
points of F_q^m; generator columns are built for the points in hand, never
for all q^m. The code dimension equals the number of reduced monomials,
which is also the download cost of the distributed-evaluation protocol.
Points are read-only (count, m) arrays of residues throughout: the
basis, the super-set entries (checked and reduced once, when the super-set
is built), and the answered points that decode takes beside their values.
Selection returns the indices of the chosen entries and runs an
elimination only when the responders miss part of the canonical
information set. Decoding on the canonical set, which is what selection
returns whenever it runs no elimination, takes Newton divided differences
over the lower set of basis exponents and runs no elimination either; only
another information set is decoded by solving its restricted system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import _check_prime, check_cap, exact_dtype, field_array, integer_array, row_reduce
from .poly import monomial_count, monomial_slots, monomial_values, monomials


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


def rm_dimension(q: int, d: int, m: int) -> int:
    """Number of basis monomials, counted without listing them."""
    _check_rm_params(q, d, m)
    return monomial_count(m, d, q)


@dataclass(frozen=True)
class RMCode:
    q: int
    d: int
    m: int

    def __post_init__(self):
        _check_rm_params(self.q, self.d, self.m)
        # the decode system, dimension x (dimension + 1), is the largest
        # array built for the code; refuse before the basis is listed
        check_cap(self.dimension ** 2)

    @property
    def dimension(self) -> int:
        return rm_dimension(self.q, self.d, self.m)


@lru_cache(maxsize=None)
def rm_code(q: int, d: int, m: int) -> RMCode:
    return RMCode(q, d, m)


@dataclass(frozen=True, eq=False)
class SuperSet:
    """Multiset of evaluation points that still contains an information
    set after the stragglers the scheme budgets for drop out. Any layout
    works with select_available_infoset; trivial_superset builds the
    replicated one. The constructor checks the entries once and keeps them
    reduced mod q as a read-only (count, m) array."""

    entries: np.ndarray
    code_params: tuple  # (q, d, m)

    def __post_init__(self):
        rm = rm_code(*self.code_params)
        entries = field_array(self.entries, rm.q, (None, rm.m), "super-set entries")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def _generator_columns(rm: RMCode, points: np.ndarray) -> np.ndarray:
    """Generator columns of the given points only: every basis monomial at
    every point, shape (dimension, number of points)."""
    return monomial_values(monomial_slots(rm.m, rm.d, rm.q), points, rm.q)


def information_set(rm: RMCode) -> np.ndarray:
    """The basis exponent vectors read as points, in lexicographic order,
    as the read-only (dimension, m) array of the basis.

    The exponents form a lower set (lowering an exponent stays in the
    basis), and a lower set is unisolvent on the grid points it names (Dyn
    & Floater, J. Approx. Theory 2014), so the restricted generator is
    invertible. These are the pivots that elimination over all of F_q^m in
    lexicographic order would find."""
    return monomials(rm.m, rm.d, rm.q)


@lru_cache(maxsize=None)
def _canonical_keys(rm: RMCode) -> tuple:
    """(weights, keys): the points of the canonical information set read as
    base-q numbers (point @ weights), which keeps lexicographic order, so
    the keys are sorted."""
    dtype = np.int64 if rm.q ** rm.m <= 2 ** 63 else object
    weights = np.array([rm.q ** j for j in reversed(range(rm.m))], dtype=dtype)
    return weights, information_set(rm).astype(dtype) @ weights


@lru_cache(maxsize=None)
def _newton_steps(rm: RMCode) -> tuple:
    """The divided-difference steps over the canonical information set, one
    (inverse of l mod q, rows, lowered rows) triple per coordinate j and
    level l up to the top exponent min(d, q - 1): the rows whose exponent
    at j is at least l, and the row of each one's exponent vector less e_j,
    which is in the basis because the basis is a lower set. Each array is
    at most dimension long, and there are m * min(d, q - 1) < dimension
    steps."""
    basis = information_set(rm)
    weights, keys = _canonical_keys(rm)
    steps = []
    for j, col in enumerate(basis.T):
        above = np.flatnonzero(col)
        lowered = np.searchsorted(keys, keys[above] - weights[j])
        for level in range(1, min(rm.d, rm.q - 1) + 1):
            at = col[above] >= level
            steps.append((pow(level, -1, rm.q), above[at], lowered[at]))
    return tuple(steps)


def _newton_decode(rm: RMCode, values: np.ndarray, key: np.ndarray) -> int:
    """The interpolant of values on the canonical information set, at the
    key. The basis exponents read as grid points form a lower set, so the
    interpolant is sum_a c_a N_a(x) in the Newton basis N_a(x) = prod_j
    prod_{i < a_j} (x_j - i), whose coefficients c are the tensor divided
    differences of the values: per coordinate and level, every row at or
    above the level takes (c - c at the row lowered by e_j) / level, the
    right-hand side read before the update."""
    q, basis = rm.q, information_set(rm)
    coefs = values.copy()
    for inv, rows, lowered in _newton_steps(rm):
        coefs[rows] = (coefs[rows] - coefs[lowered]) * inv % q
    # falling[l, j] = prod_{i < l} (key_j - i), for l up to the top exponent
    falling = np.ones((min(rm.d, rm.q - 1) + 1, rm.m), values.dtype)
    for level in range(1, len(falling)):
        falling[level] = falling[level - 1] * ((key - (level - 1)) % q) % q
    for j, col in enumerate(basis.T):
        coefs = coefs * falling[col, j] % q
    # in int64, q < 2^32 and the cap's dimension < 2^12 keep the sum exact
    return int(coefs.sum() % q)


def trivial_superset(rm: RMCode, stragglers: int) -> SuperSet:
    """stragglers + 1 replicas of the canonical information set; total
    size (stragglers + 1) * dimension."""
    if stragglers < 0:
        raise ValueError("straggler budget must be non-negative")
    return SuperSet(entries=np.tile(information_set(rm), (stragglers + 1, 1)),
                    code_params=(rm.q, rm.d, rm.m))


def select_available_infoset(ss: SuperSet, responded) -> np.ndarray:
    """Pick an information set among responding entries and return the
    indices of the entries chosen, as an int64 array; the points are
    ss.entries[sources]. Walk the distinct responding points in
    lexicographic order and keep those that grow the span of basis rows.
    Each point is sourced from its lowest responding index.

    When the responders cover the canonical information set, that set is
    the greedy choice, so it is answered without an elimination. It is the
    greedy choice over all of F_q^m: each of its points is independent of
    every point before it, and each other point depends on the canonical
    points before it, which all responded.
    """
    resp = integer_array(sorted(set(responded)), "responder indices").astype(np.int64)
    bad = resp[(resp < 0) | (resp >= len(ss.entries))]
    if bad.size:
        raise ValueError(f"responder index {bad[0]} out of range")
    rm = rm_code(*ss.code_params)
    weights, canonical = _canonical_keys(rm)
    # the distinct responding points, each from its first (lowest) index
    keys, first = np.unique(ss.entries[resp].astype(weights.dtype) @ weights, return_index=True)
    sources = resp[first]
    at = np.searchsorted(keys, canonical)
    if (at < len(keys)).all() and (keys[at] == canonical).all():
        return sources[at]
    # a column is a pivot exactly when its point grows the span of the
    # points before it, so the pivots are the greedy choice in this order
    pivots = row_reduce(_generator_columns(rm, ss.entries[sources]), rm.q)[1]
    if len(pivots) < rm.dimension:
        raise ValueError("responding entries do not contain an information set")
    return sources[pivots]


def decode_at_key(rm: RMCode, points, values, key) -> int:
    """Interpolate the unique degree-bounded polynomial matching the
    answers on an information set, then evaluate it at the key point.

    points: (count, m) evaluation points; values: the count answers in
    F_q, values[i] the answer at points[i]. A point may repeat.
    When the points are the canonical information set in its order, as
    selection returns it, decoding takes divided differences and runs no
    elimination; any other point set is solved by elimination.
    Raises ValueError when the answered points do not pin the polynomial
    down (the restricted system is singular) or contradict each other.
    """
    q, dim = rm.q, rm.dimension
    key = field_array(key, q, (rm.m,), "key")
    points = field_array(points, q, (None, rm.m), "answered points")
    if len(points) < dim:
        raise ValueError(f"need at least {dim} answered points, got {len(points)}")
    values = field_array(values, q, (len(points),), "answers")
    if len(points) == dim and (points == information_set(rm)).all():
        return _newton_decode(rm, values, key)
    cols = _generator_columns(rm, np.concatenate([points, key[None]]))
    # rows are the answered points: [basis values at the point | answer]
    system, pivots = row_reduce(np.concatenate([cols[:, :-1].T, values[:, None]], axis=1), q)
    if dim in pivots:
        raise ValueError("answers are inconsistent with a degree-bounded polynomial")
    if pivots != list(range(dim)):
        raise ValueError("answered points do not cover an information set")
    # the value at the key sums dim products of two residues
    dtype = exact_dtype(q, dim)
    return int(cols[:, -1].astype(dtype) @ system[:dim, dim].astype(dtype) % q)
