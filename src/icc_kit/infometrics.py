"""Exact probability machinery for leakage audits over F_q^n.

Everything here is enumeration based: data laws are full tables over q^n
outcomes. With a uniform key, data + key.G is uniform on the coset of the
data modulo the code's row space, so an encoded law is held and audited
exactly as its coset law, q^(n - rank) entries read through the code's one
coset labelling (LinearCode.coset_labels). The enumeration cap bounds the
entries of each table, checked just before it is allocated: a law is
admitted under a cap it keeps (Distribution.cap), and every table built
from it is checked against that cap. A request beyond it is rejected
rather than sampled: this module verifies exactly, it does not estimate.

Conventions
-----------
Logarithms are base q, so entropies and divergences are reported in
q-ary symbols and the uniform distribution on F_q^n has Renyi entropy
exactly n. Outcomes are indexed by the lexicographic order of F_q^n
(big-endian digit strings), matching the point order used by the
evaluation-code machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .codes import LinearCode, sample_code
from .gf import DEFAULT_CAP, _check_prime, cap_limit, check_cap, point_digit, subset_indices

# absolute slack for floating-point verdicts: far above accumulated
# double-precision error at cap-sized sums, far below any real effect
VERDICT_TOL = 1e-9

# _joint_tables and check_entropy_gap batch all size-r subsets in one bincount
# while their memoised subset keys number at most this many: C(n, r) * q^n
_BATCH_KEYS = 2 ** 16


def _log_q(x: float, q: int) -> float:
    if q == 2:
        return math.log2(x)
    return math.log(x) / math.log(q)


def _outcome_index(outcome, q: int, n: int) -> int:
    """Lexicographic index of a point of F_q^n; rejects a wrong length or a
    digit outside [0, q) instead of wrapping it onto another outcome."""
    digits = np.asarray(outcome)
    if (
        digits.shape != (n,)
        or digits.dtype.kind not in "iu"
        or not np.all((digits >= 0) & (digits < q))
    ):
        raise ValueError(f"outcome {outcome!r} is not a point of F_{q}^{n}")
    return int(np.ravel_multi_index(tuple(digits), (q,) * n))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability table over F_q^n, indexed lexicographically. Its q^n
    entries, and every table later built from it, are checked against cap
    (None: gf.DEFAULT_CAP at the time of the check)."""

    q: int
    n: int
    probs: np.ndarray
    cap: int = None

    def __post_init__(self):
        _check_prime(self.q)
        if self.n < 1:
            raise ValueError("need at least one coordinate")
        check_cap(self.q ** self.n, self.cap)
        table = np.asarray(self.probs, dtype=np.float64)
        if table.shape != (self.q ** self.n,):
            raise ValueError(
                f"probability table must have length q^n = {self.q ** self.n}"
            )
        _check_laws(table)
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "probs", table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.q == other.q and self.n == other.n and np.array_equal(self.probs, other.probs)

    @cached_property
    def _entropies(self) -> dict:
        """subset_entropies by (p, r); the table is read-only, so they stay valid."""
        return {}

    def prob_of(self, outcome) -> float:
        return float(self.probs[_outcome_index(outcome, self.q, self.n)])


def _check_laws(laws: np.ndarray) -> None:
    """Distribution's checks on one probability table, or on each row of a
    (laws, q^n) stack at once: finite, non-negative, and every law's sum
    within 1e-12 of 1. A table that passes the two reductions up front
    (a NaN or an infinity fails them) is valid; otherwise the checks
    are made one by one, to name the first that fails."""
    sums = np.add.reduce(laws, axis=-1)
    if (np.minimum.reduce(laws, axis=None) >= 0
            and np.maximum.reduce(np.abs(sums - 1.0), axis=None) <= 1e-12):
        return
    if not np.all(np.isfinite(laws)):
        raise ValueError("probabilities must be finite")
    if laws.min() < 0:
        raise ValueError("probabilities must be non-negative")
    raise ValueError("probabilities must sum to 1 within 1e-12")


def all_subsets(n: int, r: int) -> list:
    """Every size-r coordinate subset of n, as sorted index tuples in
    lexicographic order."""
    if not 1 <= r < n:
        raise ValueError("need 1 <= subset size < n")
    return list(itertools.combinations(range(n), r))


@lru_cache(maxsize=None)
def _dropped_axes(n: int, r: int) -> tuple:
    """For each size-r subset R in all_subsets order, the axes of a
    (laws,) + (q,)*n stack that R drops: each law's X_R marginal is the
    stack's sum over them."""
    return tuple(tuple(i + 1 for i in range(n) if i not in indices)
                 for indices in all_subsets(n, r))


def _row_powers(x: np.ndarray, orders, in_place: bool = False) -> np.ndarray:
    """x ** orders[i] for each law i along x's leading axis, each taken with
    a scalar exponent, as a one-law call takes it. in_place raises x itself,
    so no second array of x's size is held."""
    if len(set(orders)) == 1:
        if not in_place:
            return x ** orders[0]
        x **= orders[0]
        return x
    powers = x if in_place else np.empty_like(x)
    for p in set(orders):
        rows = [i for i, order in enumerate(orders) if order == p]
        powers[rows] = x[rows] ** p
    return powers


# ---------------------------------------------------------------------------
# named families

def uniform(q: int, n: int, cap=None) -> Distribution:
    size = q ** n
    check_cap(size, cap)
    return Distribution(q, n, np.full(size, 1.0 / size), cap)


def point_mass(q: int, n: int, at, cap=None) -> Distribution:
    check_cap(q ** n, cap)
    table = np.zeros(q ** n)
    table[_outcome_index(at, q, n)] = 1.0
    return Distribution(q, n, table, cap)


def bernoulli_iid(n: int, alpha: float, cap=None) -> Distribution:
    """n i.i.d. binary symbols, each equal to 1 with probability alpha."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    check_cap(2 ** n, cap)
    table = 1.0
    for i in range(n):
        table = table * np.where(point_digit(2, n, i) == 1, alpha, 1.0 - alpha)
    return Distribution(2, n, np.broadcast_to(table, (2,) * n).ravel(), cap)


def random_dirichlet(q: int, n: int, rng_seed, alpha: float = 1.0, cap=None) -> Distribution:
    """Strictly positive random table from a symmetric Dirichlet draw."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    check_cap(q ** n, cap)
    rows = _dirichlet_rows(np.random.default_rng(rng_seed), 1, q ** n, alpha)
    return Distribution(q, n, rows[0], cap)


def _dirichlet_rows(rng, count: int, size: int, alpha: float) -> np.ndarray:
    """(count, size) stack of symmetric Dirichlet draws from rng, unchecked,
    each row divided by its own sum. One call gives the bits of count
    one-row calls on the same generator (numpy draws a stack row by row, and
    a row sum adds as the one-law sum does)."""
    rows = rng.dirichlet(np.full(size, alpha), size=count)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


# ---------------------------------------------------------------------------
# entropies, distances, divergences (all base q)

def renyi_entropy(dist: Distribution, p: int) -> float:
    """Renyi entropy of integer order p >= 2, in q-ary symbols.

    Uses the 1/(1-p) prefactor, so the uniform table scores exactly n
    and a point mass scores 0.
    """
    _check_order(p)
    return _renyi_entropy_rows(dist.probs[None], dist.q, [p])[0]


def _renyi_entropy_rows(laws: np.ndarray, q: int, orders) -> list:
    """renyi_entropy of each law of a (laws, q^n) stack, law i of order
    orders[i], as floats."""
    power_sums = _row_powers(laws, orders).sum(axis=1)
    return [_log_q(float(s), q) / (1 - p) for s, p in zip(power_sums, orders)]


def _check_order(p) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise ValueError(f"order p must be an integer >= 2, got {p!r}")


def _check_same_shape(a: Distribution, b: Distribution) -> None:
    if a.q != b.q or a.n != b.n:
        raise ValueError(
            f"distributions live on different spaces: F_{a.q}^{a.n} vs F_{b.q}^{b.n}"
        )


def v_distance(dist_a: Distribution, dist_b: Distribution) -> float:
    """Sum of absolute differences (twice the total variation)."""
    _check_same_shape(dist_a, dist_b)
    return float(_v_rows(dist_a.probs, dist_b.probs))


def _v_rows(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """v_distance of each row of a table (its last axis) from ref."""
    return np.abs(rows - ref).sum(axis=-1)


def v_p_distance(dist_a: Distribution, dist_b: Distribution, p: int) -> float:
    """Scaled l_p distance q^n (mean |diff|^p)^(1/p); dominates v_distance."""
    _check_same_shape(dist_a, dist_b)
    _check_order(p)
    return float(_vp_rows(dist_a.probs, dist_b.probs, p))


def _vp_rows(rows: np.ndarray, ref: np.ndarray, p: int) -> np.ndarray:
    """v_p_distance of each row of a table (its last axis) from ref. On a
    table of several rows numpy takes the 1/p-th power as an array power,
    which may differ from one row's scalar power in the last bit."""
    size = rows.shape[-1]
    return size * (np.add.reduce(np.abs(rows - ref) ** p, axis=-1) / size) ** (1.0 / p)


def kl_divergence(dist_a: Distribution, dist_b: Distribution) -> float:
    """KL divergence in base-q units; +inf on a support violation."""
    _check_same_shape(dist_a, dist_b)
    return _kl_rows(dist_a.probs[None], dist_b.probs[None], dist_a.q)[0]


def _kl_rows(rows: np.ndarray, refs: np.ndarray, q: int) -> list:
    """kl_divergence of each row of a (count, size) table from the same row
    of refs, as floats. Each row's terms are summed over the cells where it
    is positive, in order (_row_sums), as one law's sum adds them."""
    live = rows > 0
    violated = (live & (refs == 0)).any(axis=1)
    live[violated] = False
    pa, pb = rows[live], refs[live]
    sums = _row_sums(pa * np.log(pa / pb), live.sum(axis=1))
    return [math.inf if bad else float(s) / math.log(q) for s, bad in zip(sums, violated)]


def renyi_divergence(dist_a: Distribution, dist_b: Distribution, p: int) -> float:
    """Renyi divergence of order p in base-q units; +inf on a support
    violation. Upper-bounds kl_divergence for every p >= 2."""
    _check_same_shape(dist_a, dist_b)
    _check_order(p)
    return _renyi_divergence_rows(dist_a.probs[None], dist_b.probs, p, dist_a.q)[0]


def _renyi_divergence_rows(rows: np.ndarray, ref: np.ndarray, p: int, q: int) -> list:
    """renyi_divergence of each row of a (count, size) table from ref (one
    row, or one per row), as floats."""
    live = rows > 0
    violated = (live & (ref == 0)).any(axis=1)
    power_sums = (rows ** p * np.where(live & (ref > 0), ref, 1.0) ** (1.0 - p)).sum(axis=1)
    return [
        math.inf if bad else _log_q(float(s), q) / (p - 1)
        for s, bad in zip(power_sums, violated)
    ]


# ---------------------------------------------------------------------------
# encoded laws, on the coset space

def _check_code_matches(dist: Distribution, code: LinearCode) -> None:
    if code.q != dist.q:
        raise ValueError(f"modulus mismatch: {dist.q} vs {code.q}")
    if code.n != dist.n:
        raise ValueError(f"code length {code.n} does not match n = {dist.n}")


def _coset_law(dist: Distribution, code: LinearCode) -> np.ndarray:
    """Law of data + key.G under a uniform key as its coset law: entry c is
    the mass A(c) of coset c, spread evenly over the coset's q^rank points.
    Two laws spread so (a conditional one, the uniform) compare exactly on
    their coset laws: over F_q^n, q^n (mean |a - b|^p)^(1/p) equals
    q^(n-rank) (mean_c |A - B|^p)^(1/p) and sum a^p b^(1-p) equals
    sum_c A^p B^(1-p), so v_p and D_p are the same formulas on them."""
    _check_code_matches(dist, code)
    return np.bincount(code.coset_labels[0], weights=dist.probs)


def mutual_information(dist: Distribution, code: LinearCode, indices) -> float:
    """Exact I(encoded vector; X_R) in q-ary symbols, R the given data
    coordinates (gf.subset_indices), 1 <= |R| < n.

    Equals I(coset of the data; X_R): given its coset, the encoded vector
    is uniform on it whatever X_R is. The one-subset case of
    subset_leakages: _informations of R's (coset, X_R) table.
    """
    _check_code_matches(dist, code)
    indices = subset_indices(indices, dist.n)
    if len(indices) >= dist.n:
        raise ValueError("need 1 <= subset size < n")
    (_, _, joint), = _joint_tables([dist], [code], [indices])
    return _informations(joint, dist.q)[0]


def _informations(joint: np.ndarray, q: int) -> list:
    """I(coset; X_R) of each table J of a (k, cosets, X_R values) batch, in
    q-ary symbols: the sum of J log_q(J / (coset marginal * X_R marginal))
    over J's nonzero cells in C order, with one float per table. The terms
    are built in one marginal-product buffer and then in joint, which is
    overwritten."""
    support = joint > 0
    terms = joint.sum(axis=2)[:, :, None] * joint.sum(axis=1)[:, None, :]
    np.divide(joint, terms, out=terms, where=support)
    np.log(terms, out=terms, where=support)
    np.multiply(joint, terms, out=joint, where=support)
    del terms  # freed before the nonzero terms are gathered: at most two tables live
    sums = _row_sums(joint[support], support.sum(axis=(1, 2)))
    return [float(total) / math.log(q) for total in sums]


def _row_sums(kept: np.ndarray, counts: np.ndarray):
    """Sums of consecutive runs of kept, counts[i] values in run i: each run
    adds as np.sum adds it alone (one row sum when every run is as long)."""
    if counts.min() == counts.max():
        return kept.reshape(len(counts), -1).sum(axis=1)
    return [part.sum() for part in np.split(kept, np.cumsum(counts[:-1]))]


@lru_cache(maxsize=None)
def _subset_keys(q: int, n: int, r: int) -> tuple:
    """({subset: row}, read-only (C(n, r), q^n) array): row s holds the
    lexicographic index of every point's sub-vector on the s-th subset of
    all_subsets(n, r). Built only while C(n, r) * q^n <= _BATCH_KEYS."""
    subsets = all_subsets(n, r)
    digits = np.indices((q,) * n).reshape(n, -1)
    keys = 0
    for column in np.array(subsets).T:  # the subsets' j-th coordinates
        keys = keys * q + digits[column]
    keys.setflags(write=False)
    return {indices: row for row, indices in enumerate(subsets)}, keys


def _point_keys(labels: np.ndarray, q: int, n: int, indices) -> np.ndarray:
    """label * q^r + (index of the sub-vector on indices) of every point,
    built in place on one array."""
    r = len(indices)
    keys = labels * q ** r
    grid = keys.reshape((q,) * n)
    for j, i in enumerate(indices):
        grid += point_digit(q, n, i) * q ** (r - 1 - j)
    return keys


def _joint_tables(dists: list, codes: list, subsets: list):
    """Dense (coset, X_R) tables J[c, z] = P(data in coset c, X_R = z) of
    each case, law dists[i] under codes[i] (all of one q and n, each code
    matching its law), for the given size-r subsets (sorted index tuples,
    1 <= r < n), in batches: yields (the batch's cases, its subsets, their
    (cases * subsets, q^(n - rank), q^r) tables, case-major). A batch's
    cases share one coset count; the counts come fewest cosets first, each
    one's cases in the given order and each case's subsets in the given
    order. Every path that conditions on a subset reads them.

    Each table is checked against its law's cap, and a batch holds at most
    cap cells. While C(n, r) * q^n <= _BATCH_KEYS a batch is one bincount
    over at most _BATCH_KEYS stacked keys (memoised subset keys + label *
    q^r + the subset's offset + the case's offset), all subsets of several
    cases or some subsets of one; above it each (case, subset) is its own
    batch, its keys built in place on the labels. bincount adds each cell's
    outcomes in point order, so a table holds the same floats in any batch."""
    q, n, r = dists[0].q, dists[0].n, len(subsets[0])
    cols = q ** r
    by_rank = {}
    for case, (dist, code) in enumerate(zip(dists, codes)):
        rank = code.coset_labels[1]
        check_cap(q ** (n - rank) * cols, dist.cap)
        by_rank.setdefault(rank, []).append(case)
    for rank in sorted(by_rank, reverse=True):
        cells = q ** (n - rank) * cols
        if math.comb(n, r) * q ** n > _BATCH_KEYS:
            for case in by_rank[rank]:
                labels, probs = codes[case].coset_labels[0], dists[case].probs
                for indices in subsets:
                    flat = np.bincount(_point_keys(labels, q, n, indices), weights=probs,
                                       minlength=cells)
                    yield [case], [indices], flat.reshape(1, -1, cols)
            continue
        rows, subset_keys = _subset_keys(q, n, r)
        per_batch = min(cap_limit(dists[case].cap) for case in by_rank[rank]) // cells
        per_case = max(1, min(per_batch // len(subsets), _BATCH_KEYS // (len(subsets) * q ** n)))
        for first in range(0, len(by_rank[rank]), per_case):
            cases = by_rank[rank][first:first + per_case]
            labels = np.array([codes[case].coset_labels[0] for case in cases])[:, None, :] * cols
            probs = np.array([dists[case].probs for case in cases])
            for start in range(0, len(subsets), per_batch):
                batch = subsets[start:start + per_batch]
                keys = labels + subset_keys[[rows[indices] for indices in batch]]
                count = len(cases) * len(batch)
                keys += np.arange(0, count * cells, cells).reshape(len(cases), len(batch), 1)
                weights = np.repeat(probs, len(batch), axis=0)  # case-major, as the keys
                flat = np.bincount(keys.ravel(), weights=weights.ravel(), minlength=count * cells)
                yield cases, batch, flat.reshape(count, -1, cols)


def _conditional_encoded_laws(dists: list, codes: list, r: int):
    """Exact law of data + key.G given X_R = z, for each case (law dists[i]
    under codes[i]), every size-r subset R and every z of positive
    probability, a _joint_tables batch at a time: yields (the batch's
    (case, R, z) events, one coset-law row per event (_coset_law)), each
    case's events in lexicographic order of R, then z. The row of (R, z) is
    J[:, z] / P(z) off R's (coset, X_R) table, which the cap admitted. A
    batch's rows are one gather into a C-ordered (events, cosets) array, so
    numpy sums each row as it sums one subset's rows alone. No Distribution
    is built (tests/oracles.py holds the per-event reference over F_q^n)."""
    values = list(itertools.product(range(dists[0].q), repeat=r))
    for cases, batch, tables in _joint_tables(dists, codes, all_subsets(dists[0].n, r)):
        mass = tables.sum(axis=1)
        which, live = np.nonzero(mass > 0)
        rows = tables[which, :, live] / mass[which, live][:, None]
        if rows.min() < 0 or (np.abs(rows.sum(axis=1) - 1.0) > 1e-12).any():
            raise ValueError("a conditional encoded law is not a probability table")
        k = len(batch)
        events = [(cases[s // k], batch[s % k], values[z])
                  for s, z in zip(which.tolist(), live.tolist())]
        yield events, rows


# ---------------------------------------------------------------------------
# key-size and leakage bound calculators

@dataclass(frozen=True)
class BoundParams:
    """Inputs to the key-size and leakage bound formulas.

    data_entropy is the order-p Renyi entropy of the data law and
    max_subset_entropy the largest order-p entropy among the audited
    sub-vectors, both in q-ary symbols. epsilon is the smoothing target
    (the leakage bound derivation additionally needs epsilon < 1) and
    a > 1 trades ensemble failure probability 1/a against bound size.
    """

    n: int
    q: int
    p: int
    epsilon: float
    a: float
    data_entropy: float
    max_subset_entropy: float

    def __post_init__(self):
        _check_prime(self.q)
        _check_order(self.p)
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        if not self.a > 1:
            raise ValueError("a must exceed 1")
        if self.max_subset_entropy < 0:
            raise ValueError("entropies are non-negative")


def keysize_lower_bound(bp: BoundParams) -> float:
    """Smallest real key length meeting the ensemble guarantee:
    n + p + log_q(1/epsilon) - data_entropy + max_subset_entropy.
    Callers take the ceiling for an integer key length."""
    return (
        bp.n
        + bp.p
        - _log_q(bp.epsilon, bp.q)
        - bp.data_entropy
        + bp.max_subset_entropy
    )


def _vp_envelope(bp: BoundParams, variant: str) -> float:
    """Ensemble envelope a 2^((2p-1)/p) factor epsilon^(1/p) on the v_p
    distance between a conditional encoded law and the unconditioned one."""
    if variant == "theorem":
        factor = 1.0 + bp.q ** (-bp.max_subset_entropy)
    elif variant == "proof":
        factor = 1.0 + bp.q ** (-bp.max_subset_entropy / bp.p)
    else:
        raise ValueError(f"variant must be 'theorem' or 'proof', got {variant!r}")
    return bp.a * 2 ** ((2 * bp.p - 1) / bp.p) * factor * bp.epsilon ** (1.0 / bp.p)


def leakage_bound(bp: BoundParams, variant: str = "theorem") -> float:
    """Confidentiality bound on max mutual information, q-ary symbols:
    (p/(p-1)) log_q(1 + envelope).

    Two published constant factors circulate for the same bound; the
    "theorem" variant uses (1 + q^-H) and the "proof" variant
    (1 + q^-(H/p)), with H = max_subset_entropy. Both are monotone in
    epsilon and vanish as epsilon goes to 0.
    """
    if not bp.epsilon < 1:
        raise ValueError("the leakage bound derivation requires epsilon < 1")
    return bp.p / (bp.p - 1) * _log_q(1.0 + _vp_envelope(bp, variant), bp.q)


def leakage_bounds_both(bp: BoundParams) -> dict:
    return {variant: leakage_bound(bp, variant) for variant in ("theorem", "proof")}


def smoothing_threshold(p: int, epsilon: float) -> float:
    """Guaranteed v_p distance to uniform once the key is long enough:
    2^((p-1)/p) ((1+epsilon)^p - 1)^(1/p)."""
    _check_order(p)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 2 ** ((p - 1) / p) * ((1 + epsilon) ** p - 1) ** (1.0 / p)


# ---------------------------------------------------------------------------
# the audit loop: every caller that measures leakage goes through these

def subset_entropies(dist: Distribution, p: int, r: int) -> tuple:
    """Measured entropy inputs of BoundParams: (order-p entropy of the data
    law, largest order-p entropy among its size-r marginals). Computed once
    per distribution: an audit of many codes over one law reuses them. Each
    marginal is a sum over the dropped axes, and their power sums are taken
    from one stacked array; no Distribution is built for a marginal."""
    if (p, r) not in dist._entropies:
        full = renyi_entropy(dist, p)
        (max_subset,) = _max_subset_entropies(dist.probs[None], dist.q, dist.n, r, [p])
        dist._entropies[p, r] = full, max_subset
    return dist._entropies[p, r]


def _max_subset_entropies(laws: np.ndarray, q: int, n: int, r: int, orders) -> list:
    """Largest order-p entropy among the size-r marginals of each law of a
    (laws, q^n) stack, law i at order p = orders[i]. A marginal is the law's
    sum over the axes its subset drops, one sum per subset for the stack."""
    shaped = laws.reshape((len(laws),) + (q,) * n)
    marginals = np.array([shaped.sum(axis=drop) for drop in _dropped_axes(n, r)])
    # (subsets, laws, q^r) with the laws leading, for their orders
    flat = marginals.reshape(len(marginals), len(laws), -1).swapaxes(0, 1)
    # the entropy falls as the power sum rises: the largest is the smallest sum's
    smallest = _row_powers(flat, orders).sum(axis=2).min(axis=1)
    return [_log_q(float(s), q) / (1 - p) for s, p in zip(smallest, orders)]


def measured_bounds(dist: Distribution, p: int, r: int, epsilon: float, a: float) -> BoundParams:
    """BoundParams for dist at its measured entropies (subset_entropies)."""
    data_entropy, max_subset_entropy = subset_entropies(dist, p, r)
    return BoundParams(n=dist.n, q=dist.q, p=p, epsilon=epsilon, a=a,
                       data_entropy=data_entropy, max_subset_entropy=max_subset_entropy)


def subset_leakages(dist: Distribution, code: LinearCode, r: int) -> dict:
    """Exact I(encoded vector; X_R) for every size-r coordinate subset R,
    keyed by R's indices in lexicographic subset order; each value equals
    mutual_information(dist, code, R)."""
    subsets = all_subsets(dist.n, r)
    _check_code_matches(dist, code)
    leakages = {}
    for _, batch, tables in _joint_tables([dist], [code], subsets):
        leakages.update(zip(batch, _informations(tables, dist.q)))
    return leakages


def leakage_audit(
    dist: Distribution,
    code: LinearCode,
    subset_size: int,
    *,
    p: int,
    epsilon: float,
    a: float,
) -> dict:
    """Exact leakage of one encoder against the bound calculators.

    Measures I(encoded; selected coordinates) for every coordinate subset
    of the given size (the adversary sees the whole encoded vector), then
    compares the maximum against both variants of the leakage bound
    computed from the measured entropies.
    """
    bp = measured_bounds(dist, p, subset_size, epsilon, a)
    bounds = leakage_bounds_both(bp)
    per_subset = [
        {"indices": indices, "mi": mi}
        for indices, mi in subset_leakages(dist, code, subset_size).items()
    ]
    max_mi = max(row["mi"] for row in per_subset)
    return {
        "subset_size": subset_size,
        "p": p,
        "epsilon": epsilon,
        "a": a,
        "key_length": code.m,
        "keysize_bound": keysize_lower_bound(bp),
        "data_entropy": bp.data_entropy,
        "max_subset_entropy": bp.max_subset_entropy,
        "per_subset": per_subset,
        "max_mi": max_mi,
        "epsilon_c": bounds,
        "passes": {
            variant: bool(max_mi <= bound + VERDICT_TOL)
            for variant, bound in bounds.items()
        },
    }


@dataclass(frozen=True)
class SmoothingReport:
    """Measured smoothing quality of one code against its targets."""

    p: int
    epsilon: float
    vp_uniform: float
    conditional_vps: tuple  # ((indices, z), v_p(conditional encoded, encoded)) pairs
    threshold: float
    threshold_relaxed: float


def smoothing_report(
    dist: Distribution,
    code: LinearCode,
    p: int,
    epsilon: float,
    subset_size: int = None,
) -> SmoothingReport:
    """Measure v_p(encoded law, uniform) and, when subset_size is given,
    v_p of each conditional encoded law against the unconditioned one,
    each exactly, on the coset laws (_coset_law)."""
    encoded = _coset_law(dist, code)
    conditionals = ()
    if subset_size is not None:
        conditionals = tuple(
            ((indices, z), float(vp))
            for events, rows in _conditional_encoded_laws([dist], [code], subset_size)
            for (_, indices, z), vp in zip(events, _vp_rows(rows, encoded, p))
        )
    relaxed = 2 ** ((2 * p - 1) / p) * epsilon ** (1.0 / p) if epsilon < 1 else math.inf
    return SmoothingReport(
        p=p,
        epsilon=epsilon,
        vp_uniform=float(_vp_rows(encoded, 1.0 / encoded.size, p)),
        conditional_vps=conditionals,
        threshold=smoothing_threshold(p, epsilon),
        threshold_relaxed=relaxed,
    )


# ---------------------------------------------------------------------------
# relation checkers

def check_entropy_gap(dist: Distribution, p: int, r: int) -> dict:
    """Verify that the entropy gap dominates the worst conditional entropy:

        H_p(X) - max_R H_p(X_R) >= min_{R,z} H_p(X | X_R = z)

    over every size-r coordinate subset R and every value z the subset
    attains with positive probability. Returns lhs, rhs, slack, holds.

    H_p(X | X_R = z) falls as the power sum of the conditional law rises,
    so rhs is taken from the largest power sum over all (R, z). Each slice
    is normalised before its power is taken: raising the raw masses of a
    slice of mass 1e-200 would underflow to 0. While C(n, r) * q^n <=
    _BATCH_KEYS (the bound _joint_tables batches under), every (R, z) mass
    and every slice power sum is one bincount over the memoised subset keys;
    above it each X_R marginal, and each slice's power sum, is a sum over
    the axes R drops, so no key array is built.
    """
    _check_order(p)
    full_entropy, max_subset = subset_entropies(dist, p, r)
    (worst,) = _worst_conditional_sums(dist.probs[None], dist.q, dist.n, r, [p])
    return _gap_report(full_entropy, max_subset, worst, dist.q, p)


def _entropy_gap_rows(laws: np.ndarray, q: int, n: int, r: int, orders) -> list:
    """check_entropy_gap of each law of a (laws, q^n) stack, law i at order
    orders[i]."""
    return [
        _gap_report(full_entropy, max_subset, worst, q, p)
        for full_entropy, max_subset, worst, p in zip(
            _renyi_entropy_rows(laws, q, orders), _max_subset_entropies(laws, q, n, r, orders),
            _worst_conditional_sums(laws, q, n, r, orders), orders)
    ]


def _worst_conditional_sums(laws: np.ndarray, q: int, n: int, r: int, orders) -> list:
    """Largest power sum of a normalised slice, over every (R, z), of each law
    of a (laws, q^n) stack, law i at order orders[i]. While one law's tiled
    subset keys, C(n, r) q^n, are within _BATCH_KEYS, a batch of at most
    _BATCH_KEYS such keys is one bincount: subset keys + the subset's offset
    + the law's offset, each law weighted by its own table tiled once per
    subset, so each (law, R, z) bin adds its points in point order, as a
    one-law batch does."""
    count = math.comb(n, r)
    cells = count * q ** n
    if cells > _BATCH_KEYS:
        return [_worst_conditional_sum(law.reshape((1,) + (q,) * n), p, r)
                for law, p in zip(laws, orders)]
    bins = count * q ** r
    keys = (_subset_keys(q, n, r)[1] + np.arange(0, bins, q ** r)[:, None]).ravel()
    per_batch = _BATCH_KEYS // cells
    worst = []
    for start in range(0, len(laws), per_batch):
        batch = laws[start:start + per_batch]
        stacked = (keys + np.arange(0, len(batch) * bins, bins)[:, None]).ravel()
        scaled = np.tile(batch, count)  # each law's table, once per subset
        mass = np.bincount(stacked, weights=scaled.ravel())
        scaled /= np.where(mass > 0, mass, 1.0)[stacked].reshape(scaled.shape)
        _row_powers(scaled, orders[start:start + per_batch], in_place=True)
        sums = np.bincount(stacked, weights=scaled.ravel(), minlength=len(batch) * bins)
        worst.extend(sums.reshape(len(batch), bins).max(axis=1).tolist())
    return worst


def _worst_conditional_sum(shaped: np.ndarray, p: int, r: int) -> float:
    """_worst_conditional_sums of one (1,) + (q,)*n law above the batch bound:
    each X_R marginal, and each slice's power sum, is a sum over the axes R
    drops, so no key array is built."""
    worst = 0.0
    for drop in _dropped_axes(shaped.ndim - 1, r):
        mass = shaped.sum(axis=drop, keepdims=True)
        scaled = shaped / np.where(mass > 0, mass, 1.0)
        worst = max(worst, float((scaled ** p).sum(axis=drop).max()))
    return worst


def _gap_report(full_entropy: float, max_subset: float, worst: float, q: int, p: int) -> dict:
    """check_entropy_gap's report from subset_entropies and the worst power sum."""
    rhs = _log_q(worst, q) / (1 - p)
    lhs = full_entropy - max_subset
    return {
        "lhs": lhs,
        "rhs": rhs,
        "slack": lhs - rhs,
        "holds": lhs >= rhs - VERDICT_TOL,
    }


def check_divergence_distance_relation(
    dist_a: Distribution, dist_b: Distribution, p: int
) -> dict:
    """With delta = v_p(a, b), check the divergence cap
    D_p(a || b) <= (p/(p-1)) log_q(1 + delta).

    Validated here in the usage context that matters for the audits: the
    second argument is a strictly positive (smoothed) law. Raw values are
    reported so a violation is inspectable rather than silently asserted.
    """
    vps = np.array([v_p_distance(dist_a, dist_b, p)])
    dps = np.array([renyi_divergence(dist_a, dist_b, p)])
    return _relation_report(vps, dps, *_relation_verdicts(vps, dps, p, dist_a.q), 0)


def _relation_verdicts(vps: np.ndarray, dps: np.ndarray, p: int, q: int) -> tuple:
    """(bounds, holds) arrays of check_divergence_distance_relation over rows
    with these v_p and D_p values; each bound is taken from its own float."""
    bounds = np.array([p / (p - 1) * _log_q(1 + vp, q) for vp in vps.tolist()])
    return bounds, dps <= bounds + VERDICT_TOL


def _relation_report(vps, dps, bounds, holds, row: int) -> dict:
    return {"vp": float(vps[row]), "dp": float(dps[row]), "bound": float(bounds[row]),
            "holds": bool(holds[row])}


def _relation_screen(dist: Distribution, p: int, a: float):
    """(bp, key length m) where the divergence-distance relation is claimed:
    budget H_p(X) - max_i H_p(X_i) - p > 0.05, epsilon = min(q^-budget,
    1/2) and 1 <= m = ceil(keysize_lower_bound(bp)) <= n; None outside."""
    bp = measured_bounds(dist, p, 1, 1.0, a)
    budget = bp.data_entropy - bp.max_subset_entropy - p
    if budget <= 0.05:
        return None
    bp = replace(bp, epsilon=min(float(dist.q) ** (-budget), 0.5))
    m = math.ceil(keysize_lower_bound(bp))
    return (bp, m) if 1 <= m <= dist.n else None


def _relation_checks(dists: list, codes: list, bps: list, p: int) -> tuple:
    """The divergence-distance relation of each single-coordinate
    conditional encoded law against the encoded law, for each case: law
    dists[i] under codes[i] at bps[i], all of one q and n. Returns (each
    case's event count, whether each case's v_p are all within its ensemble
    envelope, then vps, dps, bounds, holds over every (i, z) event, case by
    case in order). Each coset count's rows take one _vp_rows and one
    _renyi_divergence_rows call."""
    q = dists[0].q
    encoded = [_coset_law(dist, code) for dist, code in zip(dists, codes)]
    owners, vps, dps = [], [], []
    for events, rows in _conditional_encoded_laws(dists, codes, 1):
        owner = [case for case, _, _ in events]
        refs = np.array([encoded[case] for case in owner])
        owners += owner
        vps.append(_vp_rows(rows, refs, p))
        dps += _renyi_divergence_rows(rows, refs, p, q)
    order = np.argsort(owners, kind="stable")
    vps, dps = np.concatenate(vps)[order], np.array(dps)[order]
    counts = np.bincount(owners, minlength=len(dists))
    envelopes = [_vp_envelope(bp, "proof") for bp in bps]
    in_context = np.maximum.reduceat(vps, np.cumsum(counts) - counts) <= envelopes
    return (counts, in_context, vps, dps) + _relation_verdicts(vps, dps, p, q)


def relation_in_context(dist: Distribution, p: int, a: float, rng):
    """check_divergence_distance_relation of each single-coordinate
    conditional encoded law against the encoded law, where the relation is
    claimed (_relation_screen) and every v_p is within the ensemble
    envelope: the one-case call of the sweep's _relation_checks. Returns
    (reports, bp), or None outside that context; the code seed is drawn
    from rng only once the screen passes."""
    screened = _relation_screen(dist, p, a)
    if screened is None:
        return None
    bp, m = screened
    code = sample_code(dist.n, m, dist.q, int(rng.integers(0, 2 ** 63)))
    (count,), (in_context,), *checked = _relation_checks([dist], [code], [bp], p)
    if not in_context:
        return None
    return [_relation_report(*checked, row) for row in range(count)], bp


def pinsker_check(dist_a: Distribution, dist_b: Distribution) -> dict:
    """Evaluate both renderings of Pinsker's inequality.

    The sum form compares v = sum |a - b| against sqrt(D/2) with D in
    base-q units; its constant is not scale-correct for q > 2, so it is
    reported, not asserted. The classical form, total variation against
    sqrt(D_nats / 2), must always hold.
    """
    return _pinsker_report(v_distance(dist_a, dist_b), kl_divergence(dist_a, dist_b), dist_a.q)


def _pinsker_report(v: float, d_base_q: float, q: int) -> dict:
    (tv,), (d_nats,), (sum_holds,), (classical_holds,) = _pinsker_rows(
        np.array([v]), np.array([d_base_q]), q)
    return {
        "v_sum": v,
        "d_base_q": d_base_q,
        "sum_form_holds": bool(sum_holds),
        "tv": float(tv),
        "d_nats": float(d_nats),
        "classical_form_holds": bool(classical_holds),
    }


def _pinsker_rows(vs: np.ndarray, kls: np.ndarray, q: int) -> tuple:
    """(tv, d_nats, sum-form verdict, classical-form verdict) arrays of
    pinsker_check over rows with these v and base-q KL values; each square
    root is math.sqrt's of its own float, a KL that rounds below zero taken
    as 0 (two nearly equal laws)."""
    tvs = vs / 2.0
    d_nats = kls * math.log(q)
    return (tvs, d_nats,
            vs <= np.array([math.sqrt(max(d, 0.0) / 2.0) for d in kls.tolist()]) + VERDICT_TOL,
            tvs <= np.array([math.sqrt(max(d, 0.0) / 2.0) for d in d_nats.tolist()]) + VERDICT_TOL)


# ---------------------------------------------------------------------------
# the property sweep: metrics-check runs it

@lru_cache(maxsize=None)
def _uniform_entropy_gap(q: int, n: int, p: int) -> dict:
    """check_entropy_gap of uniform(q, n) at subset size 1; callers copy it."""
    return check_entropy_gap(uniform(q, n), p, 1)


@lru_cache(maxsize=None)
def _uniform_entropy(q: int, n: int, p: int) -> float:
    """renyi_entropy of uniform(q, n): n, within rounding."""
    return renyi_entropy(uniform(q, n), p)


def property_sweep(seed: int, num_dists: int, num_pairs: int) -> dict:
    """Check the entropy gap, Pinsker and the distance/divergence relations
    on random Dirichlet laws over five small sample spaces; returns counts,
    violations (in case order), all_pass and seed.

    One rng, seeded by seed, gives every seed in this order: a seed per
    entropy-gap case, then (a, b) per pair, then the relation cases' laws,
    each followed by its code seed once its screen passes (_relation_screen).
    Cases are handled a chunk at a time. A gap or pair chunk's seeds are one
    draw and seed one generator, which draws the chunk's laws per sample
    space into one (laws, q^n) stack each; the row-wise kernels check them,
    a chunk's stacks at most _BATCH_KEYS cells in all. A relation chunk is
    screened law by law and then checked a sample space at a time
    (_relation_checks), at most _BATCH_KEYS subset keys in all. So memory
    does not grow with the counts."""
    rng = np.random.default_rng(seed)
    spaces = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
    chunk = len(spaces) * max(1, _BATCH_KEYS // (2 * sum(q ** n for q, n in spaces)))
    found = {}  # case -> its violations, a chunk at a time
    violations = []

    def stacks(cases, draws: int):
        """(space, its cases, one checked stack per draw of a case) for each
        space with cases among them. The chunk's seeds, drawn from rng in
        case order, seed one generator (by their uint32 words, which
        SeedSequence takes as one array rather than an int at a time), and
        it draws every stack of the chunk, space by space."""
        seeds = rng.integers(0, 2 ** 63, size=(len(cases), draws))
        laws_rng = np.random.default_rng(seeds.astype(np.uint64).view(np.uint32).ravel())
        for index, (q, n) in enumerate(spaces):
            mine = [k for k, case in enumerate(cases) if case % len(spaces) == index]
            if not mine:
                continue
            laws = [_dirichlet_rows(laws_rng, len(mine), q ** n, 1.0) for _ in range(draws)]
            for stack in laws:
                _check_laws(stack)
            yield (q, n), [cases[k] for k in mine], laws

    def flush(cases):
        violations.extend(v for case in cases for v in found.pop(case, []))

    for start in range(0, num_dists, chunk):
        cases = range(start, min(start + chunk, num_dists))
        for (q, n), mine, (laws,) in stacks(cases, 1):
            for r in (1, 2):  # r = 1 + case % 2, p = 2 + (case // 2) % 2
                rows = [row for row, case in enumerate(mine) if 1 + case % 2 == r]
                if not rows:
                    continue
                orders = [2 + (mine[row] // 2) % 2 for row in rows]
                for row, report in zip(rows, _entropy_gap_rows(laws[rows], q, n, r, orders)):
                    if not report["holds"]:
                        found[mine[row]] = [{"check": "entropy_gap", "case": mine[row],
                                             "report": report}]
        flush(cases)

    for q, n in spaces:
        report = _uniform_entropy_gap(q, n, 2)
        if abs(report["slack"]) > VERDICT_TOL:
            violations.append({"check": "entropy_gap_uniform", "space": [q, n],
                               "report": dict(report)})

    for start in range(0, num_pairs, chunk):
        cases = range(start, min(start + chunk, num_pairs))
        for (q, n), mine, (first, second) in stacks(cases, 2):
            vs, kls = _v_rows(first, second), np.array(_kl_rows(first, second, q))
            classical = _pinsker_rows(vs, kls, q)[3]
            for p in (2, 3):
                rows = [row for row, case in enumerate(mine) if 2 + case % 2 == p]
                if not rows:
                    continue
                a, b = first[rows], second[rows]
                failed = np.array([  # one row per check, one column per pair
                    vs[rows] > _vp_rows(a, b, p) + VERDICT_TOL,
                    kls[rows] > np.array(_renyi_divergence_rows(a, b, p, q)) + VERDICT_TOL,
                    ~classical[rows],
                    np.full(len(rows), abs(_uniform_entropy(q, n, p) - n) > VERDICT_TOL),
                ])
                for column in np.flatnonzero(failed.any(axis=0)).tolist():
                    case = mine[rows[column]]
                    found[case] = [{"check": check, "case": case} for check, bad in zip(
                        ("v_le_vp", "d_le_dp", "pinsker_classical", "uniform_entropy"),
                        failed[:, column]) if bad]
        flush(cases)

    relation_spaces = [(2, 5), (2, 6), (3, 4)]
    relation_cases = max(1, num_dists // 4)
    relation_chunk = len(relation_spaces) * max(
        1, _BATCH_KEYS // sum(n * q ** n for q, n in relation_spaces))
    relation_count = 0
    relation_skipped = 0
    for start in range(0, relation_cases, relation_chunk):
        cases = range(start, min(start + relation_chunk, relation_cases))
        screened = {space: [] for space in relation_spaces}
        for i in cases:
            q, n = relation_spaces[i % 3]
            alpha = [20.0, 50.0, 100.0][i % 3]
            dist = random_dirichlet(q, n, rng.integers(0, 2 ** 63), alpha=alpha)
            context = _relation_screen(dist, 2, 2.0)
            if context is None:
                relation_skipped += 1
                continue
            bp, m = context
            code = sample_code(n, m, q, int(rng.integers(0, 2 ** 63)))
            screened[q, n].append((i, dist, code, bp))
        for mine in screened.values():
            if not mine:
                continue
            which, dists, codes, bps = zip(*mine)
            counts, in_context, *checked = _relation_checks(dists, codes, bps, 2)
            relation_skipped += len(which) - int(in_context.sum())
            relation_count += int(counts[in_context].sum())
            owners = np.repeat(which, counts)
            for row in np.flatnonzero(~checked[-1] & np.repeat(in_context, counts)).tolist():
                found.setdefault(int(owners[row]), []).append(
                    {"check": "divergence_distance", "case": int(owners[row]),
                     "report": _relation_report(*checked, row)})
        flush(cases)

    return {
        "counts": {
            "entropy_gap": num_dists,
            "entropy_gap_uniform": len(spaces),
            "metric_pairs": num_pairs,
            "divergence_distance": relation_count,
            "divergence_distance_skipped": relation_skipped,
        },
        "violations": violations,
        "all_pass": not violations,
        "seed": seed,
    }
