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
        if not np.all(np.isfinite(table)):
            raise ValueError("probabilities must be finite")
        if table.min() < 0:
            raise ValueError("probabilities must be non-negative")
        if abs(float(table.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
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


def all_subsets(n: int, r: int) -> list:
    """Every size-r coordinate subset of n, as sorted index tuples in
    lexicographic order."""
    if not 1 <= r < n:
        raise ValueError("need 1 <= subset size < n")
    return list(itertools.combinations(range(n), r))


@lru_cache(maxsize=None)
def _dropped_axes(n: int, r: int) -> tuple:
    """For each size-r subset R in all_subsets order, the axes of a (q,)*n
    table that R drops: the X_R marginal is the table's sum over them."""
    return tuple(tuple(i for i in range(n) if i not in indices) for indices in all_subsets(n, r))


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
    rng = np.random.default_rng(rng_seed)
    check_cap(q ** n, cap)
    table = rng.dirichlet(np.full(q ** n, alpha))
    table = table / table.sum()
    return Distribution(q, n, table, cap)


# ---------------------------------------------------------------------------
# entropies, distances, divergences (all base q)

def renyi_entropy(dist: Distribution, p: int) -> float:
    """Renyi entropy of integer order p >= 2, in q-ary symbols.

    Uses the 1/(1-p) prefactor, so the uniform table scores exactly n
    and a point mass scores 0.
    """
    _check_order(p)
    return _log_q(float(np.sum(dist.probs ** p)), dist.q) / (1 - p)


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
    return float(np.sum(np.abs(dist_a.probs - dist_b.probs)))


def v_p_distance(dist_a: Distribution, dist_b: Distribution, p: int) -> float:
    """Scaled l_p distance q^n (mean |diff|^p)^(1/p); dominates v_distance."""
    _check_same_shape(dist_a, dist_b)
    _check_order(p)
    return float(_vp_rows(dist_a.probs, dist_b.probs, p))


def _vp_rows(rows: np.ndarray, ref: np.ndarray, p: int) -> np.ndarray:
    """v_p_distance of each row of a table (its last axis) from ref."""
    return rows.shape[-1] * np.mean(np.abs(rows - ref) ** p, axis=-1) ** (1.0 / p)


def kl_divergence(dist_a: Distribution, dist_b: Distribution) -> float:
    """KL divergence in base-q units; +inf on a support violation."""
    _check_same_shape(dist_a, dist_b)
    pa = dist_a.probs
    pb = dist_b.probs
    mask = pa > 0
    if np.any(pb[mask] == 0):
        return math.inf
    return float(np.sum(pa[mask] * np.log(pa[mask] / pb[mask]))) / math.log(dist_a.q)


def renyi_divergence(dist_a: Distribution, dist_b: Distribution, p: int) -> float:
    """Renyi divergence of order p in base-q units; +inf on a support
    violation. Upper-bounds kl_divergence for every p >= 2."""
    _check_same_shape(dist_a, dist_b)
    _check_order(p)
    return _renyi_divergence_rows(dist_a.probs[None], dist_b.probs, p, dist_a.q)[0]


def _renyi_divergence_rows(rows: np.ndarray, ref: np.ndarray, p: int, q: int) -> list:
    """renyi_divergence of each row of a (count, size) table from ref, as floats."""
    live = rows > 0
    violated = np.any(live & (ref == 0), axis=1)
    power_sums = np.sum(rows ** p * np.where(live & (ref > 0), ref, 1.0) ** (1.0 - p), axis=1)
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
    (_, joint), = _joint_tables(dist, code, [indices])
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
    counts = support.sum(axis=(1, 2))
    kept = joint[support]
    if counts.min() == counts.max():  # each row sum adds its table's terms as np.sum would
        sums = kept.reshape(len(counts), -1).sum(axis=1)
    else:
        sums = [part.sum() for part in np.split(kept, np.cumsum(counts[:-1]))]
    return [float(total) / math.log(q) for total in sums]


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


def _joint_tables(dist: Distribution, code: LinearCode, subsets: list):
    """Dense (coset, X_R) tables J[c, z] = P(data in coset c, X_R = z) of the
    given size-r subsets (sorted index tuples, 1 <= r < n), for a code that
    matches dist, in batches: yields (the batch's subsets, their (k,
    q^(n - rank), q^r) tables) in the given order. Every path that
    conditions on a subset reads them.

    Each subset's table is checked against dist's cap, and a batch holds at
    most cap cells. While C(n, r) * q^n <= _BATCH_KEYS a batch is one
    bincount over stacked keys (memoised subset keys + label * q^r + the
    subset's offset); above it each subset is its own batch, its keys built
    in place on the labels. bincount adds each cell's outcomes in point
    order, so a table holds the same floats in either form."""
    labels, rank = code.coset_labels
    q, n, r = dist.q, dist.n, len(subsets[0])
    cols = q ** r
    cells = q ** (n - rank) * cols
    check_cap(cells, dist.cap)
    if math.comb(n, r) * labels.size > _BATCH_KEYS:
        for indices in subsets:
            flat = np.bincount(_point_keys(labels, q, n, indices), weights=dist.probs,
                               minlength=cells)
            yield [indices], flat.reshape(1, -1, cols)
        return
    rows, subset_keys = _subset_keys(q, n, r)
    coset_keys = labels * cols
    per_batch = max(1, cap_limit(dist.cap) // cells)
    for start in range(0, len(subsets), per_batch):
        batch = subsets[start:start + per_batch]
        keys = subset_keys[[rows[indices] for indices in batch]]
        keys += coset_keys
        keys += np.arange(0, len(batch) * cells, cells)[:, None]
        flat = np.bincount(keys.ravel(), weights=np.tile(dist.probs, len(batch)),
                           minlength=len(batch) * cells)
        yield batch, flat.reshape(len(batch), -1, cols)


def _conditional_encoded_laws(dist: Distribution, code: LinearCode, r: int):
    """Exact law of data + key.G given X_R = z for every size-r subset R and
    every z of positive probability, a _joint_tables batch at a time: yields
    (the batch's (R, z) events, one coset-law row per event (_coset_law)),
    in lexicographic order of R, then z. The row of (R, z) is J[:, z] / P(z)
    off R's (coset, X_R) table, which the cap admitted. A batch's rows are
    one gather into a C-ordered (events, cosets) array, so numpy sums each
    row as it sums one subset's rows alone. No Distribution is built
    (tests/oracles.py holds the per-event reference over F_q^n)."""
    values = list(itertools.product(range(dist.q), repeat=r))
    for batch, tables in _joint_tables(dist, code, all_subsets(dist.n, r)):
        mass = tables.sum(axis=1)
        which, live = np.nonzero(mass > 0)
        rows = tables[which, :, live] / mass[which, live][:, None]
        if rows.min() < 0 or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("a conditional encoded law is not a probability table")
        yield [(batch[s], values[z]) for s, z in zip(which, live)], rows


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
        shaped = dist.probs.reshape((dist.q,) * dist.n)
        marginals = np.stack([shaped.sum(axis=drop) for drop in _dropped_axes(dist.n, r)])
        power_sums = (marginals.reshape(len(marginals), -1) ** p).sum(axis=1)
        max_subset = max(_log_q(float(s), dist.q) / (1 - p) for s in power_sums)
        dist._entropies[p, r] = full, max_subset
    return dist._entropies[p, r]


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
    for batch, tables in _joint_tables(dist, code, subsets):
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
            (event, float(vp))
            for events, rows in _conditional_encoded_laws(dist, code, subset_size)
            for event, vp in zip(events, _vp_rows(rows, encoded, p))
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
    q, n, count = dist.q, dist.n, math.comb(dist.n, r)
    if count * q ** n <= _BATCH_KEYS:
        keys = (_subset_keys(q, n, r)[1] + np.arange(0, count * q ** r, q ** r)[:, None]).ravel()
        weights = np.tile(dist.probs, count)
        mass = np.bincount(keys, weights=weights)
        scaled = weights / np.where(mass > 0, mass, 1.0)[keys]
        worst = float(np.bincount(keys, weights=scaled ** p).max())
    else:
        shaped = dist.probs.reshape((q,) * n)
        worst = 0.0
        for drop in _dropped_axes(n, r):
            mass = shaped.sum(axis=drop, keepdims=True)
            scaled = shaped / np.where(mass > 0, mass, 1.0)
            worst = max(worst, float((scaled ** p).sum(axis=drop).max()))
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
    return _relation_report(
        v_p_distance(dist_a, dist_b, p), renyi_divergence(dist_a, dist_b, p), p, dist_a.q
    )


def _relation_report(vp: float, dp: float, p: int, q: int) -> dict:
    bound = p / (p - 1) * _log_q(1 + vp, q)
    return {"vp": vp, "dp": dp, "bound": bound, "holds": dp <= bound + VERDICT_TOL}


def relation_in_context(dist: Distribution, p: int, a: float, rng):
    """check_divergence_distance_relation of each single-coordinate
    conditional encoded law against the encoded law, where the relation is
    claimed: budget H_p(X) - max_i H_p(X_i) - p > 0.05, epsilon =
    min(q^-budget, 1/2), 1 <= m <= n at the bound, every v_p within the
    ensemble envelope. Returns (reports, bp), or None outside that context;
    the code seed is drawn from rng only once budget and m pass."""
    bp = measured_bounds(dist, p, 1, 1.0, a)
    budget = bp.data_entropy - bp.max_subset_entropy - p
    if budget <= 0.05:
        return None
    bp = replace(bp, epsilon=min(float(dist.q) ** (-budget), 0.5))
    m = math.ceil(keysize_lower_bound(bp))
    if m < 1 or m > dist.n:
        return None
    code = sample_code(dist.n, m, dist.q, int(rng.integers(0, 2 ** 63)))
    encoded = _coset_law(dist, code)
    reports = [
        _relation_report(float(vp), dp, p, dist.q)
        for _, rows in _conditional_encoded_laws(dist, code, 1)
        for vp, dp in zip(_vp_rows(rows, encoded, p),
                          _renyi_divergence_rows(rows, encoded, p, dist.q))
    ]
    if max(report["vp"] for report in reports) > _vp_envelope(bp, "proof"):
        return None
    return reports, bp


def pinsker_check(dist_a: Distribution, dist_b: Distribution) -> dict:
    """Evaluate both renderings of Pinsker's inequality.

    The sum form compares v = sum |a - b| against sqrt(D/2) with D in
    base-q units; its constant is not scale-correct for q > 2, so it is
    reported, not asserted. The classical form, total variation against
    sqrt(D_nats / 2), must always hold.
    """
    v = v_distance(dist_a, dist_b)
    d_base_q = kl_divergence(dist_a, dist_b)
    tv = v / 2.0
    d_nats = d_base_q * math.log(dist_a.q)
    return {
        "v_sum": v,
        "d_base_q": d_base_q,
        "sum_form_holds": bool(v <= math.sqrt(d_base_q / 2.0) + VERDICT_TOL),
        "tv": tv,
        "d_nats": d_nats,
        "classical_form_holds": bool(tv <= math.sqrt(d_nats / 2.0) + VERDICT_TOL),
    }
