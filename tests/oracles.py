"""Slow references the package is tested against, one event at a time.

The package computes every leakage and conditional law in bulk, from
dense (coset, X_R) tables built for many subsets at once, holds each
encoded law as its coset law (q^(n - rank) entries), takes each marginal
as a plain sum, and enumerates no straggler patterns. These functions
build the same objects the plain way: one (coset, X_R) table, one
marginal Distribution and one set of slice power sums per subset, each
encoded law as a Distribution over all q^n points (pushforward_encode),
one conditional Distribution per event (R, z), one straggler set per
pattern. Nothing in icc_kit imports this module.
"""

import itertools
from math import comb, log

import numpy as np

from icc_kit.codes import LinearCode
from icc_kit.gf import integer_array, point_digit, subset_indices
from icc_kit.infometrics import Distribution, _check_code_matches, _outcome_index, all_subsets


def _subset_index(q: int, n: int, indices) -> np.ndarray:
    """Lexicographic index of the selected sub-vector of every point."""
    digits = [point_digit(q, n, i) for i in indices]
    return np.broadcast_to(np.ravel_multi_index(digits, (q,) * len(digits)), (q,) * n).ravel()


def marginal(dist: Distribution, indices) -> Distribution:
    """Marginal law of the coordinates in indices, under dist's cap."""
    indices = subset_indices(indices, dist.n)
    shaped = dist.probs.reshape((dist.q,) * dist.n)
    drop = tuple(i for i in range(dist.n) if i not in indices)
    return Distribution(dist.q, len(indices), shaped.sum(axis=drop).ravel(), dist.cap)


def dense_joint(dist: Distribution, code: LinearCode, indices) -> np.ndarray:
    """R's own (coset, X_R) table J[c, z], one bincount over every point."""
    labels, rank = code.coset_labels
    cols = dist.q ** len(indices)
    joint = np.bincount(labels * cols + _subset_index(dist.q, dist.n, indices),
                        weights=dist.probs, minlength=dist.q ** (dist.n - rank) * cols)
    return joint.reshape(-1, cols)


def dense_mutual_information(dist: Distribution, code: LinearCode, indices) -> float:
    """I(encoded; X_R) from R's own (coset, X_R) table (dense_joint) and
    J log_q(J / (coset marginal * X_R marginal)) summed over the nonzero
    cells J in C order: the batched kernel must match it bit for bit."""
    joint = dense_joint(dist, code, indices)
    marginals = joint.sum(axis=1)[:, None] * joint.sum(axis=0)
    support = joint > 0
    ratio = joint[support] / marginals[support]
    return float(np.sum(joint[support] * np.log(ratio))) / log(dist.q)


def worst_conditional_power_sum(dist: Distribution, p: int, r: int) -> float:
    """Largest sum of P(x | X_R = z)^p over every size-r subset R and every
    value z, a subset at a time: each X_R marginal, and each normalised
    slice's power sum, is a sum over the axes R drops."""
    shaped = dist.probs.reshape((dist.q,) * dist.n)
    worst = 0.0
    for indices in all_subsets(dist.n, r):
        drop = tuple(i for i in range(dist.n) if i not in indices)
        mass = shaped.sum(axis=drop, keepdims=True)
        scaled = shaped / np.where(mass > 0, mass, 1.0)
        worst = max(worst, float((scaled ** p).sum(axis=drop).max()))
    return worst


def conditional_given(dist: Distribution, indices, z) -> Distribution:
    """Law of the full vector given that the coordinates in indices equal
    z, as a table over the whole space (zero off the conditioning slice)."""
    indices = subset_indices(indices, dist.n)
    z_arr = integer_array(z, "conditioning value")
    z_idx = _outcome_index(z_arr, dist.q, len(indices))  # rejects a z outside F_q^r
    mask = _subset_index(dist.q, dist.n, indices) == z_idx
    total = float(dist.probs[mask].sum())
    if total <= 0:
        raise ValueError(f"conditioning on a zero-probability event: {tuple(z_arr.tolist())}")
    return Distribution(dist.q, dist.n, np.where(mask, dist.probs, 0.0) / total, dist.cap)


def pushforward_encode(dist: Distribution, code: LinearCode) -> Distribution:
    """Exact law of data + key.G under a uniform key, point by point.

    The encoded vector is uniform on the coset data + C, so
    out(y) = (mass of y's coset) / q^rank(G). The law has as many entries
    as dist and keeps its cap.
    """
    _check_code_matches(dist, code)
    labels, rank = code.coset_labels
    mass = np.bincount(labels, weights=dist.probs)
    return Distribution(dist.q, dist.n, mass[labels] / dist.q ** rank, dist.cap)


def conditional_encoded(
    dist: Distribution, code: LinearCode, indices, z
) -> Distribution:
    """Exact law of data + key.G given that the data coordinates in indices
    equal z. Errors on a zero-probability conditioning event."""
    return pushforward_encode(conditional_given(dist, indices, z), code)


def conditioning_events(dist: Distribution, r: int):
    """Yield (indices, z) for every size-r coordinate subset and every
    value z it takes with positive probability, both in lexicographic
    order."""
    for indices in all_subsets(dist.n, r):
        for z_idx in np.nonzero(marginal(dist, indices).probs > 0)[0]:
            yield indices, tuple(int(v) for v in np.unravel_index(z_idx, (dist.q,) * r))


def straggler_patterns(num_workers: int, budget: int):
    """Every straggler set of size at most budget (including the empty set)."""
    for size in range(budget + 1):
        yield from itertools.combinations(range(num_workers), size)


def count_straggler_patterns(num_workers: int, budget: int) -> int:
    return sum(comb(num_workers, size) for size in range(budget + 1))


def gauss_jordan(rows, q: int) -> tuple:
    """Reduced row echelon form over F_q of a list of integer rows, by the
    textbook pivot loop on Python ints: (reduced rows, pivot columns)."""
    red = [[v % q for v in row] for row in rows]
    pivots = []
    for col in range(len(red[0]) if red else 0):
        top = len(pivots)
        hit = next((i for i in range(top, len(red)) if red[i][col]), None)
        if hit is None:
            continue
        red[top], red[hit] = red[hit], red[top]
        inverse = pow(red[top][col], -1, q)
        red[top] = [v * inverse % q for v in red[top]]
        for i in range(len(red)):
            if i != top and red[i][col]:
                factor = red[i][col]
                red[i] = [(a - factor * b) % q for a, b in zip(red[i], red[top])]
        pivots.append(col)
    return red, pivots
