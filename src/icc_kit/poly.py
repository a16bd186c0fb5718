"""Sparse multivariate polynomials over F_q with a total-degree bound.

A MultiPoly holds its terms as arrays, in lexicographic exponent order:
each term is a row of (variable, exponent) slots, its nonzero exponents in
increasing variable order padded with (0, 0), next to an array of nonzero
coefficients. Exponents are stored reduced through x^q = x, so every
stored exponent is below q and the total degree is well defined against the
degree bound used by the evaluation-code machinery. The zero polynomial
has no terms. The constructor checks this form once, with vectorised
checks; from_terms builds it from raw (exponent tuple, coefficient) pairs.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from math import comb

import numpy as np

from .gf import (
    _check_prime, check_cap, check_sampled_field, exact_dtype, field_array, integer_array,
)


def reduce_exponent(e: int, q: int) -> int:
    # x^q = x in F_q, so positive exponents wrap with period q - 1.
    if e < 0:
        raise ValueError("exponents must be non-negative")
    if e == 0:
        return 0
    return (e - 1) % (q - 1) + 1


def _basis_terms(num_vars: int, max_degree: int, q: int) -> list:
    """Every exponent tuple with entries below q and total degree at most
    max_degree, in lexicographic order, as the flat (variable, exponent,
    ...) pairs of its nonzero entries."""
    _check_prime(q)
    if num_vars < 0 or max_degree < 0:
        raise ValueError("num_vars and max_degree must be non-negative")
    out = []
    # depth-first over (pairs, next free variable, degree left): a node emits
    # its pairs and each child fixes the next nonzero exponent; children come
    # later variable first, smaller value first, so they are pushed in reverse
    stack = [((), 0, max_degree)]
    while stack:
        pairs, start, left = stack.pop()
        out.append(pairs)
        for var in range(start, num_vars if left else start):
            for e in range(min(q - 1, left), 0, -1):
                stack.append((pairs + (var, e), var + 1, left - e))
    return out


def _dense(slots, num_vars: int) -> np.ndarray:
    """The (terms, num_vars) exponent matrix of (variables, exponents) slots."""
    var, exp = slots
    dense = np.zeros((len(exp), num_vars), exp.dtype)
    term, slot = np.nonzero(exp)
    dense[term, var[term, slot]] = exp[term, slot]
    return dense


def _slots(terms, dtype) -> tuple:
    """(variables, exponents), each of shape (terms, widest term), from each
    term's flat (variable, exponent, ...) pairs, padded with (0, 0)."""
    width = max(map(len, terms), default=0)
    flat = chain.from_iterable(t + (0,) * (width - len(t)) for t in terms)
    pairs = np.fromiter(flat, dtype, len(terms) * width).reshape(len(terms), width // 2, 2)
    return pairs[..., 0].astype(np.int64), pairs[..., 1]


@lru_cache(maxsize=None)
def monomials(num_vars: int, max_degree: int, q: int) -> np.ndarray:
    """All exponent vectors with entries below q and total degree at most
    max_degree, in lexicographic order: the Reed-Muller basis, as a
    read-only (count, num_vars) int64 array."""
    dense = _dense(monomial_slots(num_vars, max_degree, q), num_vars)
    dense.setflags(write=False)
    return dense


@lru_cache(maxsize=None)
def monomial_slots(num_vars: int, max_degree: int, q: int) -> tuple:
    """monomials(num_vars, max_degree, q) as read-only (variables,
    exponents) slot arrays, listed from the enumeration itself. Shared by
    random polynomial generation and the evaluation-code basis."""
    slots = _slots(_basis_terms(num_vars, max_degree, q), np.int64)
    for arr in slots:
        arr.setflags(write=False)
    return slots


def monomial_count(num_vars: int, max_degree: int, q: int) -> int:
    """len(monomials(num_vars, max_degree, q)) without listing them, by
    inclusion-exclusion over the j exponents pushed to q or above:
    sum_j (-1)^j C(n, j) C(d - jq + n, n) for n variables and degree d."""
    return sum((-1) ** j * comb(num_vars, j) * comb(max_degree - j * q + num_vars, num_vars)
               for j in range(min(num_vars, max_degree // q) + 1))


def _rows_ascend(columns, count: int) -> bool:
    """Whether the count rows made of the given columns strictly increase
    in lexicographic order. numpy reduces along a short row slowly, so walk
    the columns, keeping the neighbouring rows not yet told apart."""
    undecided = np.ones(max(count - 1, 0), bool)
    for col in columns:
        # compared, not subtracted: a difference of unsigned entries wraps
        if (undecided & (col[1:] < col[:-1])).any():
            return False
        undecided &= col[1:] == col[:-1]
    return not undecided.any()


def _pair_index(slots) -> tuple:
    """(pair_var, pair_exp, pair_of): the distinct (variable, exponent)
    pairs of the (variables, exponents) slots, in (variable, exponent)
    order, and each slot's pair, shaped like the slots; a (0, 0) padding
    slot is the pair x_0^0. All three are read-only; pair_exp keeps the
    exponents' dtype and the other two are int64."""
    var, exp = slots
    # a pair is keyed by its exponent's rank: var * q + exp overflows near q = 2^61
    exps = np.sort(exp, axis=None)
    exps = exps[np.diff(exps, prepend=-1) != 0]
    keys = var * len(exps) + np.searchsorted(exps, exp)
    # mark the keys in use and number them in key order, without a sort
    seen = np.zeros((int(var.max(initial=-1)) + 1) * len(exps), bool)
    seen[keys] = True
    pairs = np.flatnonzero(seen)
    index = (pairs // len(exps), exps[pairs % len(exps)], (np.cumsum(seen) - 1)[keys])
    for arr in index:
        arr.setflags(write=False)
    return index


@dataclass(frozen=True, eq=False)
class MultiPoly:
    """Terms in lexicographic exponent order. slots is the (variables,
    exponents) pair of (terms, k) arrays: each row holds a term's nonzero
    exponents in increasing variable order, padded with (0, 0). coefs holds
    the nonzero coefficients. Build one with from_terms, from_json or
    random_poly; the constructor only checks the form. pairs, the index of
    the distinct (variable, exponent) pairs in slots, is built on first use
    and shared by evaluate and evaluate_batch."""

    num_vars: int
    q: int
    slots: tuple
    coefs: np.ndarray
    degree_bound: int = field(default=-1)
    degree: int = field(init=False)  # largest exponent sum, 0 without terms

    def __post_init__(self):
        _check_prime(self.q)
        if self.num_vars < 1:
            raise ValueError("polynomial needs at least one variable")
        var, exp = (integer_array(arr, "term slots") for arr in self.slots)
        coefs = integer_array(self.coefs, "coefficients")
        if var.ndim != 2 or exp.shape != var.shape or coefs.shape != var.shape[:1]:
            raise ValueError("slots must be two (terms, k) arrays and coefs a (terms,) array")
        # rev is num_vars - variable at a nonzero slot and 0 at padding, so
        # it falls strictly along a row
        rev = np.where(exp > 0, self.num_vars - var, 0)
        if ((var < 0) | (var >= self.num_vars) | (exp < 0) | (exp >= self.q)).any() or (
                (rev[:, 1:] >= rev[:, :-1]) & (exp[:, 1:] > 0)).any():
            raise ValueError(f"slots must hold exponents below q={self.q} of distinct variables "
                             f"below {self.num_vars}, in increasing order, then (0, 0) padding")
        # exponent tuples compare as their rows of (rev, exponent) pairs do
        if not _rows_ascend(chain.from_iterable(zip(rev.T, exp.T)), len(exp)):
            raise ValueError("terms must be distinct and in lexicographic exponent order")
        if not ((coefs > 0) & (coefs < self.q)).all():
            raise ValueError("stored coefficients must be nonzero residues")
        # summed column by column, as in _rows_ascend
        degree = int(sum(exp.T, np.zeros(len(exp), exp.dtype)).max(initial=0))
        if self.degree_bound < 0:
            object.__setattr__(self, "degree_bound", degree)
        elif degree > self.degree_bound:
            raise ValueError(f"term degree {degree} exceeds declared bound {self.degree_bound}")
        # private read-only copies: a recorded polynomial (such as the one a
        # session transcript holds) cannot be rewritten through the caller's
        # arrays or through these attributes
        var, exp, coefs = var.astype(np.int64), exp.copy(), coefs.copy()
        for arr in (var, exp, coefs):
            arr.setflags(write=False)
        object.__setattr__(self, "slots", (var, exp))
        object.__setattr__(self, "coefs", coefs)
        object.__setattr__(self, "degree", degree)

    @classmethod
    def from_terms(cls, num_vars: int, q: int, raw_terms, degree_bound: int = -1):
        """Build from (exponent tuple, coefficient) pairs of integers (floats
        and bools are rejected, not truncated); reduces exponents via
        x^q = x, merges collisions, drops zero coefficients and sorts once."""
        _check_prime(q)
        items = list(raw_terms.items() if isinstance(raw_terms, dict) else raw_terms)
        exps = integer_array([exp for exp, _ in items], "exponents")
        coefs = integer_array([coef for _, coef in items], "coefficients")
        if items and (exps.ndim != 2 or exps.shape[1] != num_vars):
            raise ValueError(f"exponent tuples must have length {num_vars}")
        merged: dict = {}
        for exp, coef in zip(exps.tolist(), coefs.tolist()):
            red = tuple(reduce_exponent(e, q) for e in exp)
            merged[red] = (merged.get(red, 0) + coef) % q
        order = sorted(exp for exp, coef in merged.items() if coef)
        dtype = np.int64 if q <= 2 ** 63 else object
        slots = _slots([tuple(chain.from_iterable((v, e) for v, e in enumerate(exp) if e))
                        for exp in order], dtype)
        return cls(num_vars, q, slots, np.array([merged[exp] for exp in order], dtype), degree_bound)

    @cached_property
    def pairs(self) -> tuple:
        """_pair_index(self.slots), read-only and found once per polynomial."""
        return _pair_index(self.slots)

    @property
    def is_zero(self) -> bool:
        return len(self.coefs) == 0

    def _rows(self):
        """(exponent list, coefficient) of each term, in order."""
        return zip(_dense(self.slots, self.num_vars).tolist(), self.coefs.tolist())

    @property
    def terms(self) -> "_Terms":
        """Read-only map from reduced exponent tuple to coefficient."""
        return _Terms(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.to_json() == other.to_json()

    def to_json(self) -> dict:
        return {
            "n": self.num_vars,
            "q": self.q,
            "d": self.degree_bound,
            "terms": [{"exp": exp, "coef": coef} for exp, coef in self._rows()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MultiPoly":
        raw = [(tuple(t["exp"]), t["coef"]) for t in obj["terms"]]
        return cls.from_terms(obj["n"], obj["q"], raw, obj.get("d", -1))


class _Terms(Mapping):
    """MultiPoly.terms, built on first lookup; len() builds nothing."""

    def __init__(self, poly: MultiPoly):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly.coefs)

    @cached_property
    def _map(self) -> dict:
        return {tuple(exp): coef for exp, coef in self._poly._rows()}

    def __getitem__(self, exp):
        return self._map[exp]

    def __iter__(self):
        return iter(self._map)


def evaluate(f: MultiPoly, x) -> int:
    """f(x) by term-wise product and sum over F_q, in Python ints: the slow
    reference that evaluate_batch is checked against. It does no numpy
    arithmetic on field values: a pow for each distinct (variable,
    exponent) pair of f.pairs, then each term's product of its coefficient
    and gathered powers, one slot column at a time, reduced once at the end."""
    # pow needs Python ints: pow(np.int64, e, q) raises TypeError
    values = field_array(x, f.q, (f.num_vars,), "point").tolist()
    q = f.q
    pair_var, pair_exp, pair_of = f.pairs
    powers = [pow(values[v], e, q) for v, e in zip(pair_var.tolist(), pair_exp.tolist())]
    prods = f.coefs.tolist()
    for col in pair_of.T.tolist():
        prods = map(operator.mul, prods, map(powers.__getitem__, col))
    return sum(prods) % q


def _monomial_products(pairs, points, q: int) -> tuple:
    """(products, bound): every monomial at every point, shape (terms,
    points), congruent mod q to its value and at most bound. pairs is the
    _pair_index of the monomials' slots. Each distinct (variable, exponent)
    pair is raised once into a (pairs, points) table of residues, and a
    term multiplies the rows its slot columns gather, starting from the
    first: O(points * terms * d) for degree d. A term with no slots is 1.
    In int64 a product is reduced only when the next could reach 2^63."""
    dtype = exact_dtype(q)
    coords = np.asarray(points, dtype=dtype).T % q
    pair_var, pair_exp, pair_of = pairs
    base = coords.take(pair_var, axis=0)
    table = np.ones_like(base)
    for bit in range(int(pair_exp.max(initial=0)).bit_length()):
        if bit:
            np.remainder(base * base, q, out=base)
        odd = ((pair_exp >> bit) & 1).astype(bool)[:, None]
        np.multiply(table, base, out=table, where=odd)
        np.remainder(table, q, out=table, where=odd)
    if not pair_of.shape[1]:
        return np.ones((len(pair_of), coords.shape[1]), dtype), 1
    vals, bound = table.take(pair_of[:, 0], axis=0), q - 1
    for col in pair_of.T[1:]:
        if dtype is np.int64 and bound * (q - 1) >= 2 ** 63:
            np.remainder(vals, q, out=vals)
            bound = q - 1
        vals *= table.take(col, axis=0)
        bound *= q - 1
    return vals, bound


def monomial_values(slots, points, q: int) -> np.ndarray:
    """Every monomial at every point mod q, shape (terms, points)."""
    vals, bound = _monomial_products(_pair_index(slots), points, q)
    return vals % q if bound >= q else vals


def evaluate_batch(f: MultiPoly, points: np.ndarray) -> np.ndarray:
    """Evaluate f at many points at once.

    points: integer array of shape (count, num_vars); q below 2^63.
    Returns an int64 array of f values, equal to evaluate() pointwise.
    The coefficients meet the products unreduced while the sum fits int64.
    """
    q, terms = f.q, len(f.coefs)
    pts = field_array(points, q, (None, f.num_vars), "points")
    vals, bound = _monomial_products(f.pairs, pts, q)
    if terms * (q - 1) * bound >= 2 ** 63:
        vals, bound = vals % q, q - 1
    dtype = np.int64 if terms * (q - 1) * bound < 2 ** 63 else object
    return (f.coefs.astype(dtype) @ vals.astype(dtype, copy=False) % q).astype(np.int64)


def random_poly(num_vars: int, degree: int, q: int, rng_seed) -> MultiPoly:
    """Uniformly random coefficients over every admissible monomial
    (per-variable exponent below q, total degree at most `degree`).
    Deterministic under rng_seed; zero draws drop the monomial."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    check_sampled_field(q)
    # exponent entries of the basis, as the JSON form lists them
    check_cap(monomial_count(num_vars, degree, q) * num_vars)
    var, exp = monomial_slots(num_vars, degree, q)
    rng = np.random.default_rng(rng_seed)
    coefs = rng.integers(0, q, size=len(var))
    keep = np.flatnonzero(coefs)
    return MultiPoly(num_vars, q, (var.take(keep, axis=0), exp.take(keep, axis=0)),
                     coefs.take(keep), degree)
