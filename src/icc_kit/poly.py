"""Sparse multivariate polynomials over F_q with a total-degree bound.

Exponents are stored reduced through x^q = x, so every stored exponent is
below q and total_degree is well defined against the degree bound used by
the evaluation-code machinery. The zero polynomial is the empty term map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .gf import _check_prime, check_cap, exact_dtype, field_array


def reduce_exponent(e: int, q: int) -> int:
    # x^q = x in F_q, so positive exponents wrap with period q - 1.
    if e < 0:
        raise ValueError("exponents must be non-negative")
    if e == 0:
        return 0
    return (e - 1) % (q - 1) + 1


@lru_cache(maxsize=None)
def monomials(num_vars: int, max_degree: int, q: int) -> tuple:
    """All exponent tuples with entries below q and total degree at most
    max_degree, in lexicographic order. Shared by random polynomial
    generation and the evaluation-code basis."""
    _check_prime(q)
    if num_vars < 0 or max_degree < 0:
        raise ValueError("num_vars and max_degree must be non-negative")
    zeros = (0,) * num_vars
    out = []
    # depth-first over (prefix, degree left): a node emits its prefix padded
    # with zeros and each child fixes the next nonzero exponent; children come
    # later place first, smaller value first, so they are pushed in reverse
    stack = [((), max_degree)]
    while stack:
        prefix, left = stack.pop()
        free = num_vars - len(prefix)
        out.append(prefix + zeros[:free])
        for gap in range(free if left else 0):
            for e in range(min(q - 1, left), 0, -1):
                stack.append((prefix + zeros[:gap] + (e,), left - e))
    return tuple(out)


def monomial_count(num_vars: int, max_degree: int, q: int) -> int:
    """len(monomials(num_vars, max_degree, q)) without listing them, by
    inclusion-exclusion over the j exponents pushed to q or above:
    sum_j (-1)^j C(n, j) C(d - jq + n, n) for n variables and degree d."""
    return sum((-1) ** j * comb(num_vars, j) * comb(max_degree - j * q + num_vars, num_vars)
               for j in range(min(num_vars, max_degree // q) + 1))


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial: map from reduced exponent tuple to nonzero coefficient."""

    num_vars: int
    q: int
    terms: dict
    degree_bound: int = field(default=-1)

    def __post_init__(self):
        _check_prime(self.q)
        if self.num_vars < 1:
            raise ValueError("polynomial needs at least one variable")
        for exp, coef in self.terms.items():
            if len(exp) != self.num_vars:
                raise ValueError(f"exponent tuple {exp} has wrong length")
            if any(not 0 <= e < self.q for e in exp):
                raise ValueError(f"exponent tuple {exp} is not reduced below q={self.q}")
            if not 0 < coef < self.q:
                raise ValueError(f"stored coefficients must be nonzero residues, got {coef}")
        max_deg = max((sum(exp) for exp in self.terms), default=0)
        if self.degree_bound < 0:
            object.__setattr__(self, "degree_bound", max_deg)
        elif max_deg > self.degree_bound:
            raise ValueError(
                f"term degree {max_deg} exceeds declared bound {self.degree_bound}"
            )

    @classmethod
    def from_terms(cls, num_vars: int, q: int, raw_terms, degree_bound: int = -1):
        """Build from (exponent tuple, coefficient) pairs; reduces exponents
        via x^q = x, merges collisions, and drops zero coefficients."""
        merged: dict = {}
        items = raw_terms.items() if isinstance(raw_terms, dict) else raw_terms
        for exp, coef in items:
            red = tuple(reduce_exponent(int(e), q) for e in exp)
            merged[red] = (merged.get(red, 0) + int(coef)) % q
        cleaned = {exp: c for exp, c in merged.items() if c}
        return cls(num_vars, q, cleaned, degree_bound)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.q != other.q or self.num_vars != other.num_vars:
            raise ValueError("polynomials live over different rings")
        raw = list(self.terms.items()) + list(other.terms.items())
        return MultiPoly.from_terms(
            self.num_vars, self.q, raw, max(self.degree_bound, other.degree_bound)
        )

    def to_json(self) -> dict:
        ordered = sorted(self.terms.items())
        return {
            "n": self.num_vars,
            "q": self.q,
            "d": self.degree_bound,
            "terms": [{"exp": list(exp), "coef": coef} for exp, coef in ordered],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MultiPoly":
        raw = [(tuple(t["exp"]), t["coef"]) for t in obj["terms"]]
        return cls.from_terms(obj["n"], obj["q"], raw, obj.get("d", -1))


def total_degree(f: MultiPoly) -> int:
    """Largest exponent sum over stored terms; 0 for the zero polynomial
    (check f.is_zero to tell the zero polynomial from a constant)."""
    return max((sum(exp) for exp in f.terms), default=0)


def evaluate(f: MultiPoly, x) -> int:
    """f(x) by term-wise product and sum over F_q, in Python ints: the slow
    reference that evaluate_batch is checked against."""
    # pow needs Python ints: pow(np.int64, e, q) raises TypeError
    values = field_array(x, f.q, (f.num_vars,), "point").tolist()
    total = 0
    for exp, coef in f.terms.items():
        prod = coef
        for xv, e in zip(values, exp):
            if e:
                prod = prod * pow(xv, e, f.q) % f.q
        total += prod
    return total % f.q


def monomial_values(exps, points, q: int) -> np.ndarray:
    """Every monomial at every point mod q, shape (terms, points).

    A term gathers only the coordinates of its nonzero exponents (at most d
    for total degree d) and raises them by square-and-multiply, so the cost
    is O(points * terms * d) whatever the number of variables. Entries are
    int64 while a product of two residues fits, Python ints above.
    """
    dtype = exact_dtype(q)
    exps = np.asarray(exps, dtype=np.int64)
    coords = np.ascontiguousarray(np.asarray(points, dtype=dtype).T % q)
    terms, var = np.nonzero(exps)  # row-major: a term's entries are adjacent
    slot = np.arange(terms.size) - np.searchsorted(terms, terms)
    # (variable, exponent) in each slot of each term; empty slots raise to 0
    at = np.zeros((2, exps.shape[0], slot.max(initial=-1) + 1), dtype=np.int64)
    at[:, terms, slot] = var, exps[terms, var]
    vals = np.ones((exps.shape[0], coords.shape[1]), dtype=dtype)
    for slot_var, e in zip(at[0].T, at[1].T):
        base = coords[slot_var]
        for bit in range(int(e.max()).bit_length()):
            if bit:
                np.remainder(base * base, q, out=base)
            odd = ((e >> bit) & 1).astype(bool)[:, None]
            np.multiply(vals, base, out=vals, where=odd)
            np.remainder(vals, q, out=vals, where=odd)
    return vals


def evaluate_batch(f: MultiPoly, points: np.ndarray) -> np.ndarray:
    """Evaluate f at many points at once.

    points: integer array of shape (count, num_vars); q below 2^63.
    Returns an int64 array of f values, equal to evaluate() pointwise.
    """
    pts = field_array(points, f.q, (None, f.num_vars), "points")
    if f.is_zero:
        return np.zeros(pts.shape[0], dtype=np.int64)
    vals = monomial_values(list(f.terms), pts, f.q)
    # the sum over terms of coefficient-times-value products must fit too
    dtype = exact_dtype(f.q, len(f.terms))
    coefs = np.array(list(f.terms.values()), dtype=dtype)
    return (coefs @ vals.astype(dtype, copy=False) % f.q).astype(np.int64)


def random_poly(num_vars: int, degree: int, q: int, rng_seed) -> MultiPoly:
    """Uniformly random coefficients over every admissible monomial
    (per-variable exponent below q, total degree at most `degree`).
    Deterministic under rng_seed; zero draws drop the monomial."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    _check_prime(q)
    check_cap(monomial_count(num_vars, degree, q) * num_vars)  # exponent entries of the basis
    basis = monomials(num_vars, degree, q)
    rng = np.random.default_rng(rng_seed)
    coefs = rng.integers(0, q, size=len(basis))
    terms = {exp: int(c) for exp, c in zip(basis, coefs) if c}
    return MultiPoly(num_vars, q, terms, degree)
