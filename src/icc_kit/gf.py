"""Exact arithmetic over prime fields F_q: elements, vectors, matrices, rank."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np


@lru_cache(maxsize=None)  # every field element and vector checks its q
def is_prime(q: int) -> bool:
    """Exact below 3.3e24, where Miller-Rabin with the first 13 prime bases
    is deterministic (Sorenson & Webster 2017); larger q is rejected."""
    if q >= 3317044064679887385961981:
        raise ValueError(f"primality is decided exactly only below 3.3e24, got {q}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if q < 2 or any(q % a == 0 for a in bases):
        return q in bases
    twos = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = odd * 2^twos
    for a in bases:
        # a^(odd * 2^i) for i < twos: for prime q it starts at 1 or meets -1
        chain = [pow(a, (q - 1) >> (twos - i), q) for i in range(twos)]
        if chain[0] != 1 and q - 1 not in chain:
            return False
    return True


def _check_prime(q) -> None:
    if not isinstance(q, int) or isinstance(q, bool) or not is_prime(q):
        raise ValueError(f"field order must be a prime integer, got {q!r}")


def inverse_mod(value: int, q: int) -> int:
    """Multiplicative inverse of value modulo the prime q (extended Euclid)."""
    v = value % q
    if v == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    old_r, r = q, v
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_t, t = t, old_t - quo * t
    return old_t % q


@dataclass(frozen=True)
class FieldElement:
    """A single residue in F_q. Immutable; mixing moduli is a hard error."""

    value: int
    q: int

    def __post_init__(self):
        _check_prime(self.q)
        object.__setattr__(self, "value", int(self.value) % self.q)

    def _other_value(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.q != self.q:
                raise ValueError(f"modulus mismatch: {self.q} vs {other.q}")
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return other % self.q
        raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")

    def __add__(self, other):
        return FieldElement(self.value + self._other_value(other), self.q)

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.value - self._other_value(other), self.q)

    def __rsub__(self, other):
        return FieldElement(self._other_value(other) - self.value, self.q)

    def __mul__(self, other):
        return FieldElement(self.value * self._other_value(other), self.q)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.q)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return FieldElement(pow(self.value, exponent, self.q), self.q)

    def inverse(self) -> "FieldElement":
        return FieldElement(inverse_mod(self.value, self.q), self.q)

    def __truediv__(self, other):
        divisor = self._other_value(other)
        return FieldElement(self.value * inverse_mod(divisor, self.q), self.q)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.q})"


@dataclass(frozen=True)
class FieldVector:
    """Fixed-length vector over F_q. Values are reduced on construction."""

    values: tuple
    q: int

    def __post_init__(self):
        _check_prime(self.q)
        reduced = tuple(int(v) % self.q for v in self.values)
        if not reduced:
            raise ValueError("vector must have at least one coordinate")
        object.__setattr__(self, "values", reduced)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i) -> FieldElement:
        return FieldElement(self.values[i], self.q)

    def __iter__(self):
        return (FieldElement(v, self.q) for v in self.values)

    def __add__(self, other):
        return vec_add(self, other)

    def __sub__(self, other):
        return vec_sub(self, other)

    def to_json(self) -> dict:
        return {"q": self.q, "elements": list(self.values)}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldVector":
        return cls(tuple(obj["elements"]), obj["q"])


@dataclass(frozen=True)
class FieldMatrix:
    """Row-major matrix over F_q. Entries are reduced on construction."""

    entries: tuple
    q: int

    def __post_init__(self):
        _check_prime(self.q)
        rows = tuple(tuple(int(v) % self.q for v in row) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows must all have the same length")
        object.__setattr__(self, "entries", rows)

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    @property
    def num_cols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.entries[i][j], self.q)

    def row(self, i: int) -> FieldVector:
        return FieldVector(self.entries[i], self.q)

    def column(self, j: int) -> FieldVector:
        return FieldVector(tuple(row[j] for row in self.entries), self.q)

    def to_json(self) -> dict:
        return {"q": self.q, "rows": [list(row) for row in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldMatrix":
        return cls(tuple(tuple(row) for row in obj["rows"]), obj["q"])

    @classmethod
    def identity(cls, size: int, q: int) -> "FieldMatrix":
        return cls(
            tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size)),
            q,
        )


def _check_same_modulus(a, b) -> None:
    if a.q != b.q:
        raise ValueError(f"modulus mismatch: {a.q} vs {b.q}")


def vec_add(a: FieldVector, b: FieldVector) -> FieldVector:
    """Componentwise sum of two vectors over the same field."""
    _check_same_modulus(a, b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return FieldVector(tuple(x + y for x, y in zip(a.values, b.values)), a.q)


def vec_sub(a: FieldVector, b: FieldVector) -> FieldVector:
    _check_same_modulus(a, b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return FieldVector(tuple(x - y for x, y in zip(a.values, b.values)), a.q)


def mat_vec_left(k: FieldVector, matrix: FieldMatrix) -> FieldVector:
    """Row-vector times matrix: returns k.M with length matrix.num_cols."""
    _check_same_modulus(k, matrix)
    if len(k) != matrix.num_rows:
        raise ValueError(
            f"dimension mismatch: vector length {len(k)} vs {matrix.num_rows} rows"
        )
    cols = matrix.num_cols
    out = [0] * cols
    for kv, row in zip(k.values, matrix.entries):
        if kv:
            for j in range(cols):
                out[j] += kv * row[j]
    return FieldVector(tuple(out), matrix.q)


def row_reduce(mat, q: int) -> tuple:
    """Reduced row echelon form over F_q of an integer matrix.

    Returns (reduced copy, pivot column indices in left-to-right order).
    The only Gaussian-elimination routine in the package: rank, pivots,
    information sets and decoding all go through it.
    """
    # int64 holds every product of two residues while (q-1)^2 < 2^63;
    # beyond that, exact Python ints
    red = np.array(mat, dtype=np.int64 if (q - 1) ** 2 < 2 ** 63 else object) % q
    pivots = []
    pr = 0
    for col in range(red.shape[1]):
        nz = np.nonzero(red[pr:, col])[0]
        if nz.size == 0:
            continue
        piv = pr + int(nz[0])
        if piv != pr:
            red[[pr, piv]] = red[[piv, pr]]
        inv = inverse_mod(int(red[pr, col]), q)
        red[pr] = red[pr] * inv % q
        others = np.nonzero(red[:, col])[0]
        others = others[others != pr]
        if others.size:
            red[others] = (red[others] - np.outer(red[others, col], red[pr])) % q
        pivots.append(col)
        pr += 1
        if pr == red.shape[0]:
            break
    return red, pivots


def rank(matrix: FieldMatrix) -> int:
    """Rank over F_q by Gaussian elimination."""
    return len(pivot_columns(matrix))


def pivot_columns(matrix: FieldMatrix) -> tuple:
    """Pivot column indices found by elimination in left-to-right order."""
    return tuple(row_reduce(matrix.entries, matrix.q)[1])


def submatrix_columns(matrix: FieldMatrix, cols: Sequence[int]) -> FieldMatrix:
    """New matrix keeping the given columns, in the given order."""
    for c in cols:
        if not 0 <= c < matrix.num_cols:
            raise ValueError(f"column index {c} out of range")
    return FieldMatrix(
        tuple(tuple(row[c] for c in cols) for row in matrix.entries), matrix.q
    )
