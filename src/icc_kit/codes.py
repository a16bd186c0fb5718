"""Random linear codes [n, m]_q and the additive masking encoder.

The encoder adds a uniformly random codeword to the data vector:
encoded = data + key.G. Generator matrices are sampled with i.i.d.
uniform entries and no rank screening, so ensemble experiments match
the unconditioned random-code model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .gf import (
    check_sampled_field, exact_dtype, field_array, point_digit, rank, row_reduce, subset_indices,
)


@dataclass(frozen=True, eq=False)
class LinearCode:
    """An [n, m]_q linear code given by its m x n generator matrix."""

    generator: np.ndarray
    q: int

    def __post_init__(self):
        gen = field_array(self.generator, self.q, (None, None), "generator")
        if gen.shape[0] > gen.shape[1]:
            raise ValueError("generator must have m <= n")
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.generator, other.generator)

    @property
    def n(self) -> int:
        return self.generator.shape[1]

    @property
    def m(self) -> int:
        return self.generator.shape[0]

    @cached_property
    def coset_labels(self) -> tuple:
        """(coset label of every point of F_q^n in lexicographic order, rank of
        G). The rows of G's reduced echelon form clear a point's pivot
        coordinates; the other n - rank coordinates, read base q, are its
        label, built one coordinate at a time. Kept for the life of the code."""
        q, n = self.q, self.n
        red, pivots = row_reduce(self.generator, q)
        labels = np.zeros((), dtype=np.int64)
        for col in sorted(set(range(n)) - set(pivots)):
            coord = point_digit(q, n, col)
            for row, pivot in enumerate(pivots):
                if red[row, col]:
                    coord = coord + (q - int(red[row, col])) * point_digit(q, n, pivot)
            labels = labels * q + coord % q
        labels = np.broadcast_to(labels, (q,) * n).reshape(-1)
        labels.setflags(write=False)
        return labels, len(pivots)

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "q": self.q, "G": self.generator.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "LinearCode":
        code = cls(obj["G"], obj["q"])
        if code.n != obj["n"] or code.m != obj["m"]:
            raise ValueError("declared dimensions disagree with the generator")
        return code


def sample_code(n: int, m: int, q: int, rng_seed) -> LinearCode:
    """Generator with i.i.d. uniform entries; pure function of the seed."""
    check_sampled_field(q)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(rng_seed)
    return LinearCode(rng.integers(0, q, size=(m, n)), q)


def key_gen(m: int, q: int, rng_seed) -> np.ndarray:
    """Uniform key in F_q^m; pure function of the seed."""
    check_sampled_field(q)
    if m < 1:
        raise ValueError("key length must be at least 1")
    return np.random.default_rng(rng_seed).integers(0, q, size=m)


def _add_codewords(x, t, code: LinearCode, sign: int) -> np.ndarray:
    x = field_array(x, code.q, (code.n,), "vector")
    # t is one vector of F_q^m or a stack of them, one output row each
    t = field_array(t, code.q, (None,) * (np.ndim(t) - 1) + (code.m,), "key")
    dtype = exact_dtype(code.q, code.m + 1)  # m products plus x
    out = x.astype(dtype) + sign * (t.astype(dtype) @ code.generator.astype(dtype))
    return (out % code.q).astype(x.dtype)


def encode(x, key, code: LinearCode) -> np.ndarray:
    """x + key.G over F_q; a (count, m) stack of keys gives (count, n)."""
    return _add_codewords(x, key, code, 1)


def shift(encoded, t, code: LinearCode) -> np.ndarray:
    """encoded - t.G over F_q; inverse of encode when t equals the key. A
    (count, m) stack of t gives the (count, n) stack of shifted vectors."""
    return _add_codewords(encoded, t, code, -1)


def subcolumns_full_rank(code: LinearCode, subset: Sequence[int]) -> bool:
    """True iff the m x r submatrix on the given columns has rank r.

    Diagnostic only (equivalent to the masked positions receiving a
    uniform additive pad); not part of the encode path.
    """
    cols = subset_indices(subset, code.n)
    if len(cols) > code.m:
        raise ValueError(f"subset size {len(cols)} exceeds key length {code.m}")
    return rank(code.generator[:, list(cols)], code.q) == len(cols)
