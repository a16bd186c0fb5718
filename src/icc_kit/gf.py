"""Prime fields F_q: field data as numpy integer arrays, validated once at
the API boundary, the one overflow rule, and Gaussian elimination."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)  # every field array checks its q
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


def check_sampled_field(q) -> None:
    """_check_prime, and q below 2^63: field elements are drawn with numpy's
    int64 generator, and the simulated protocol holds its answers as int64."""
    _check_prime(q)
    if q >= 2 ** 63:
        raise ValueError(
            f"field order {q} is not below 2^63, the bound on randomly drawn field elements"
        )


def exact_dtype(q: int, terms: int = 1):
    """dtype for sums of `terms` products of two residues mod q: int64 while
    terms * (q-1)^2 < 2^63, exact Python ints (object) above."""
    return np.int64 if terms * (q - 1) ** 2 < 2 ** 63 else object


def integer_array(values, name: str = "field data") -> np.ndarray:
    """values as a numpy integer array: floats and bools are rejected, not
    truncated, and Python ints beyond int64 stay exact (object dtype)."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting, such as points of different lengths
        raise ValueError(f"{name} must be a rectangular array of integers") from None
    # numpy turns Python ints beyond int64 into floats and bools beside ints
    # into ints, so unless the input is an array or a flat run of Python
    # ints, check the entries as given, and keep big ints exact
    plain = isinstance(values, np.ndarray) or (
        arr.dtype.kind in "iu" and arr.ndim == 1 and {int}.issuperset(map(type, values)))
    if arr.dtype.kind == "O" or arr.dtype.kind in "fiu" and not plain:
        given = arr if arr.dtype.kind == "O" else np.asarray(values, dtype=object)
        if not all(isinstance(v, (int, np.integer)) and type(v) is not bool for v in given.flat):
            raise ValueError(f"{name} entries must be integers")
        if arr.dtype.kind == "f":
            arr = given
    elif arr.dtype.kind not in "iu":
        raise ValueError(f"{name} entries must be integers, got dtype {arr.dtype}")
    return arr


def subset_indices(indices, n: int) -> tuple:
    """A coordinate subset given from outside as a sorted tuple: a flat,
    non-empty run of distinct integers in [0, n), by integer_array's rule."""
    arr = integer_array(indices, "subset indices")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"subset indices must be a flat non-empty list, got {indices!r}")
    idx = tuple(sorted(arr.tolist()))
    if len(set(idx)) != len(idx):
        raise ValueError(f"subset indices {idx} must be distinct")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"subset indices {idx} out of range for n = {n}")
    return idx


def field_array(values, q: int, shape=None, name: str = "field data") -> np.ndarray:
    """Validate field data at the API boundary and reduce it mod q.

    Entries must be integers (floats and bools are rejected, not
    truncated) and the array must be non-empty; shape, when given, is the
    expected shape with None for any length. Returns the residues in
    exact_dtype(q), so products of two entries never overflow.
    """
    _check_prime(q)
    arr = integer_array(values, name)
    if shape is not None and (
        arr.ndim != len(shape) or any(w is not None and w != s for w, s in zip(shape, arr.shape))
    ):
        want = tuple("*" if w is None else w for w in shape)
        raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    dtype = exact_dtype(q)
    if dtype is object or arr.dtype.kind != "i":  # unsigned or Python ints
        arr = arr.astype(object)
    return (arr % q).astype(dtype)


def point_digit(q: int, n: int, position: int) -> np.ndarray:
    """Digit `position` (most significant first) of every point of F_q^n in
    lexicographic order, shaped to broadcast over the (q,)*n grid of points."""
    return np.arange(q, dtype=np.int64).reshape((q,) + (1,) * (n - 1 - position))


DEFAULT_CAP = 2 ** 24


def cap_limit(cap=None) -> int:
    """The most entries a table may have under cap (None: DEFAULT_CAP)."""
    return DEFAULT_CAP if cap is None else cap


def check_cap(outcomes: int, cap=None) -> None:
    """Reject a table of more than cap (default DEFAULT_CAP) entries; called
    just before the table is allocated."""
    limit = cap_limit(cap)
    if outcomes > limit:
        raise ValueError(f"enumeration of {outcomes} outcomes exceeds cap {limit}")


def row_reduce(mat, q: int) -> tuple:
    """Reduced row echelon form over F_q of an integer matrix.

    Returns (reduced copy, pivot column indices in left-to-right order).
    The only Gaussian-elimination routine in the package: rank, pivots,
    the generic straggler selection and decoding all go through it. Rows
    from the pivot row down are zero left of the pivot column, so a pivot
    step scales (unless the pivot is 1) and clears only the columns from it
    rightwards.
    """
    red = np.array(mat, dtype=exact_dtype(q)) % q
    pivots = []
    pr = 0
    for col in range(red.shape[1]):
        nz = np.nonzero(red[pr:, col])[0]
        if nz.size == 0:
            continue
        piv = pr + int(nz[0])
        if piv != pr:
            red[[pr, piv]] = red[[piv, pr]]
        pivot = int(red[pr, col])
        if pivot != 1:
            red[pr, col:] = red[pr, col:] * pow(pivot, -1, q) % q
        others = red[:, col] != 0
        others[pr] = False
        block = red[others, col:]
        if len(block):
            red[others, col:] = (block - block[:, :1] * red[pr, col:]) % q
        pivots.append(col)
        pr += 1
        if pr == red.shape[0]:
            break
    return red, pivots


def rank(matrix, q: int) -> int:
    """Rank over F_q by Gaussian elimination."""
    return len(pivot_columns(matrix, q))


def pivot_columns(matrix, q: int) -> tuple:
    """Pivot column indices found by elimination in left-to-right order."""
    return tuple(row_reduce(field_array(matrix, q, (None, None), "matrix"), q)[1])
