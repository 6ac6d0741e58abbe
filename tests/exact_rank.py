"""Exact linear algebra for the tests: the rank over the rationals
(the kernel basis dimension and the eigenprojector ranks), the image of
a sparse vector under the full cut-matrix (kernel membership and the
candidate solution), and matrices cleared to integer numpy arrays for
checking the matrix identities.

The arrays hold Python ints (dtype object), so every product is exact
and cannot overflow; over ints they are also far faster than arrays of
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from cutcones.cut_algebra import RationalMatrix, combine_cuts, cut_masks
from cutcones.metric import integer_entries


def integer_arrays(*matrices: RationalMatrix) -> tuple:
    """(q, q * M_1, ..., q * M_k): the common denominator q of all the
    matrices' entries and each matrix times q as an array of ints.

    An identity of rational matrices then reads over ints with every
    term scaled to the same power of q: P^2 = P is p @ p == q * p.
    """
    den, flat = integer_entries(x for a in matrices for row in a.entries for x in row)
    arrays = []
    start = 0
    for a in matrices:
        stop = start + a.rows * a.cols
        arrays.append(np.array(flat[start:stop], dtype=object).reshape(a.rows, a.cols))
        start = stop
    return (den, *arrays)


def times(matrix: RationalMatrix, vector: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """The exact product of matrix and vector, as Fractions."""
    q, a = integer_arrays(matrix)
    r, v = integer_entries(vector)
    return tuple(Fraction(x, q * r) for x in a @ np.array(v, dtype=object))


def apply_full_cut_matrix(
    n: int, entries: Iterable[tuple[int, Fraction]]
) -> tuple[Fraction, ...]:
    """Image under the full cut-matrix of a sparse coefficient vector,
    given as (cut index, coefficient) pairs in enumerate_cuts indexing,
    without building the matrix.  An all-zero image means the vector is
    in the kernel.
    """
    masks = cut_masks(n)
    return combine_cuts(n, ((masks[idx], coeff) for idx, coeff in entries))


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank over the rationals by fraction-free elimination.

    Each row is cleared of denominators (which keeps the rank), then
    Bareiss elimination runs in integers: every entry below the pivot
    rows becomes (x * piv - f * p) / denom, with denom the previous
    pivot, and the division is exact (the results are minors).
    """
    work = [integer_entries(row)[1] for row in rows]
    if not work:
        return 0
    rank = 0
    denom = 1
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        piv = prow[col]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            work[r] = [(x * piv - f * p) // denom for x, p in zip(work[r], prow)]
        denom = piv
        rank += 1
        if rank == len(work):
            break
    return rank
