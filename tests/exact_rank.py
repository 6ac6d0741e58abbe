"""Exact matrix rank over the rationals, for tests that check a rank:
the kernel basis dimension and the eigenprojector ranks."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from cutcones.metric import integer_entries


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
