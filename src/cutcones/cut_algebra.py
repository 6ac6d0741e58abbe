"""Cuts of a finite vertex set and the exact linear algebra around them.

A cut is a subset C of {1,...,n}; it determines the cut semi-metric
that is 1 on pairs split by C and 0 elsewhere.  This module provides:

  * the canonical enumeration of the 2^n - 2 nontrivial cuts, graded
    by cardinality and lexicographic within each cardinality, whose
    complement rule pairs the k-th cut with the (2^n - 1 - k)-th
    (1-based ranks): cut_masks gives their bitmasks, enumerate_cuts
    the Cut objects;
  * two whole-table recurrences over the 2^(n-1) complement classes
    (a cut and its complement split the same pairs), each O(2^n) and
    in integers: cut_traces, the trace of every cut at once, and the
    dense path of combine_cuts, the pair-indexed sum of weighted cut
    metrics over the weights' common denominator
    (metric.integer_entries).  A sum of fewer terms than there are
    nontrivial classes, and every single cut vector, is built from
    metric.split_pairs instead;
  * the square cut-matrix (pair cuts only), its eigenprojectors and
    its exact inverse for n >= 5, each written down in closed form:
    entry (p, q) depends only on |p & q|, the number of vertices the
    pairs p and q share (they lie in the Johnson scheme J(n, 2); the
    entry formulas are in projectors and inverse_square_cut_matrix);
  * the vertex-pair incidence matrix behind the projector formulas;
  * the full cut-matrix with one column per nontrivial cut.

All matrices are dense tuples of Fractions.  Repeated entries are
shared objects, so even the widest configured case (n = 16, a
120 x 65534 full cut-matrix) stays within desk-scale memory.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from cutcones.metric import (
    integer_entries, num_pairs, pair_index, pair_table, split_pairs, vertex_pairs,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_MAX_N = 16


@dataclass(frozen=True)
class Cut:
    """Subset of {1,...,n} as a bitmask (bit k-1 set iff vertex k in C)."""

    n: int
    members: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got n={self.n}")
        # bit_length, not 1 << n: a hostile n must not cost an n-bit int
        if not (self.members >= 0 and self.members.bit_length() <= self.n):
            raise ValueError(f"bitmask {self.members:#x} out of range for n={self.n}")

    @classmethod
    def from_members(cls, n: int, vertices: Iterable[int]) -> "Cut":
        mask = 0
        for v in vertices:
            if not 1 <= v <= n:
                raise ValueError(f"vertex {v} out of range 1..{n}")
            mask |= 1 << (v - 1)
        return cls(n, mask)

    @property
    def member_list(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.members >> (v - 1) & 1)

    @property
    def size(self) -> int:
        return self.members.bit_count()

    @property
    def is_trivial(self) -> bool:
        """Empty or full cuts induce the zero semi-metric."""
        return self.members == 0 or self.members == (1 << self.n) - 1

    def complement(self) -> "Cut":
        return Cut(self.n, self.members ^ ((1 << self.n) - 1))

    def contains(self, v: int) -> bool:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return bool(self.members >> (v - 1) & 1)

    def separates(self, i: int, j: int) -> bool:
        """True iff exactly one of i, j lies in the cut."""
        return (self.members >> (i - 1) & 1) != (self.members >> (j - 1) & 1)


def pair_cut(n: int, i: int, j: int) -> Cut:
    """The two-element cut {i, j}."""
    if i == j:
        raise ValueError("pair cut needs two distinct vertices")
    return Cut.from_members(n, (i, j))


def cut_masks(n: int) -> list[int]:
    """Bitmasks of all 2^n - 2 nontrivial cuts, graded by size then
    lexicographic.

    The order makes the complement rule hold: with 1-based ranks, the
    complement of the k-th cut is the (2^n - 1 - k)-th.  There is no
    size cap here: the public paths that take n from their caller
    (enumerate_cuts, fullcut, the oracle) check it before they call.
    """
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got n={n}")
    bits = [1 << v for v in range(n)]
    return [sum(c) for size in range(1, n) for c in combinations(bits, size)]


def enumerate_cuts(n: int, *, max_n: int = DEFAULT_MAX_N) -> list[Cut]:
    """All 2^n - 2 nontrivial cuts, in cut_masks order, for n <= max_n."""
    if n > max_n:
        raise ValueError(f"n={n} exceeds the configured maximum {max_n}")
    return [Cut(n, mask) for mask in cut_masks(n)]


def cut_traces(n: int, values: Sequence[int]) -> list[int]:
    """Cut traces of pair-indexed ints: entry mask is the sum of
    values[p] over the pairs p that mask splits, for every mask below
    2^(n-1), i.e. every cut that leaves out vertex n.  A cut and its
    complement have the same trace, so any mask is looked up at
    min(mask, full ^ mask), full = 2^n - 1.

    Adding vertex v to a set S of smaller vertices splits v from every
    vertex outside S and rejoins it to those in S:
    s[S + v] = s[S] + star(v) - 2 t_v[S], with t_v[S] the sum of
    values(i, v) over i in S, built by doubling.  One list
    comprehension per vertex, O(2^n) in all.
    """
    rows = pair_table(n, values)
    traces = [0]
    for v in range(n - 1):
        row = rows[v]
        star = sum(row)
        twice_inside = [0]
        for i in range(v):
            x = 2 * row[i]
            twice_inside += [t + x for t in twice_inside]
        traces += [s + star - t for s, t in zip(traces, twice_inside)]
    return traces


def combine_cuts(
    n: int, terms: Iterable[tuple[int, Fraction | int]]
) -> tuple[Fraction, ...]:
    """Pair-indexed sum of w * delta(mask) over (mask, w) terms.

    The weights are cleared of denominators first, so the sum runs in
    integers over one common denominator.  With at least 2^(n-1) - 1
    nonzero terms, as many as there are nontrivial complement classes,
    the sum comes from one table over the classes (_table_cut_sum),
    which is then no larger than the input; fewer terms are added cut
    by cut over split_pairs.  A mask outside 0 .. 2^n - 1 raises
    ValueError on either path.
    """
    terms = [(mask, w) for mask, w in terms if w]
    scale, weights = integer_entries(w for _, w in terms)
    total = _cut_sum(n, [mask for mask, _ in terms], weights)
    return tuple(Fraction(x, scale) for x in total)


def _cut_sum(n: int, masks: Sequence[int], weights: Sequence[int]) -> list[int]:
    """Pair-indexed sum of k * delta(mask) over integer weights k: from
    _table_cut_sum for at least 2^(n-1) - 1 terms, else cut by cut over
    split_pairs, skipping zero weights."""
    if len(masks) >= (1 << (n - 1)) - 1:
        return _table_cut_sum(n, masks, weights)
    total = [0] * num_pairs(n)
    for mask, k in zip(masks, weights):
        if k:
            for p in split_pairs(n, mask):
                total[p] += k
    return total


def _table_cut_sum(n: int, masks: Sequence[int], weights: Sequence[int]) -> list[int]:
    """Pair-indexed sum of k * delta(mask), O(2^n) after the fold.

    The weights are folded onto a table over the masks that leave out
    the last vertex v (a mask holding v goes to its complement).  Then
    d(i, v) is the total weight of the entries that hold i: halving
    sums give it for every i < v, each halving adding the upper half
    (vertex i in) onto the lower.  Dropping v, the new last vertex
    v - 1 is folded the same way: entry S of the lower half takes the
    entry of its complement in {1, ..., v-1}, which is the upper half
    read backwards.
    """
    full = (1 << n) - 1
    table = [0] * (1 << (n - 1))
    for mask, k in zip(masks, weights):
        if not 0 <= mask <= full:
            raise ValueError(f"bitmask {mask:#x} out of range for n={n}")
        table[min(mask, full ^ mask)] += k
    total = [0] * num_pairs(n)
    for v in range(n, 1, -1):
        sums = table
        for i in range(v - 1, 0, -1):
            half = len(sums) // 2
            total[pair_index(i, v, n)] = sum(sums[half:])
            sums = list(map(operator.add, sums[:half], sums[half:]))
        half = len(table) // 2
        table = list(map(operator.add, table[:half], reversed(table[half:])))
    return total


def cut_metric_vector(cut: Cut) -> tuple[Fraction, ...]:
    """Pair-indexed 0/1 vector of the cut semi-metric (interned entries)."""
    vector = [_ZERO] * num_pairs(cut.n)
    for p in split_pairs(cut.n, cut.members):
        vector[p] = _ONE
    return tuple(vector)


# ---------------------------------------------------------------------------
# dense exact matrices


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of Fractions, row-major: the data type the matrix
    builders below return, and what lp_feasibility and
    io.matrix_to_text read.  It has read accessors and no arithmetic:
    each builder writes its matrix down entry by entry.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError(f"expected {self.cols} columns, got {len(r)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction]]) -> "RationalMatrix":
        data = tuple(tuple(row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        return cls(len(data), len(data[0]), data)

    def entry(self, r: int, c: int) -> Fraction:
        return self.entries[r][c]

    def row(self, r: int) -> tuple[Fraction, ...]:
        return self.entries[r]

    def column(self, c: int) -> tuple[Fraction, ...]:
        return tuple(row[c] for row in self.entries)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols, self.rows, tuple(zip(*self.entries))
        )


# ---------------------------------------------------------------------------
# the square cut-matrix (pair cuts) and its spectral pieces


def _pair_overlap_matrix(n: int, values: Sequence[Fraction | int]) -> RationalMatrix:
    """m x m matrix over the pairs in lexicographic order with entry
    (p, q) = values[|p & q|]; values[2] is the diagonal."""
    v = tuple(map(Fraction, values))
    pairs = vertex_pairs(n)
    return RationalMatrix.from_rows(
        [[v[(i in q) + (j in q)] for q in pairs] for i, j in pairs]
    )


def square_cut_matrix(n: int) -> RationalMatrix:
    """m x m matrix, m = n(n-1)/2: column for each pair cut {i, j}.

    Entry (p, q) is 1 iff pair cut q splits vertex pair p (|p & q| = 1):
    the adjacency matrix of the line graph of the complete graph,
    symmetric, zero diagonal, every row summing to 2(n-2).
    """
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got n={n}")
    return _pair_overlap_matrix(n, (0, 1, 0))


def incidence_matrix(n: int) -> RationalMatrix:
    """n x m vertex/pair incidence matrix B.

    B^T B = 2I + A with A the square cut-matrix, and
    B B^T = (n-2) I + J; both identities drive the projector formulas.
    """
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got n={n}")
    return RationalMatrix.from_rows(
        [
            [_ONE if v in (i, j) else _ZERO for i, j in vertex_pairs(n)]
            for v in range(1, n + 1)
        ]
    )


def projectors(n: int) -> tuple[RationalMatrix, RationalMatrix, RationalMatrix]:
    """Eigenprojectors of the square cut-matrix for n >= 5.

    Returned in eigenvalue order (-2, n-4, 2n-4) with ranks
    n(n-3)/2, n-1 and 1.  They are symmetric, idempotent, mutually
    annihilating, and sum to the identity; the matrix itself is
    -2 P_low + (n-4) P_mid + (2n-4) P_top.  With P_col = B^T (B B^T)^-1 B,
    B the incidence matrix: P_col(p, q) = |p & q|/(n-2) - 2/((n-1)(n-2)),
    P_top = J/m, P_mid = P_col - P_top and P_low = I - P_col.
    """
    if n < 5:
        raise ValueError(f"distinct eigenvalues require n >= 5, got n={n}")
    top = Fraction(1, num_pairs(n))
    col = [Fraction(k, n - 2) - Fraction(2, (n - 1) * (n - 2)) for k in range(3)]
    low = (-col[0], -col[1], 1 - col[2])
    return tuple(_pair_overlap_matrix(n, v) for v in (low, [x - top for x in col], [top] * 3))


def inverse_square_cut_matrix(n: int) -> RationalMatrix:
    """Exact inverse of the square cut-matrix, n >= 5.

    Entry (p, q) is -[p = q]/2 + |p & q|/(2(n-4)) - 1/((n-2)(n-4)),
    the matrix form of the pair-cut weights in paircut.  The matrix is
    singular at n = 4 (eigenvalue n-4 vanishes), so that case is
    rejected rather than approximated.
    """
    if n < 5:
        raise ValueError(f"square cut-matrix is invertible only for n >= 5, got n={n}")
    base, step = Fraction(-1, (n - 2) * (n - 4)), Fraction(1, 2 * (n - 4))
    return _pair_overlap_matrix(n, (base, base + step, base + 2 * step - Fraction(1, 2)))


def full_cut_matrix(n: int, *, max_n: int = DEFAULT_MAX_N) -> RationalMatrix:
    """m x (2^n - 2) matrix with one 0/1 column per nontrivial cut.

    Columns follow enumerate_cuts order; the first m columns whose cuts
    are pairs agree with the corresponding square cut-matrix columns.
    Satisfies S S^T = 2^{n-2} (I + J).
    """
    columns = map(cut_metric_vector, enumerate_cuts(n, max_n=max_n))
    return RationalMatrix.from_rows(list(zip(*columns)))
