"""Finite semi-metrics over exact rationals.

A semi-metric on the vertex set {1, ..., n} is stored as a vector of
Fractions indexed by unordered pairs {i, j} in lexicographic order:
(1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n).  Everything downstream
(cone membership, cut decompositions, embeddings) does exact rational
arithmetic on these vectors.  Several of the membership inequalities
are tight on natural examples, so nothing here may round: floats are
rejected at the door instead of being coerced.

pair_table is the one builder of the symmetric n x n table, and
integer_table gives the table of q * d over d's common denominator q:
validation, star traces (row sums), pair-cut slacks, cut traces and
sphere-of-influence radii all read it.

Vertices are 1-based throughout; pair indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from cutcones.cut_algebra import Cut

RationalLike = int | Fraction

# Digits one rational token may hold (io), and so also the digits of
# the common denominator of the rationals of one input: a metric's
# entries, a certificate's weights, the star obstruction's --a lengths.
MAX_TOKEN_DIGITS = 4300

_ZERO = Fraction(0)


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction.  Floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"exact rational required, got {type(x).__name__}")
    return Fraction(x)


def num_pairs(n: int) -> int:
    """Number of unordered pairs of {1,...,n}."""
    return n * (n - 1) // 2


def vertex_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered pairs of {1,...,n} in lexicographic order."""
    return list(combinations(range(1, n + 1), 2))


def pair_index(i: int, j: int, n: int) -> int:
    """Zero-based rank of the pair {i, j} in lexicographic order.

    Closed form (i-1)(2n-i)/2 + (j-i-1), a bijection onto
    0 .. n(n-1)/2 - 1 for 1 <= i < j <= n.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}) with n={n}")
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


@dataclass(frozen=True)
class Metric:
    """Semi-metric candidate on {1,...,n}, pair-indexed vector of Fractions.

    Construction checks shape only; use validate_metric for the
    semi-metric / strict-metric axioms.  Instances are immutable and
    safe to share across threads.
    """

    n: int
    d: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got n={self.n}")
        entries = tuple(as_fraction(x) for x in self.d)
        if len(entries) != num_pairs(self.n):
            raise ValueError(
                f"metric on {self.n} vertices needs {num_pairs(self.n)} "
                f"entries, got {len(entries)}"
            )
        object.__setattr__(self, "d", entries)

    @classmethod
    def from_function(cls, n: int, dist: Callable[[int, int], RationalLike]) -> "Metric":
        """Build from a symmetric distance function on vertex pairs."""
        return cls(n, tuple(dist(i, j) for i, j in vertex_pairs(n)))

    def distance(self, i: int, j: int) -> Fraction:
        """d(i, j); symmetric, zero on the diagonal."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"vertices must lie in 1..{self.n}, got ({i}, {j})")
        if i == j:
            return _ZERO
        a, b = (i, j) if i < j else (j, i)
        return self.d[pair_index(a, b, self.n)]

    def scaled(self, factor: RationalLike) -> "Metric":
        """Entrywise multiple of the metric."""
        f = as_fraction(factor)
        return Metric(self.n, tuple(f * x for x in self.d))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_metric.

    triangle_violations holds (i, j, k, slack) with slack =
    d(i,k) + d(k,j) - d(i,j) < 0; negative_entries holds (i, j, value);
    zero_entries holds off-diagonal pairs (i, j) with d(i,j) = 0 and is
    only populated in strict mode.  An empty report means valid.
    """

    strict: bool
    triangle_violations: tuple[tuple[int, int, int, Fraction], ...]
    negative_entries: tuple[tuple[int, int, Fraction], ...]
    zero_entries: tuple[tuple[int, int], ...]

    @property
    def valid(self) -> bool:
        return not (self.triangle_violations or self.negative_entries or self.zero_entries)


def integer_entries(values: Iterable[RationalLike]) -> tuple[int, list[int]]:
    """Common denominator q of the ints and Fractions in values (their
    lcm, 1 for no values) and q * x for each value x, as ints."""
    values = tuple(values)
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _capped_lcm(dens: Iterable[int], what: str) -> int:
    """The lcm of the positive dens, folded over the distinct ones.

    ValueError, naming what the dens belong to, as soon as it holds more
    than MAX_TOKEN_DIGITS digits: D tokens of D digits each would
    otherwise cost a D^2-digit denominator and every numerator as wide.
    """
    den = 1
    for q in set(dens):
        den = lcm(den, q)
        # below 2^(3D) < 10^D it has at most D digits
        if den.bit_length() > 3 * MAX_TOKEN_DIGITS and den >= 10**MAX_TOKEN_DIGITS:
            raise ValueError(
                f"{what} have a common denominator of more than {MAX_TOKEN_DIGITS} digits"
            )
    return den


def _over_one_denominator(nums: Sequence[int], dens: Sequence[int]) -> tuple[list[int], int]:
    """The certificate weights nums[k] / dens[k], dens[k] > 0, as integer
    numerators over their least common denominator, and that
    denominator.

    The lcm is checked by _capped_lcm before any numerator is scaled to
    it; one gcd then reduces it to the least common denominator, should
    some weight not be in lowest terms.
    """
    den = _capped_lcm(dens, "certificate weights")
    scale = {q: den // q for q in set(dens)}
    numerators = [k * scale[q] for k, q in zip(nums, dens)]
    g = gcd(den, *numerators)
    if g > 1:
        return [k // g for k in numerators], den // g
    return numerators, den


def pair_table(n: int, values: Sequence[RationalLike]) -> list[list[RationalLike]]:
    """Symmetric n x n table of pair-indexed values, zero diagonal: entry
    [i-1][j-1] is values[pair_index(i, j, n)] for i < j.  Row i is the
    column of the rows before it, a zero, then the pairs (i, j > i)."""
    if len(values) != num_pairs(n):
        raise ValueError(f"{n} vertices need {num_pairs(n)} pair values, got {len(values)}")
    rows: list[list[RationalLike]] = []
    start = 0
    for i in range(n):
        stop = start + n - 1 - i
        rows.append([row[i] for row in rows] + [0] + list(values[start:stop]))
        start = stop
    return rows


def integer_table(d: Metric) -> tuple[int, list[list[int]]]:
    """Common denominator q of d and the pair table of q * d, in ints."""
    den, entries = integer_entries(d.d)
    return den, pair_table(d.n, entries)


def validate_metric(d: Metric, *, strict: bool = False) -> ValidationReport:
    """Check the semi-metric axioms (strict: also no zero off-diagonal).

    Symmetry and a zero diagonal hold by construction of Metric; what
    remains is nonnegativity and every triangle inequality
    d(i,j) <= d(i,k) + d(k,j).  All violations are reported, not just
    the first, in (i, j, k) order.
    """
    return _validate_table(*integer_table(d), strict=strict)


def _validate_table(den: int, rows: list[list[int]], *, strict: bool) -> ValidationReport:
    """validate_metric on the integer table of q * d.

    For each pair i < j, rows i and j are summed and screened against
    d(i,j) in one pass; only a pair whose screen fails is walked k by
    k.  The k = i and k = j terms equal d(i,j), so they never trip the
    screen or show up as violations.
    """
    n = len(rows)
    negatives = []
    zeros = []
    triangles = []
    for i, row_i in enumerate(rows, start=1):
        for j in range(i + 1, n + 1):
            row_j = rows[j - 1]
            dij = row_i[j - 1]
            if dij < 0:
                negatives.append((i, j, Fraction(dij, den)))
            elif strict and dij == 0:
                zeros.append((i, j))
            if min(map(add, row_i, row_j)) >= dij:
                continue
            for k, (a, b) in enumerate(zip(row_i, row_j), start=1):
                slack = a + b - dij
                if slack < 0:
                    triangles.append((i, j, k, Fraction(slack, den)))
    return ValidationReport(
        strict=strict,
        triangle_violations=tuple(triangles),
        negative_entries=tuple(negatives),
        zero_entries=tuple(zeros),
    )


@dataclass(frozen=True)
class MetricSummary:
    """Trace and star traces of a metric.

    trace = sum of all pairwise distances; star_traces[i-1] = sum of
    distances from vertex i.  Twice the trace equals the sum of the
    star traces.
    """

    n: int
    trace: Fraction
    star_traces: tuple[Fraction, ...]

    def star_trace(self, i: int) -> Fraction:
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex must lie in 1..{self.n}, got {i}")
        return self.star_traces[i - 1]


def summarize(d: Metric) -> MetricSummary:
    """The trace and all star traces: the star traces are the row sums
    of the integer table, and the trace is half their sum."""
    den, rows = integer_table(d)
    stars = [sum(row) for row in rows]
    return MetricSummary(
        n=d.n,
        trace=Fraction(sum(stars) // 2, den),
        star_traces=tuple(Fraction(s, den) for s in stars),
    )


def split_pairs(n: int, mask: int) -> list[int]:
    """Ascending indices of the pairs {i, j} split by a vertex bitmask.

    Bit k-1 of mask stands for vertex k.  The pair-indexed 0/1 vector
    of the cut semi-metric is 1 exactly at these indices; a trivial
    mask (empty or full) splits no pair.
    """
    full = (1 << n) - 1
    if not 0 <= mask <= full:
        raise ValueError(f"bitmask {mask:#x} out of range for n={n}")
    out = []
    base = -1  # index of the pair (i, i+1), minus one
    for i in range(n - 1):
        # the vertices j > i on the other side of the cut from i
        other = (full ^ mask if mask >> i & 1 else mask) >> (i + 1)
        while other:
            low = other & -other
            out.append(base + low.bit_length())
            other ^= low
        base += n - 1 - i
    return out


def cut_trace(d: Metric, cut: "Cut") -> Fraction:
    """Sum of d(i, j) over pairs split by the cut.

    Equals the inner product of the metric vector with the cut's
    0/1 metric vector.  For a pair cut {i, j} this comes to
    s_i + s_j - 2 d(i,j).
    """
    if cut.n != d.n:
        raise ValueError(f"cut on {cut.n} vertices vs metric on {d.n}")
    if cut.is_trivial:
        raise ValueError("cut trace is defined for nontrivial cuts only")
    return sum((d.d[p] for p in split_pairs(d.n, cut.members)), _ZERO)
