"""Exact feasibility oracle for cut-cone and pair-cut-cone membership,
plus seeded random metric generators for cross-checking closed forms.

Membership of d in the cone generated by the columns of A is the
feasibility of A w = d, w >= 0.  One phase-I simplex, `_phase_one`,
decides it: row i gets the artificial column sign(d_i) e_i, the solver
starts from the basis of artificials and minimizes their sum with
Bland's anti-cycling rule (the smallest-index column with positive
reduced profit enters, original columns before artificial ones; ties
in the ratio test go to the smallest basis variable).

The simplex is revised and fraction-free.  Columns are sparse integer
vectors that are never updated.  The solver keeps only

  * R = denom * B^-1, the m x m basis inverse (the artificial block of
    the full tableau, up to the signs of its columns), stored by
    columns: each column is one Python int with its m entries in
    signed W-bit slots, entry i in bits [W i, W i + W);
  * the basic values denom * B^-1 b;
  * v = denom * y, the simplex multipliers.

All three are integers over one shared positive denominator, the last
pivot element (Edmonds/Bareiss pivoting, as in Avis's lrs).  Column
j's reduced profit is v . A_j, a sparse dot product; only the entering
column R A_j is formed, as one sum of packed columns of R.  Each pivot
updates a packed column c, whose pivot-row entry is p, with one
big-int expression (c * piv - p * (R A_j)) / denom plus p back in the
pivot slot: every slot of the numerator is denom times an integer, so
the division is exact slot by slot and hence for the whole int.  Only
the entering column and the pivot row are decoded, by adding 2^(W-1)
to every slot and shifting and masking.  Every entry of R and R A_j is
a minor of order <= m of [A | I], so Hadamard's inequality fixes W:
the product of the m largest squared column norms, each floored at 1
(the norm of an identity column), is below 2^(2W-2).  The basic values
and v are updated entry by entry, by the same exact divisions, and the
ratio test compares quotients by cross-multiplication.  The pivots are
those a dense Fraction tableau [A | I] would take: scaling A and d by
positive constants rescales w but changes no pivot and no Farkas
vector.

There are two front ends:

  * lp_feasibility serves a general RationalMatrix, scaled to integers;
  * _cone_membership builds each 0/1 column delta(mask) from a vertex
    bitmask with split_pairs.  paircut_membership_exact passes the
    pair cuts {i, j} in vertex_pairs order; cutcone_membership passes
    one cut per complement pair (both give the same column), the first
    in enumerate_cuts order, i.e. the first 2^(n-1) - 1 cuts.  A
    dropped column has at every step the reduced profit of its kept
    twin, which has a smaller index, so Bland's rule would never let
    it enter (and it is never basic): the pivots and certificates are
    those over all 2^n - 2 columns, and the dropped cuts get witness
    weight 0.

Bland's rule guarantees termination, and exact arithmetic makes the
verdict a proof once the certificate, converted to Fractions, has been
re-checked against the unscaled generators.  Each front end does that
before it returns, and a failed re-check raises RuntimeError:

  * feasible: a nonnegative witness w with A w = d, checked by
    substitution; for the bitmask columns, combine_cuts sums w over
    the same masks;
  * infeasible: a Farkas vector y with y . A_j <= 0 for every column
    and y . d > 0, read off the final multipliers; for the cut cone
    every y . delta(mask) is read off one cut_traces table, for the
    pair cuts it is summed over the split_pairs of each mask.

Determinism: identical inputs take identical pivot sequences and
return identical certificates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import isqrt, prod
from operator import mul
from typing import Callable, Sequence

from cutcones.cut_algebra import DEFAULT_MAX_N, RationalMatrix, combine_cuts, cut_masks, cut_traces
from cutcones.metric import Metric, integer_entries, split_pairs, vertex_pairs

_ZERO = Fraction(0)

DEFAULT_CUTCONE_MAX_N = 10
DEFAULT_PAIRCUT_MAX_N = 14

# A sparse integer column: its nonzero rows and their values, with
# values None when every one of them is 1.
Column = tuple[tuple[int, ...], tuple[int, ...] | None]


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict of the LP oracle with its verified certificate.

    Exactly one of witness / farkas is set: witness is a nonnegative
    column-weight vector with M w = d; farkas is a row functional
    nonpositive on every column of M and positive on d.  pivots counts
    the simplex pivots; it takes no part in equality.
    """

    feasible: bool
    witness: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None
    pivots: int = field(default=0, compare=False)


def _dot(column: Column, get: Callable[[int], int]) -> int:
    rows, vals = column
    if vals is None:
        return sum(map(get, rows))
    return sum(map(mul, vals, map(get, rows)))


def _slot_width(columns: Sequence[Column], m: int) -> int:
    """Bits W of a signed slot that holds every entry of R and R A_j.

    Each such entry is, up to sign, a minor of order <= m of
    [A | diag(sign)], so by Hadamard's inequality its square is at most
    the product of the m largest squared column norms of that matrix.
    The artificial columns have norm 1, so each of the m largest norms
    of A is floored at 1; without the floor a zero column among them
    would make the bound 0.
    """
    norms = (len(rows) if vals is None else sum(x * x for x in vals) for rows, vals in columns)
    bound = prod(max(x, 1) for x in sorted(norms, reverse=True)[:m])
    return (isqrt(bound) + 1).bit_length() + 1


def _phase_one(columns: Sequence[Column], b: Sequence[int]) -> FeasibilityResult:
    """Decide A w = b, w >= 0 for integer A (given by its columns) and b.

    The witness is over `columns` and the Farkas vector y has
    y . A_j <= 0 for every column and y . b > 0; neither is checked
    here.
    """
    m, ncols = len(b), len(columns)
    sign = [-1 if x < 0 else 1 for x in b]
    # Entry i of a packed column sits in bits [W i, W i + W).  Adding
    # `bias` (half in every slot) makes every slot nonnegative, so a
    # slot decodes by shift and mask without borrows from below.
    width = _slot_width(columns, m)
    shifts = range(0, width * m, width)
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    bias = sum(half << s for s in shifts)
    # The starting basis is the artificial columns, B = diag(sign), so
    # R = B^-1 = B, the basic values are |b| and y = 1^T B^-1 = sign.
    inv = [x << s for x, s in zip(sign, shifts)]
    rhs = [abs(x) for x in b]
    v = list(sign)
    basis = list(range(ncols, ncols + m))
    denom = 1
    pivots = 0

    while True:
        # Bland: the first column with positive reduced profit.  An
        # artificial column costs 1, so its profit is sign_k y_k - 1.
        get = v.__getitem__
        for enter, column in enumerate(columns):
            profit = _dot(column, get)
            if profit > 0:
                packed = _dot(column, inv.__getitem__)
                break
        else:
            k = next((k for k in range(m) if sign[k] * v[k] > denom), None)
            if k is None:
                break
            enter = ncols + k
            profit = sign[k] * v[k] - denom
            packed = sign[k] * inv[k]
        biased = packed + bias
        entering = [((biased >> s) & mask) - half for s in shifts]
        # Ratio test rhs_i / a_i over a_i > 0 by cross-multiplication;
        # ties go to the smallest basis variable.
        leave = -1
        for i, a in enumerate(entering):
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = rhs[i] * entering[leave]
                best = rhs[leave] * a
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # The artificial sum is bounded below by 0, so this cannot
            # happen.
            raise RuntimeError("phase-I relaxation unbounded")
        # Fraction-free pivot: every entry x off the pivot row becomes
        # (x * piv - f * p) / denom, with f that row's entry in the
        # entering column and p the pivot-row entry; the division is
        # exact (the results are minors of the integer tableau).  The
        # pivot row keeps its integers and piv becomes the denominator.
        # On a packed column c with pivot-row entry p this is one
        # update: the pivot slot of c * piv - p * packed is
        # p * piv - p * piv = 0, every other slot is denom times the
        # new entry, so the whole int divides exactly, and p goes back
        # into the pivot slot.  A column with p = 0 is only rescaled.
        piv = entering[leave]
        shift = shifts[leave]
        prow = [(((c + bias) >> shift) & mask) - half for c in inv]
        pb = rhs[leave]
        inv = [
            (c * piv - p * packed) // denom + (p << shift) if p else c * piv // denom
            for c, p in zip(inv, prow)
        ]
        rhs = [(x * piv - f * pb) // denom for x, f in zip(rhs, entering)]
        rhs[leave] = pb
        v = [(x * piv - profit * p) // denom for x, p in zip(v, prow)]
        denom = piv
        basis[leave] = enter
        pivots += 1

    # Phase-I optimum is 0 iff no artificial variable stays positive.
    if not any(rhs[i] for i in range(m) if basis[i] >= ncols):
        witness = [_ZERO] * ncols
        for i, var in enumerate(basis):
            if var < ncols:
                witness[var] = Fraction(rhs[i], denom)
        return FeasibilityResult(True, tuple(witness), None, pivots)
    farkas = tuple(Fraction(x, denom) for x in v)
    return FeasibilityResult(False, None, farkas, pivots)


def lp_feasibility(matrix: RationalMatrix, rhs: Sequence[Fraction]) -> FeasibilityResult:
    """Decide M w = d, w >= 0 exactly; certificate is re-verified."""
    if len(rhs) != matrix.rows:
        raise ValueError(f"rhs length {len(rhs)} != row count {matrix.rows}")
    # Integer columns s_m M and right-hand side s_b d; the core's
    # witness is then s_b / s_m times that of M w = d.
    s_m, flat = integer_entries(x for row in matrix.entries for x in row)
    s_b, b = integer_entries(rhs)
    columns: list[Column] = []
    for c in range(matrix.cols):
        col = flat[c :: matrix.cols]
        rows = tuple(i for i, x in enumerate(col) if x)
        vals = tuple(col[i] for i in rows)
        columns.append((rows, None if all(x == 1 for x in vals) else vals))
    result = _phase_one(columns, b)
    if not result.feasible:
        _check_farkas(matrix, rhs, result.farkas)
        return result
    factor = Fraction(s_m, s_b)
    witness = tuple(w * factor for w in result.witness)
    _check_witness(matrix, rhs, witness)
    return replace(result, witness=witness)


def _check_witness(
    matrix: RationalMatrix, rhs: Sequence[Fraction], witness: Sequence[Fraction]
) -> None:
    if any(w < 0 for w in witness):
        raise RuntimeError("simplex produced a negative witness entry")
    if list(matrix.mul_vector(witness)) != [Fraction(x) for x in rhs]:
        raise RuntimeError("simplex witness fails M w = d")


def _check_farkas(
    matrix: RationalMatrix, rhs: Sequence[Fraction], y: Sequence[Fraction]
) -> None:
    totals = [_ZERO] * matrix.cols
    for row, yi in zip(matrix.entries, y):
        if yi:
            totals = [t + a * yi if a else t for t, a in zip(totals, row)]
    if any(t > 0 for t in totals):
        raise RuntimeError("Farkas vector is positive on a cone generator")
    if sum(yi * Fraction(x) for yi, x in zip(y, rhs)) <= 0:
        raise RuntimeError("Farkas vector is nonpositive on the target")


# ---------------------------------------------------------------------------
# the cones of cut metrics, column by column from bitmasks


def _cone_membership(d: Metric, masks: Sequence[int]) -> FeasibilityResult:
    """Membership of d in the cone of the cut metrics delta(mask).

    The witness follows the order of masks; both certificates are
    re-checked over the same masks.
    """
    scale, b = integer_entries(d.d)
    result = _phase_one([(tuple(split_pairs(d.n, mask)), None) for mask in masks], b)
    if not result.feasible:
        _check_cut_farkas(d, masks, result.farkas)
        return result
    witness = tuple(w / scale for w in result.witness)
    _check_cut_witness(d, masks, witness)
    return replace(result, witness=witness)


def _check_cut_witness(d: Metric, masks: Sequence[int], w: Sequence[Fraction]) -> None:
    """Sum of the w-weighted cut metrics delta(mask) is d."""
    if any(x.numerator < 0 for x in w):
        raise RuntimeError("simplex produced a negative witness entry")
    if combine_cuts(d.n, zip(masks, w)) != d.d:
        raise RuntimeError("simplex witness fails M w = d")


def _check_cut_farkas(d: Metric, masks: Sequence[int], y: Sequence[Fraction]) -> None:
    """y . delta(mask) <= 0 on every mask and y . d > 0.

    y is cleared of denominators first, which keeps every sign.  With
    one mask per complement class or more (the cut cone), every
    y . delta(mask) is read off one cut_traces table; fewer masks (the
    pair cuts) are summed one by one over split_pairs.
    """
    n = d.n
    weighted = integer_entries(y)[1]
    if len(masks) >= (1 << (n - 1)) - 1:
        traces = cut_traces(n, weighted)
        full = (1 << n) - 1
        values = (traces[min(mask, full ^ mask)] for mask in masks)
    else:
        values = (sum(weighted[p] for p in split_pairs(n, mask)) for mask in masks)
    if any(x > 0 for x in values):
        raise RuntimeError("Farkas vector is positive on a cut metric")
    if sum(yi * x for yi, x in zip(y, d.d)) <= 0:
        raise RuntimeError("Farkas vector is nonpositive on the target")


def cutcone_membership(
    d: Metric, *, max_n: int = DEFAULT_CUTCONE_MAX_N
) -> FeasibilityResult:
    """Exact membership of d in the full cut cone.

    Witness weights follow enumerate_cuts order over all 2^n - 2
    nontrivial cuts; a cut and its complement are one column, so only
    the first cut of each pair can carry weight.  The column count is
    exponential, so the input size is capped (default n <= 10).
    """
    if d.n > max_n:
        raise ValueError(f"n={d.n} exceeds the cut-cone oracle maximum {max_n}")
    if d.n < 3:
        raise ValueError(f"need at least 3 vertices, got n={d.n}")
    masks = cut_masks(d.n, max_n=d.n)
    result = _cone_membership(d, masks[: len(masks) // 2])
    if not result.feasible:
        return result
    return replace(result, witness=result.witness + (_ZERO,) * len(result.witness))


def paircut_membership_exact(
    d: Metric, *, max_n: int = DEFAULT_PAIRCUT_MAX_N
) -> FeasibilityResult:
    """Exact membership of d in the pair-cut cone, any n >= 3.

    Witness weights follow vertex_pairs order.  Unlike the closed form
    this covers n in {3, 4}; for n >= 5 the two must agree, and on
    membership the witness is the unique weight vector (the pair-cut
    matrix is invertible there).
    """
    if d.n > max_n:
        raise ValueError(f"n={d.n} exceeds the pair-cut oracle maximum {max_n}")
    if d.n < 3:
        raise ValueError(f"need at least 3 vertices, got n={d.n}")
    return _cone_membership(d, [1 << (i - 1) | 1 << (j - 1) for i, j in vertex_pairs(d.n)])


# ---------------------------------------------------------------------------
# seeded random generators (for property tests and cross-checks)


def random_rational(rng: random.Random, *, low: int, high: int, denom: int) -> Fraction:
    """Uniform p/denom with low <= p/denom <= high."""
    return Fraction(rng.randint(low * denom, high * denom), denom)


def random_l1_points_metric(
    n: int,
    rng: random.Random,
    *,
    dim: int = 3,
    coord_bound: int = 8,
    denom: int = 4,
) -> Metric:
    """Metric of n random rational points under the l1 norm.

    Always embeds in l1 by construction, hence lies in the cut cone.
    """
    pts = [
        tuple(
            random_rational(rng, low=0, high=coord_bound, denom=denom)
            for _ in range(dim)
        )
        for _ in range(n)
    ]
    return Metric.from_function(
        n, lambda i, j: sum(abs(a - b) for a, b in zip(pts[i - 1], pts[j - 1]))
    )


def random_cut_combination(
    n: int,
    rng: random.Random,
    *,
    low: int = 0,
    high: int = 3,
    denom: int = 4,
    max_n: int = DEFAULT_MAX_N,
) -> Metric:
    """Nonnegative random combination of all nontrivial cut metrics.

    In the cut cone by construction.  low/high bound each weight.
    """
    if low < 0:
        raise ValueError("weights must stay nonnegative")
    terms = [
        (mask, random_rational(rng, low=low, high=high, denom=denom))
        for mask in cut_masks(n, max_n=max_n)
    ]
    return Metric(n, combine_cuts(n, terms))


def random_paircut_combination(
    n: int,
    rng: random.Random,
    *,
    low: int = 0,
    high: int = 3,
    denom: int = 4,
) -> Metric:
    """Nonnegative random combination of pair-cut metrics only.

    In the pair-cut cone (hence the cut cone) by construction.
    """
    if low < 0:
        raise ValueError("weights must stay nonnegative")
    terms = [
        (
            1 << (i - 1) | 1 << (j - 1),
            random_rational(rng, low=low, high=high, denom=denom),
        )
        for i, j in vertex_pairs(n)
    ]
    return Metric(n, combine_cuts(n, terms))


def random_semimetric(
    n: int,
    rng: random.Random,
    *,
    low: int = 1,
    high: int = 8,
    denom: int = 4,
) -> Metric:
    """Random semi-metric: random positive entries repaired by taking
    shortest paths over the complete graph (Floyd-Warshall), which
    enforces every triangle inequality without leaving the rationals.
    May or may not belong to either cone.
    """
    dist = [[_ZERO] * (n + 1) for _ in range(n + 1)]
    for i, j in vertex_pairs(n):
        v = random_rational(rng, low=low, high=high, denom=denom)
        dist[i][j] = dist[j][i] = v
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            dik = dist[i][k]
            for j in range(1, n + 1):
                via = dik + dist[k][j]
                if i != j and via < dist[i][j]:
                    dist[i][j] = via
    return Metric.from_function(n, lambda i, j: dist[i][j])
