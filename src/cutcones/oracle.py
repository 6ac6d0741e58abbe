"""Exact feasibility oracle for cut-cone and pair-cut-cone membership.

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
(the norm of an identity column), is below 2^(2W-2).  When every
column is 0/1 such a minor is a 0/1 determinant of order <= m, at most
(m+1)^((m+1)/2) / 2^m, and W takes the smaller bound (84 bits instead
of 106 for the cut cone at n=10; see _slot_width).  The basic values
and v are updated entry by entry, by the same exact divisions, and the
ratio test compares quotients by cross-multiplication.  The pivots are
those a dense Fraction tableau [A | I] would take: scaling A and d by
positive constants rescales w but changes no pivot and no Farkas
vector.

One generator set goes into every solve: a `_Generators`, the integer
sparse columns A of the cone under test with their slot width.  The
front end `_solve` takes it and the right-hand side d, clears d of
denominators, runs `_phase_one`, and rescales and re-checks the
certificate against d.  lp_feasibility clears a general RationalMatrix
M of denominators, A = s M (s > 0), and solves A w = s d, which has the
witness and Farkas vector of M w = d.  The cone verdicts take each 0/1
column delta(mask) of a vertex bitmask, built with split_pairs:
paircut_membership_exact passes the pair cuts {i, j} in vertex_pairs
order, and cutcone_membership one cut per complement pair (both give
the same column), the first in enumerate_cuts order, i.e. the first
2^(n-1) - 1 cuts.  A dropped column has at every step the reduced
profit of its kept twin, which has a smaller index, so Bland's rule
would never let it enter (and it is never basic): the pivots and
certificates are those over all 2^n - 2 columns, and the dropped cuts
get witness weight 0.  Each cone's generators are built once per n,
on first use, and kept in a small lru_cache (`_cut_cone`).

Both cones open with their small cuts: cut_masks is graded, so the cut
cone's first columns are the n singletons and then the pairs, and
every pair-cut column is a pair.  Their generators mark these as a
star-priced prefix, and `_bland`, the one scan of Bland's rule over the
original columns, prices it from the star sums s_a = sum_b v_ab,
computed once per pivot: v . delta(S) = sum_{a in S} s_a -
2 sum_{a < b in S} v_ab, one lookup for a singleton and three for a
pair.  That is the same integer as the sparse dot product, taken in
the same order, so Bland's rule picks the same column; larger cuts,
and the columns of lp_feasibility (whose prefix is empty), keep the
sparse dot product.

Bland's rule guarantees termination, and exact arithmetic makes the
verdict a proof once the certificate has been re-checked against d.
Both re-checks run in integers over the same sparse columns, and a
failed one raises RuntimeError:

  * feasible: a nonnegative witness w with A w = d, i.e.
    s_b sum_j w'_j A_j = q b for w = w' / q and d = b / s_b;
  * infeasible: a Farkas vector y, read off the final multipliers,
    with y . A_j <= 0 for every column and y . d > 0 (y cleared of
    denominators, which keeps every sign).  paircut_farkas builds one
    from the pair-cut closed form and re-checks it the same way.

Determinism: identical inputs take identical pivot sequences and
return identical certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isqrt, prod
from operator import mul
from typing import Callable, NamedTuple, Sequence

from cutcones.cut_algebra import RationalMatrix, cut_masks
from cutcones.metric import Metric, RationalLike, integer_entries, split_pairs, vertex_pairs

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

    When every column is 0/1 the bound is also at most
    (m+1)^(m+1) / 4^m, whichever is smaller.  Expanding a minor of
    [A | diag(sign)] along its unit columns leaves, up to sign, a 0/1
    determinant of some order k <= m (or 1 for k = 0).  Bordering a
    k x k 0/1 matrix and doubling it gives a (k+1) x (k+1) +-1 matrix
    with 2^k times its determinant (the correspondence behind
    Brenner-Cummings, Amer. Math. Monthly 1972), so Hadamard's
    inequality bounds it by (k+1)^((k+1)/2) / 2^k, which does not
    decrease with k.
    """
    norms = (len(rows) if vals is None else sum(x * x for x in vals) for rows, vals in columns)
    bound = prod(max(x, 1) for x in sorted(norms, reverse=True)[:m])
    if all(vals is None for _, vals in columns):
        bound = min(bound, (m + 1) ** (m + 1) // 4**m)
    return (isqrt(bound) + 1).bit_length() + 1


class _Generators(NamedTuple):
    """The generators of the cone under test, as integer sparse columns,
    their slot width, and an optional star-priced prefix.

    The prefix is empty for lp_feasibility.  A cut cone sets it: columns
    0 .. singles-1 are the cuts {1}, ..., {singles}; the next len(ends)
    columns are the pair cuts {a+1, b+1} for (a, b) in ends, the p-th of
    them on pair p of vertex_pairs order; stars[a] holds the indices of
    the pairs at vertex a + 1.
    """

    columns: Sequence[Column]
    width: int
    stars: tuple[tuple[int, ...], ...] = ()
    singles: int = 0
    ends: tuple[tuple[int, int], ...] = ()


def _bland(gens: _Generators, v: Sequence[int]) -> tuple[int, int]:
    """Bland's rule over the original columns: (index, reduced profit
    v . A_j) of the first column with positive profit, else (-1, 0).

    With the star sums s_a = sum_b v_ab, a cut S of the star-priced
    prefix has the profit v . delta(S) = sum_{a in S} s_a -
    2 sum_{a < b in S} v_ab, the same integer as the sparse dot product:
    one lookup for a singleton and three for a pair, after one star sum
    per vertex.  The columns after the prefix take the dot product.
    """
    get = v.__getitem__
    star = [sum(map(get, rows)) for rows in gens.stars]
    for a in range(gens.singles):
        if star[a] > 0:
            return a, star[a]
    for p, (a, b) in enumerate(gens.ends):
        profit = star[a] + star[b] - 2 * v[p]
        if profit > 0:
            return gens.singles + p, profit
    start = gens.singles + len(gens.ends)
    for j, (rows, vals) in enumerate(islice(gens.columns, start, None), start):
        profit = sum(map(get, rows)) if vals is None else sum(map(mul, vals, map(get, rows)))
        if profit > 0:
            return j, profit
    return -1, 0


def _phase_one(gens: _Generators, b: Sequence[int]) -> FeasibilityResult:
    """Decide A w = b, w >= 0 for the integer columns A of gens and
    integer b.

    The witness is over gens.columns and the Farkas vector y has
    y . A_j <= 0 for every column and y . b > 0; neither is checked
    here.
    """
    columns = gens.columns
    m, ncols = len(b), len(columns)
    sign = [-1 if x < 0 else 1 for x in b]
    # Entry i of a packed column sits in bits [W i, W i + W).  Adding
    # `bias` (half in every slot) makes every slot nonnegative, so a
    # slot decodes by shift and mask without borrows from below.
    width = gens.width
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
        # Bland: the first original column with positive reduced
        # profit, else the first artificial one.  An artificial column
        # costs 1, so its profit is sign_k y_k - 1.
        enter, profit = _bland(gens, v)
        if enter >= 0:
            packed = _dot(columns[enter], inv.__getitem__)
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


def _solve(gens: _Generators, rhs: Sequence[Fraction]) -> FeasibilityResult:
    """Decide A w = rhs, w >= 0 over the integer columns A of gens; the
    certificate is re-checked against rhs."""
    # A w = s_b rhs has s_b times the witness of A w = rhs.
    s_b, b = integer_entries(rhs)
    result = _phase_one(gens, b)
    if not result.feasible:
        _check_farkas(gens.columns, rhs, result.farkas)
        return result
    witness = tuple(w / s_b if w else w for w in result.witness)
    _check_witness(gens.columns, rhs, witness)
    return replace(result, witness=witness)


def _check_witness(
    columns: Sequence[Column], rhs: Sequence[Fraction], witness: Sequence[Fraction]
) -> None:
    """w >= 0 and A w = rhs for the integer columns A, in integers: with
    w = w' / q and rhs = b / s_b, s_b sum_j w'_j A_j = q b."""
    q, weights = integer_entries(witness)
    if any(k < 0 for k in weights):
        raise RuntimeError("simplex produced a negative witness entry")
    s_b, b = integer_entries(rhs)
    total = [0] * len(b)
    for (rows, vals), k in zip(columns, weights):
        if k:
            for i, x in zip(rows, vals or (1,) * len(rows)):
                total[i] += k * x
    if any(s_b * t != q * x for t, x in zip(total, b)):
        raise RuntimeError("simplex witness fails M w = d")


def _check_farkas(
    columns: Sequence[Column], rhs: Sequence[Fraction], y: Sequence[RationalLike]
) -> None:
    """y . A_j <= 0 on every column and y . rhs > 0, in integers: y and
    rhs are cleared of denominators first, which keeps every sign."""
    weighted = integer_entries(y)[1]
    get = weighted.__getitem__
    if any(_dot(column, get) > 0 for column in columns):
        raise RuntimeError("Farkas vector is positive on a cone generator")
    if sum(map(mul, weighted, integer_entries(rhs)[1])) <= 0:
        raise RuntimeError("Farkas vector is nonpositive on the target")


def lp_feasibility(matrix: RationalMatrix, rhs: Sequence[Fraction]) -> FeasibilityResult:
    """Decide M w = d, w >= 0 exactly; certificate is re-verified.

    The integer columns A = s M (s > 0) solve A w = s d, which has the
    pivots, witness and Farkas vector of M w = d.
    """
    if len(rhs) != matrix.rows:
        raise ValueError(f"rhs length {len(rhs)} != row count {matrix.rows}")
    scale, flat = integer_entries(x for row in matrix.entries for x in row)
    columns: list[Column] = []
    for c in range(matrix.cols):
        col = flat[c :: matrix.cols]
        rows = tuple(i for i, x in enumerate(col) if x)
        vals = tuple(col[i] for i in rows)
        columns.append((rows, None if all(x == 1 for x in vals) else vals))
    return _solve(_Generators(columns, _slot_width(columns, matrix.rows)), [scale * x for x in rhs])


# ---------------------------------------------------------------------------
# the cones of cut metrics, column by column from bitmasks


@lru_cache(maxsize=8)
def _cut_cone(kind: str, n: int) -> _Generators:
    """The generators of the cut cone ("cut": the 0/1 column delta(mask)
    of the first cut of each complement pair, in cut_masks order) or of
    the pair-cut cone ("pair": vertex_pairs order) at n, built on first
    use."""
    ends = [(i - 1, j - 1) for i, j in vertex_pairs(n)]
    if kind == "pair":
        masks, singles = [1 << i | 1 << j for i, j in ends], 0
    else:
        # cut_masks is graded: the n singletons, then the pairs in
        # vertex_pairs order, as far as the first half reaches
        masks = cut_masks(n)[: (1 << (n - 1)) - 1]
        singles = n
        ends = ends[: len(masks) - n]
    columns = tuple((tuple(split_pairs(n, mask)), None) for mask in masks)
    stars = tuple(tuple(split_pairs(n, 1 << a)) for a in range(n))
    width = _slot_width(columns, n * (n - 1) // 2)
    return _Generators(columns, width, stars, singles, tuple(ends))


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
    result = _solve(_cut_cone("cut", d.n), d.d)
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
    return _solve(_cut_cone("pair", d.n), d.d)


def paircut_farkas(d: Metric, pair: tuple[int, int]) -> tuple[int, ...]:
    """Closed-form Farkas vector of the pair-cut cone, n >= 5, re-checked.

    For the pair k = {i, j}, y_q = (n-2)(n-4)[q = k] - (n-2)|k & q| + 2
    over the pairs q is -2(n-2)(n-4) times row k of the inverse square
    cut-matrix.  So y . delta(pair cut p) = -2(n-2)(n-4)[p = k] <= 0,
    and y . d > 0 exactly when the closed-form weight of k is negative.
    """
    n = d.n
    if n < 5:
        raise ValueError(f"the closed-form Farkas vector needs n >= 5, got n={n}")
    k = set(pair)
    y = tuple((n - 2) * ((n - 4) * (q == k) - len(k & q)) + 2 for q in map(set, vertex_pairs(n)))
    _check_farkas(_cut_cone("pair", n).columns, d.d, y)
    return y
