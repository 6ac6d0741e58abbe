"""Row-major reference for `cutcones.oracle._phase_one`.

The same fraction-free phase-I simplex with Bland's rule, keeping
R = denom * B^-1 as m lists of m Python ints and updating it entry by
entry.  Tests compare the packed-column solver against it: both are
exact, so verdict, witness, Farkas vector and pivot count must agree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from cutcones.oracle import Column, FeasibilityResult, _dot

_ZERO = Fraction(0)


def reference_phase_one(columns: Sequence[Column], b: Sequence[int]) -> FeasibilityResult:
    """Decide A w = b, w >= 0 for integer A (given by its columns) and b.

    The witness is over `columns` and the Farkas vector y has
    y . A_j <= 0 for every column and y . b > 0; neither is checked
    here.
    """
    m, ncols = len(b), len(columns)
    sign = [-1 if x < 0 else 1 for x in b]
    # The starting basis is the artificial columns, B = diag(sign), so
    # R = B^-1 = B, the basic values are |b| and y = 1^T B^-1 = sign.
    inv = [[sign[i] if k == i else 0 for k in range(m)] for i in range(m)]
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
                entering = [_dot(column, row.__getitem__) for row in inv]
                break
        else:
            k = next((k for k in range(m) if sign[k] * v[k] > denom), None)
            if k is None:
                break
            enter = ncols + k
            profit = sign[k] * v[k] - denom
            entering = [sign[k] * row[k] for row in inv]
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
        # Fraction-free pivot: every entry x of another row becomes
        # (x * piv - f * p) / denom, with f that row's entry in the
        # entering column and p the pivot-row entry; the division is
        # exact (the results are minors of the integer tableau).  The
        # pivot row keeps its integers and piv becomes the denominator.
        piv = entering[leave]
        prow = inv[leave]
        pb = rhs[leave]
        for i, f in enumerate(entering):
            if i == leave:
                continue
            if f:
                inv[i] = [(x * piv - f * p) // denom for x, p in zip(inv[i], prow)]
                rhs[i] = (rhs[i] * piv - f * pb) // denom
            elif piv != denom:
                inv[i] = [x * piv // denom for x in inv[i]]
                rhs[i] = rhs[i] * piv // denom
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
