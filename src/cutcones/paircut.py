"""Membership in the cone generated by the pair-cut semi-metrics.

For n >= 5 the square cut-matrix is invertible, so a metric d has a
unique representation as a linear combination of pair-cut metrics, and
membership in the pair-cut cone is equivalent to that combination
being nonnegative.  The weight on the pair cut {i, j} has the closed
form

    w(i,j) = -d(i,j)/2 - Tr(d)/((n-2)(n-4)) + (s_i + s_j)/(2(n-4)),

with Tr the sum of all distances and s_i the star trace at vertex i.
Nonnegativity of w(i,j) rearranges to the membership inequality

    s_i + s_j >= (n-4) d(i,j) + 2 Tr(d) / (n-2),

with equality allowed (the cone is closed).  This module evaluates the
weights, the inequalities, the per-vertex necessary condition
(n-2) s_i >= Tr(d), and the constant-star shortcut.  All arithmetic is
exact; verdicts on boundary cases depend on it.  The weights and
slacks are evaluated in integers, on metric.integer_table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cutcones.metric import Metric, integer_table, summarize, vertex_pairs


@dataclass(frozen=True)
class PaircutVerdict:
    """Membership verdict with the unique weights and any violations.

    weights follow lexicographic pair order.  violations lists
    ((i, j), slack) for every pair whose membership inequality fails,
    slack = s_i + s_j - (n-4) d(i,j) - 2 Tr/(n-2) < 0.  member is True
    exactly when violations is empty, which happens exactly when all
    weights are nonnegative (slack = 2(n-4) * weight).
    """

    n: int
    member: bool
    weights: tuple[Fraction, ...]
    violations: tuple[tuple[tuple[int, int], Fraction], ...]


def paircut_weights(d: Metric) -> tuple[Fraction, ...]:
    """Unique pair-cut weights reproducing d, lexicographic pair order.

    Requires n >= 5; equals the inverse square cut-matrix applied to
    the metric vector, but in closed form from the trace and star
    traces.  Sum of weights times the pair-cut metrics gives back d
    exactly; weights may be negative when d is outside the cone.
    """
    n = d.n
    if n < 5:
        raise ValueError(f"closed-form weights require n >= 5, got n={n}")
    return _weights(n, *_slack_numerators(d))


def _slack_numerators(d: Metric) -> tuple[list[int], int]:
    """Membership slacks in pair order over one common denominator.

    With q clearing the denominators of d, (n-2) q times
    s_i + s_j - (n-4) d(i,j) - 2 Tr/(n-2) is an integer; returns those
    integers and (n-2) q.
    """
    n = d.n
    den, rows = integer_table(d)
    stars = [sum(row) for row in rows]
    rhs = sum(stars)  # twice the trace
    numerators = [
        (n - 2) * (stars[i] + stars[j] - (n - 4) * row[j]) - rhs
        for i, row in enumerate(rows)
        for j in range(i + 1, n)
    ]
    return numerators, (n - 2) * den


def _weights(n: int, numerators: list[int], den: int) -> tuple[Fraction, ...]:
    # weight = slack / (2(n-4))
    return tuple(Fraction(t, 2 * (n - 4) * den) for t in numerators)


def paircut_membership(d: Metric) -> PaircutVerdict:
    """Decide membership in the pair-cut cone for n >= 5.

    Checks s_i + s_j >= (n-4) d(i,j) + 2 Tr/(n-2) for every pair;
    equality is membership.  The verdict carries the unique weights
    and the violated pairs with their (negative) slacks.
    """
    n = d.n
    if n < 5:
        raise ValueError(
            f"closed-form membership requires n >= 5, got n={n}; "
            "use the exact oracle for smaller inputs"
        )
    numerators, den = _slack_numerators(d)
    violations = tuple(
        ((i, j), Fraction(t, den))
        for (i, j), t in zip(vertex_pairs(n), numerators)
        if t < 0
    )
    return PaircutVerdict(
        n=n,
        member=not violations,
        weights=_weights(n, numerators, den),
        violations=violations,
    )


@dataclass(frozen=True)
class NecessaryReport:
    """Per-vertex slacks of the necessary condition (n-2) s_i >= Tr(d).

    Any negative slack certifies non-membership in the pair-cut cone;
    all slacks nonnegative is inconclusive.
    """

    n: int
    slacks: tuple[Fraction, ...]

    @property
    def certifies_non_membership(self) -> bool:
        return any(x < 0 for x in self.slacks)


def necessary_condition(d: Metric) -> NecessaryReport:
    """Evaluate (n-2) s_i - Tr(d) for every vertex (n >= 5)."""
    n = d.n
    if n < 5:
        raise ValueError(f"the necessary condition applies for n >= 5, got n={n}")
    s = summarize(d)
    return NecessaryReport(
        n=n,
        slacks=tuple((n - 2) * si - s.trace for si in s.star_traces),
    )


@dataclass(frozen=True)
class ConstantStarVerdict:
    """Shortcut verdict for metrics whose star traces are all equal.

    member <=> max pairwise distance <= star_trace / (n-2).
    """

    n: int
    star_trace: Fraction
    bound: Fraction
    max_distance: Fraction
    member: bool


def constant_star_shortcut(d: Metric) -> ConstantStarVerdict | None:
    """Decide membership when all star traces coincide; None otherwise.

    Requires n >= 5 (same regime as the closed form it shortcuts).
    """
    n = d.n
    if n < 5:
        raise ValueError(f"shortcut applies for n >= 5, got n={n}")
    s = summarize(d)
    first = s.star_traces[0]
    if any(x != first for x in s.star_traces[1:]):
        return None
    bound = Fraction(first, n - 2)
    top = max(d.d)
    return ConstantStarVerdict(
        n=n,
        star_trace=first,
        bound=bound,
        max_distance=top,
        member=top <= bound,
    )
