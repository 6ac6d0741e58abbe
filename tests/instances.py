"""Seeded random instance generators for the tests: metrics inside the
cut cone (l1 points, cut combinations), inside the pair-cut cone
(pair-cut combinations), and semi-metrics that may lie in either cone
or neither, for cross-checking the closed forms against the exact
oracle.  The benchmark has generators of its own.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from cutcones.cut_algebra import combine_cuts, cut_masks
from cutcones.metric import Metric, pair_table, vertex_pairs


def random_rational(rng: random.Random, *, low: int, high: int, denom: int) -> Fraction:
    """Uniform p/denom with low <= p/denom <= high."""
    return Fraction(rng.randint(low * denom, high * denom), denom)


def random_l1_points_metric(n: int, rng: random.Random) -> Metric:
    """Metric of n random points of [0, 8]^3, coordinates in quarter
    steps, under the l1 norm.

    Always embeds in l1 by construction, hence lies in the cut cone.
    """
    pts = [tuple(random_rational(rng, low=0, high=8, denom=4) for _ in range(3)) for _ in range(n)]
    return Metric.from_function(
        n, lambda i, j: sum(abs(a - b) for a, b in zip(pts[i - 1], pts[j - 1]))
    )


def _random_combination(
    n: int, rng: random.Random, masks: Iterable[int], high: int, denom: int
) -> Metric:
    """Combination of the cut metrics of masks, each weight p/denom with
    0 <= p/denom <= high."""
    terms = [(mask, random_rational(rng, low=0, high=high, denom=denom)) for mask in masks]
    return Metric(n, combine_cuts(n, terms))


def random_cut_combination(n: int, rng: random.Random) -> Metric:
    """Nonnegative random combination of all nontrivial cut metrics,
    weights in [0, 3] in quarter steps.

    In the cut cone by construction.
    """
    return _random_combination(n, rng, cut_masks(n), high=3, denom=4)


def random_paircut_combination(
    n: int, rng: random.Random, *, high: int = 3, denom: int = 4
) -> Metric:
    """Nonnegative random combination of pair-cut metrics only, weights
    p/denom in [0, high].

    In the pair-cut cone (hence the cut cone) by construction.
    """
    masks = [1 << (i - 1) | 1 << (j - 1) for i, j in vertex_pairs(n)]
    return _random_combination(n, rng, masks, high, denom)


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
    values = [random_rational(rng, low=low, high=high, denom=denom) for _ in vertex_pairs(n)]
    dist = pair_table(n, values)
    for k, row_k in enumerate(dist):
        for row_i in dist:
            dik = row_i[k]
            for j, dkj in enumerate(row_k):
                if dik + dkj < row_i[j]:
                    row_i[j] = dik + dkj
    return Metric(n, tuple(x for i, row in enumerate(dist) for x in row[i + 1 :]))
