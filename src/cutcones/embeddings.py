"""Exact coordinate embeddings: l1 from a cut decomposition, and the
max-norm realization of a graph's truncated metric.

A nonnegative cut decomposition d = sum w_C delta_C turns directly
into an l1 embedding: give each kept cut a coordinate and place
vertex i at w_C in coordinate C when i is inside C, else 0.  Opposite
sides of C then differ by w_C in that coordinate, so l1 distances
reproduce d exactly.

For the max norm, any connected graph G on n vertices embeds its
truncated metric (1 on edges, 2 on non-edges) into R^{n-1} with
coordinates in {0, 1, 2}: take the rows of A + 2I with the last
column dropped.  For distinct i, j some surviving coordinate is
diagonal, contributing |2 - a_ij|, and every off-diagonal coordinate
contributes at most 1, so the max distance is 1 on edges and 2 on
non-edges.  Since the truncated metric of a connected graph has
sphere-of-influence graph exactly G, the embedding also realizes G as
the SIG of n points.

induced_metric clears the coordinates of denominators once and takes
every distance in integers; verify_isometry compares it with d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from cutcones.cut_algebra import Cut
from cutcones.fullcut import CutCertificate
from cutcones.metric import Metric, integer_entries, vertex_pairs
from cutcones.sig import SimpleGraph

_ZERO = Fraction(0)

NORMS = ("l1", "linf")


@dataclass(frozen=True)
class PointSet:
    """Finite list of rational points under a tagged norm."""

    norm: str
    points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}, got {self.norm!r}")
        if not self.points:
            raise ValueError("point set must be nonempty")
        dim = len(self.points[0])
        for p in self.points:
            if len(p) != dim:
                raise ValueError("points must share one dimension")

    @property
    def dimension(self) -> int:
        return len(self.points[0])


def point_distance(
    x: Sequence[Fraction], y: Sequence[Fraction], norm: str
) -> Fraction:
    if len(x) != len(y):
        raise ValueError("points must share one dimension")
    diffs = [abs(a - b) for a, b in zip(x, y)]
    if norm == "l1":
        return Fraction(sum(diffs))
    if norm == "linf":
        return Fraction(max(diffs, default=0))
    raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")


def induced_metric(points: PointSet) -> Metric:
    """Pairwise-distance metric of the point set (needs >= 2 points),
    taken between integer rows over the coordinates' common denominator."""
    n, dim = len(points.points), points.dimension
    scale, flat = integer_entries(x for p in points.points for x in p)
    rows = [flat[k * dim : (k + 1) * dim] for k in range(n)]
    return Metric.from_function(
        n, lambda i, j: point_distance(rows[i - 1], rows[j - 1], points.norm) / scale
    )


@dataclass(frozen=True)
class IsometryReport:
    """Pairs where the point distances disagree with the metric."""

    norm: str
    mismatches: tuple[tuple[tuple[int, int], Fraction, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_isometry(points: PointSet, d: Metric) -> IsometryReport:
    """Exactly compare every pairwise distance against d."""
    if len(points.points) != d.n:
        raise ValueError(f"{len(points.points)} points vs metric on {d.n} vertices")
    mismatches = tuple(
        (pair, got, want)
        for pair, got, want in zip(vertex_pairs(d.n), induced_metric(points).d, d.d)
        if got != want
    )
    return IsometryReport(norm=points.norm, mismatches=mismatches)


def l1_embedding(cert: CutCertificate) -> PointSet:
    """Coordinates from a nonnegative cut decomposition, zero weights
    dropped.  Rejects negative weights.  If the certificate is valid
    for a metric d, the resulting l1 distances equal d exactly.
    """
    n, den = cert.n, cert._denominator
    terms = list(zip(cert._masks, cert._numerators))
    for mask, k in terms:
        if k < 0:
            raise ValueError(
                f"negative weight {Fraction(k, den)} on cut {Cut(n, mask).member_list}; "
                "an l1 embedding needs a conic decomposition"
            )
    kept = [(mask, Fraction(k, den)) for mask, k in terms if k]
    points = tuple(
        tuple(w if mask >> v & 1 else _ZERO for mask, w in kept) for v in range(n)
    )
    return PointSet(norm="l1", points=points)


def linf_sig_embedding(graph: SimpleGraph) -> PointSet:
    """Max-norm points in R^{n-1} realizing the truncated metric of a
    connected graph (entries in {0, 1, 2}): rows of A + 2I, last
    column dropped.  Rejects disconnected graphs (whose truncated
    metric is not a sphere-of-influence metric of the graph) and
    single vertices.
    """
    n = graph.n
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    if not graph.is_connected():
        raise ValueError("max-norm SIG embedding requires a connected graph")
    two = Fraction(2)
    one = Fraction(1)
    points = tuple(
        tuple(
            two if k == v else (one if graph.are_adjacent(v, k) else _ZERO)
            for k in range(1, n)
        )
        for v in range(1, n + 1)
    )
    return PointSet(norm="linf", points=points)
