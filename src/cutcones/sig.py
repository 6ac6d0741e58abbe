"""Sphere-of-influence graphs (SIGs) of strict finite metrics.

Each vertex i of a strict metric d gets the radius r_i = min distance
to any other vertex; i and j are adjacent in the SIG exactly when
d(i, j) < r_i + r_j (strict inequality: a tie is a non-edge).  The
module also provides the two canonical metrics of a simple graph (the
truncated metric with 1 on edges and 2 on non-edges, and the
shortest-path metric), a small catalog of graph families, and the
star-graph construction that manufactures SIG-metrics lying outside
the pair-cut cone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from cutcones.metric import (
    Metric,
    RationalLike,
    as_fraction,
    integer_entries,
    validate_metric,
    vertex_pairs,
)
from cutcones.paircut import PaircutVerdict, paircut_membership

_ONE = Fraction(1)
_TWO = Fraction(2)


@dataclass(frozen=True)
class SimpleGraph:
    """Simple undirected graph on {1,...,n}, adjacency as row bitmasks."""

    n: int
    adjacency: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least 1 vertex, got n={self.n}")
        if len(self.adjacency) != self.n:
            raise ValueError(
                f"expected {self.n} adjacency rows, got {len(self.adjacency)}"
            )
        for v, row in enumerate(self.adjacency, start=1):
            if not 0 <= row < (1 << self.n):
                raise ValueError(f"adjacency row for vertex {v} out of range")
            if row >> (v - 1) & 1:
                raise ValueError(f"loop at vertex {v}")
        for i, j in vertex_pairs(self.n):
            if (self.adjacency[i - 1] >> (j - 1) & 1) != (
                self.adjacency[j - 1] >> (i - 1) & 1
            ):
                raise ValueError(f"asymmetric adjacency between {i} and {j}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        rows = [0] * n
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) out of range 1..{n}")
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            rows[i - 1] |= 1 << (j - 1)
            rows[j - 1] |= 1 << (i - 1)
        return cls(n, tuple(rows))

    def are_adjacent(self, i: int, j: int) -> bool:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"vertices must lie in 1..{self.n}, got ({i}, {j})")
        return i != j and bool(self.adjacency[i - 1] >> (j - 1) & 1)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j) for i, j in vertex_pairs(self.n) if self.are_adjacent(i, j)
        )

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self.adjacency[v - 1].bit_count()

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = 1
        queue = deque([1])
        while queue:
            v = queue.popleft()
            row = self.adjacency[v - 1]
            new = row & ~seen
            while new:
                low = new & -new
                seen |= low
                queue.append(low.bit_length())
                new ^= low
        return seen == (1 << self.n) - 1


# ---------------------------------------------------------------------------
# metrics of a graph


def truncated_metric(graph: SimpleGraph) -> Metric:
    """Distance 1 on edges, 2 on non-edges: always a strict metric."""
    if graph.n < 2:
        raise ValueError(f"need at least 2 vertices, got n={graph.n}")
    return Metric.from_function(
        graph.n, lambda i, j: _ONE if graph.are_adjacent(i, j) else _TWO
    )


def graph_metric(graph: SimpleGraph) -> Metric:
    """Shortest-path (hop count) metric; rejects disconnected graphs."""
    if graph.n < 2:
        raise ValueError(f"need at least 2 vertices, got n={graph.n}")
    n = graph.n
    dist = [[0] * (n + 1) for _ in range(n + 1)]
    for src in range(1, n + 1):
        seen = 1 << (src - 1)
        frontier = [src]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for v in frontier:
                row = graph.adjacency[v - 1]
                new = row & ~seen
                while new:
                    low = new & -new
                    seen |= low
                    w = low.bit_length()
                    dist[src][w] = depth
                    nxt.append(w)
                    new ^= low
            frontier = nxt
        if seen != (1 << n) - 1:
            raise ValueError("graph metric requires a connected graph")
    return Metric.from_function(n, lambda i, j: Fraction(dist[i][j]))


# ---------------------------------------------------------------------------
# the sphere-of-influence construction


def influence_radii(d: Metric) -> tuple[Fraction, ...]:
    """r_i = min over j != i of d(i, j); requires a strict metric."""
    den, _, radii = _integer_radii(d)
    return tuple(Fraction(r, den) for r in radii)


def _integer_radii(d: Metric) -> tuple[int, list[int], list[int]]:
    """Common denominator q, q * d in pair order and q * r_i per vertex."""
    _reject_non_strict(d)
    den, entries = integer_entries(d.d)
    rows = [[] for _ in range(d.n)]
    for (i, j), x in zip(vertex_pairs(d.n), entries):
        rows[i - 1].append(x)
        rows[j - 1].append(x)
    return den, entries, [min(row) for row in rows]


def sig_graph(d: Metric) -> SimpleGraph:
    """Sphere-of-influence graph: edge iff d(i,j) < r_i + r_j.

    Ties (equality) are non-edges.  Rejects inputs with zero or
    negative off-diagonal entries or triangle violations.
    """
    _, entries, radii = _integer_radii(d)
    return SimpleGraph.from_edges(
        d.n,
        (
            (i, j)
            for (i, j), x in zip(vertex_pairs(d.n), entries)
            if x < radii[i - 1] + radii[j - 1]
        ),
    )


@dataclass(frozen=True)
class SigReport:
    """Outcome of checking whether a metric realizes a target graph.

    missing_edges are adjacent target pairs the metric fails to join;
    extra_edges are non-adjacent pairs it joins anyway.
    """

    matches: bool
    radii: tuple[Fraction, ...]
    missing_edges: tuple[tuple[int, int], ...]
    extra_edges: tuple[tuple[int, int], ...]


def verify_sig_metric(d: Metric, graph: SimpleGraph) -> SigReport:
    """Check that the SIG of d is exactly the given graph."""
    if graph.n != d.n:
        raise ValueError(f"graph on {graph.n} vertices vs metric on {d.n}")
    den, entries, radii = _integer_radii(d)
    missing = []
    extra = []
    for (i, j), x in zip(vertex_pairs(d.n), entries):
        joined = x < radii[i - 1] + radii[j - 1]
        adjacent = graph.adjacency[i - 1] >> (j - 1) & 1
        if adjacent and not joined:
            missing.append((i, j))
        elif joined and not adjacent:
            extra.append((i, j))
    return SigReport(
        matches=not missing and not extra,
        radii=tuple(Fraction(r, den) for r in radii),
        missing_edges=tuple(missing),
        extra_edges=tuple(extra),
    )


def _reject_non_strict(d: Metric) -> None:
    report = validate_metric(d, strict=True)
    if not report.valid:
        raise ValueError(
            "sphere-of-influence construction requires a strict metric; "
            f"violations: triangles={len(report.triangle_violations)}, "
            f"negatives={len(report.negative_entries)}, "
            f"zeros={len(report.zero_entries)}"
        )


# ---------------------------------------------------------------------------
# graph families


def complete_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise ValueError(f"need at least 1 vertex, got n={n}")
    return SimpleGraph.from_edges(n, vertex_pairs(n))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got n={n}")
    return SimpleGraph.from_edges(
        n, [(i, i + 1) for i in range(1, n)] + [(1, n)]
    )


def path_graph(n: int) -> SimpleGraph:
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got n={n}")
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def hypercube_graph(k: int) -> SimpleGraph:
    """k-cube on 2^k vertices; vertex v corresponds to the bits of v-1."""
    if k < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got k={k}")
    n = 1 << k
    edges = [
        (v + 1, (v ^ (1 << bit)) + 1)
        for v in range(n)
        for bit in range(k)
        if v < v ^ (1 << bit)
    ]
    return SimpleGraph.from_edges(n, edges)


def complete_bipartite_graph(a: int, b: int) -> SimpleGraph:
    """Parts {1..a} and {a+1..a+b}."""
    if a < 1 or b < 1:
        raise ValueError(f"both parts need a vertex, got ({a}, {b})")
    return SimpleGraph.from_edges(
        a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    )


def cocktail_party_graph(k: int) -> SimpleGraph:
    """K_{2k} minus the perfect matching {i, i+k}."""
    if k < 2:
        raise ValueError(f"cocktail-party graph needs k >= 2, got k={k}")
    return SimpleGraph.from_edges(
        2 * k,
        [(i, j) for i, j in vertex_pairs(2 * k) if j - i != k],
    )


def star_graph(leaves: int) -> SimpleGraph:
    """Center 1 joined to leaves 2..leaves+1."""
    if leaves < 1:
        raise ValueError(f"star needs at least 1 leaf, got {leaves}")
    return SimpleGraph.from_edges(
        leaves + 1, [(1, v) for v in range(2, leaves + 2)]
    )


_FAMILIES = {
    "K": (complete_graph, 1),
    "C": (cycle_graph, 1),
    "L": (path_graph, 1),
    "Q": (hypercube_graph, 1),
    "B": (complete_bipartite_graph, 2),
    "CP": (cocktail_party_graph, 1),
    "S": (star_graph, 1),
}


def family(name: str, *params: int) -> SimpleGraph:
    """Catalog lookup: K n, C n, L n, Q k, B a b, CP k, S leaves."""
    key = name.upper()
    if key not in _FAMILIES:
        raise ValueError(
            f"unknown family {name!r}; choose from {', '.join(sorted(_FAMILIES))}"
        )
    builder, arity = _FAMILIES[key]
    if len(params) != arity:
        raise ValueError(f"family {key} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


# ---------------------------------------------------------------------------
# the star-graph obstruction


@dataclass(frozen=True)
class StarObstructionReport:
    """A SIG-metric of a star graph, checked against the pair-cut cone.

    metric lives on leaves+1 vertices (center first); sig_ok records
    that the metric's SIG is exactly the star; verdict is the pair-cut
    membership verdict, which the construction forces to non-member.
    confirmed = sig_ok and not verdict.member.
    """

    leaves: int
    metric: Metric
    sig_ok: bool
    verdict: PaircutVerdict

    @property
    def confirmed(self) -> bool:
        return self.sig_ok and not self.verdict.member


def star_metric(lengths: Sequence[RationalLike]) -> Metric:
    """The only strict metric whose SIG can be the star with these
    leaf distances: d(center, leaf_i) = a_i and
    d(leaf_i, leaf_j) = a_i + a_j.  Center is vertex 1.

    Any strictly smaller leaf-to-leaf distance would create an edge
    between leaves, so every star SIG-metric has this shape.
    """
    a = [as_fraction(x) for x in lengths]
    if len(a) < 1:
        raise ValueError("need at least one leaf length")
    if any(x <= 0 for x in a):
        raise ValueError("leaf lengths must be positive")

    def dist(i: int, j: int) -> Fraction:
        if i == 1:
            return a[j - 2]
        return a[i - 2] + a[j - 2]

    return Metric.from_function(len(a) + 1, dist)


def star_graph_obstruction(
    leaves: int, lengths: Sequence[RationalLike]
) -> StarObstructionReport:
    """Build the star SIG-metric and test it against the pair-cut cone.

    For 4 or more leaves the metric is always outside the cone, so
    every SIG of a star witnesses that SIG-metrics need cuts beyond
    pairs.  Requires >= 4 leaves (the membership test needs n >= 5)
    and exactly one positive length per leaf.
    """
    if leaves < 4:
        raise ValueError(f"need at least 4 leaves, got {leaves}")
    if len(lengths) != leaves:
        raise ValueError(f"expected {leaves} leaf lengths, got {len(lengths)}")
    d = star_metric(lengths)
    target = star_graph(leaves)
    report = verify_sig_metric(d, target)
    return StarObstructionReport(
        leaves=len(lengths),
        metric=d,
        sig_ok=report.matches,
        verdict=paircut_membership(d),
    )
