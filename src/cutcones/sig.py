"""Sphere-of-influence graphs (SIGs) of strict finite metrics.

Each vertex i of a strict metric d gets the radius r_i = min distance
to any other vertex; i and j are adjacent in the SIG exactly when
d(i, j) < r_i + r_j (strict inequality: a tie is a non-edge).  The
SIG functions clear d once per call (metric.integer_table), validate
that table, and read the radii and adjacency rows off it in _sig_rows,
the one edge rule.  Graphs are row bitmasks; SimpleGraph's constructor
is the one loop and symmetry check, over set bits only, and one bitmask
BFS serves is_connected and graph_metric.  The module also provides
the two canonical metrics of a simple graph (the truncated metric with
1 on edges and 2 on non-edges, and the shortest-path metric), a small
catalog of graph families, and the star-graph construction that
manufactures SIG-metrics lying outside the pair-cut cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from cutcones.metric import (
    Metric,
    RationalLike,
    _validate_table,
    as_fraction,
    integer_table,
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
        full = 1 << self.n
        for v, row in enumerate(self.adjacency, start=1):
            if not 0 <= row < full:
                raise ValueError(f"adjacency row for vertex {v} out of range")
            if row >> (v - 1) & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in _vertices(row):
                if not self.adjacency[u - 1] >> (v - 1) & 1:
                    raise ValueError(
                        f"asymmetric adjacency between {min(u, v)} and {max(u, v)}"
                    )

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        rows = [0] * n
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) out of range 1..{n}")
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
            (i, j)
            for i, row in enumerate(self.adjacency, start=1)
            for j in _vertices(row >> i << i)
        )

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self.adjacency[v - 1].bit_count()

    def is_connected(self) -> bool:
        return all(_hops(self.adjacency, 1)[1:])


def _vertices(mask: int) -> Iterator[int]:
    """Vertices whose bits are set in mask, ascending (bit k-1 is vertex k)."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _hops(adjacency: Sequence[int], source: int) -> list[int]:
    """Hop counts from source by breadth-first search over adjacency row
    bitmasks, one frontier bitmask per level; 0 at the source and at
    every vertex it does not reach."""
    hops = [0] * len(adjacency)
    seen = frontier = 1 << (source - 1)
    depth = 0
    while frontier:
        depth += 1
        reached = 0
        for v in _vertices(frontier):
            reached |= adjacency[v - 1]
        frontier = reached & ~seen
        seen |= frontier
        for v in _vertices(frontier):
            hops[v - 1] = depth
    return hops


# ---------------------------------------------------------------------------
# metrics of a graph


def truncated_metric(graph: SimpleGraph) -> Metric:
    """Distance 1 on edges, 2 on non-edges: always a strict metric."""
    return Metric.from_function(
        graph.n, lambda i, j: _ONE if graph.are_adjacent(i, j) else _TWO
    )


def graph_metric(graph: SimpleGraph) -> Metric:
    """Shortest-path (hop count) metric; rejects disconnected graphs."""
    if not graph.is_connected():
        raise ValueError("graph metric requires a connected graph")
    n = graph.n
    return Metric(n, tuple(x for v in range(1, n + 1) for x in _hops(graph.adjacency, v)[v:]))


# ---------------------------------------------------------------------------
# the sphere-of-influence construction


def influence_radii(d: Metric) -> tuple[Fraction, ...]:
    """r_i = min over j != i of d(i, j); requires a strict metric."""
    den, radii, _ = _sig_rows(d)
    return tuple(Fraction(r, den) for r in radii)


def _sig_rows(d: Metric) -> tuple[int, list[int], tuple[int, ...]]:
    """Common denominator q of d, q * r_i per vertex, and the adjacency
    row bitmasks of the SIG, all from one integer table of q * d.
    Rejects a metric that is not strict."""
    den, rows = integer_table(d)
    report = _validate_table(den, rows, strict=True)
    if not report.valid:
        raise ValueError(
            "sphere-of-influence construction requires a strict metric; "
            f"violations: triangles={len(report.triangle_violations)}, "
            f"negatives={len(report.negative_entries)}, "
            f"zeros={len(report.zero_entries)}"
        )
    radii = [min(row[:i] + row[i + 1 :]) for i, row in enumerate(rows)]
    # the diagonal entry 0 is below 2 r_i; its bit is cleared
    adjacency = tuple(
        sum(1 << j for j, (x, rj) in enumerate(zip(row, radii)) if x < ri + rj) & ~(1 << i)
        for i, (row, ri) in enumerate(zip(rows, radii))
    )
    return den, radii, adjacency


def sig_graph(d: Metric) -> SimpleGraph:
    """Sphere-of-influence graph: edge iff d(i,j) < r_i + r_j.

    Ties (equality) are non-edges.  Rejects inputs with zero or
    negative off-diagonal entries or triangle violations.
    """
    return SimpleGraph(d.n, _sig_rows(d)[2])


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
    den, radii, joined = _sig_rows(d)
    missing = []
    extra = []
    for i, (mine, target) in enumerate(zip(joined, graph.adjacency), start=1):
        for j in _vertices((mine ^ target) >> i << i):
            (missing if target >> (j - 1) & 1 else extra).append((i, j))
    return SigReport(
        matches=not missing and not extra,
        radii=tuple(Fraction(r, den) for r in radii),
        missing_edges=tuple(missing),
        extra_edges=tuple(extra),
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
