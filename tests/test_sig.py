"""Sphere-of-influence graphs, graph families, and the star obstruction."""

import random
from fractions import Fraction

import pytest

from cutcones import sig
from cutcones.metric import Metric, summarize
from cutcones.paircut import paircut_membership
from cutcones.sig import (
    SimpleGraph,
    cocktail_party_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    family,
    graph_metric,
    hypercube_graph,
    influence_radii,
    path_graph,
    sig_graph,
    star_graph,
    star_graph_obstruction,
    star_metric,
    truncated_metric,
    verify_sig_metric,
)

from conftest import FIGURE_EIGHT_EDGES, metric_of_ints

F = Fraction


def random_connected_graph(rng: random.Random, n: int, p: float = 0.45) -> SimpleGraph:
    while True:
        edges = [
            (i, j)
            for i in range(1, n)
            for j in range(i + 1, n + 1)
            if rng.random() < p
        ]
        g = SimpleGraph.from_edges(n, edges)
        if g.is_connected():
            return g


# ---------------------------------------------------------------------------
# graphs


def test_graph_construction_and_queries():
    g = SimpleGraph.from_edges(4, [(1, 2), (2, 3)])
    assert g.are_adjacent(1, 2) and g.are_adjacent(3, 2)
    assert not g.are_adjacent(1, 3)
    assert g.edges == ((1, 2), (2, 3))
    assert g.degree(2) == 2 and g.degree(4) == 0
    assert not g.is_connected()
    assert SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)]).is_connected()


def test_graph_rejects_bad_rows_and_vertices():
    with pytest.raises(ValueError, match="expected 3 adjacency rows, got 2"):
        SimpleGraph(3, (0, 0))
    with pytest.raises(ValueError, match="adjacency row for vertex 1 out of range"):
        SimpleGraph(2, (4, 0))
    g = SimpleGraph.from_edges(4, [(1, 2)])
    with pytest.raises(ValueError, match=r"vertices must lie in 1..4, got \(0, 1\)"):
        g.are_adjacent(0, 1)
    with pytest.raises(ValueError, match="vertex 5 out of range 1..4"):
        g.degree(5)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 2)])


def test_graph_checks_walk_set_bits_only(monkeypatch):
    # the loop and symmetry checks cost O(n + edges), not a walk over all pairs
    def forbidden(n):
        raise AssertionError("vertex_pairs called")

    monkeypatch.setattr(sig, "vertex_pairs", forbidden)
    n = 5000
    g = SimpleGraph.from_edges(n, [(1, 2)])
    assert g.edges == ((1, 2),) and not g.is_connected()
    one_sided = [0] * n
    one_sided[n - 1] = 1
    with pytest.raises(ValueError, match=f"asymmetric adjacency between 1 and {n}"):
        SimpleGraph(n, tuple(one_sided))
    with pytest.raises(ValueError, match="loop at vertex 3"):
        SimpleGraph.from_edges(n, [(1, 2), (3, 3)])


# ---------------------------------------------------------------------------
# the two canonical metrics


def test_truncated_metric_of_complete_graph():
    assert truncated_metric(complete_graph(5)).d == (F(1),) * 10


def test_truncated_metric_figure_eight(figure_eight_d0):
    s = summarize(figure_eight_d0)
    assert s.trace == 34
    assert s.star_trace(1) == 8
    for i in range(2, 8):
        assert s.star_trace(i) == 10


def test_truncated_metric_four_cycle():
    d = truncated_metric(cycle_graph(4))
    assert d.d == (F(1), F(2), F(1), F(1), F(2), F(1))


def test_graph_metric_figure_eight(figure_eight_d1):
    assert figure_eight_d1.distance(3, 6) == 4
    assert figure_eight_d1.distance(2, 6) == 3
    s = summarize(figure_eight_d1)
    assert s.trace == 40
    assert s.star_trace(1) == 8
    assert s.star_trace(3) == 14
    assert s.star_trace(6) == 14


def test_graph_metric_hypercube_is_hamming():
    d = graph_metric(hypercube_graph(3))
    s = summarize(d)
    assert s.star_traces == (F(12),) * 8
    assert max(d.d) == 3


def test_graph_metric_equals_truncated_on_complete_graphs():
    g = complete_graph(6)
    assert graph_metric(g).d == truncated_metric(g).d


def test_graph_metric_rejects_disconnected():
    with pytest.raises(ValueError):
        graph_metric(SimpleGraph.from_edges(4, [(1, 2)]))


# ---------------------------------------------------------------------------
# sphere-of-influence construction


def test_sig_returns_the_graph_for_both_metrics(figure_eight):
    d0 = truncated_metric(figure_eight)
    d1 = graph_metric(figure_eight)
    assert sig_graph(d0).adjacency == figure_eight.adjacency
    assert sig_graph(d1).adjacency == figure_eight.adjacency


def test_sig_of_constant_metric_is_complete():
    d = metric_of_ints(5, [3] * 10)
    assert sig_graph(d).adjacency == complete_graph(5).adjacency


def test_sig_tie_is_a_non_edge():
    # d(1,3) = r_1 + r_3 exactly, so 1 and 3 stay apart
    d = metric_of_ints(3, [1, 2, 1])
    g = sig_graph(d)
    assert g.are_adjacent(1, 2) and g.are_adjacent(2, 3)
    assert not g.are_adjacent(1, 3)


def test_sig_rejects_zero_distances():
    d = metric_of_ints(3, [0, 1, 1])
    with pytest.raises(ValueError):
        sig_graph(d)


def test_influence_radii_definition():
    d = metric_of_ints(4, [1, 2, 5, 3, 4, 6])
    assert influence_radii(d) == (F(1), F(1), F(2), F(4))


def test_verify_sig_metric_pass_and_fail(figure_eight, figure_eight_d0):
    assert verify_sig_metric(figure_eight_d0, figure_eight).matches
    report = verify_sig_metric(truncated_metric(complete_graph(5)), cycle_graph(5))
    assert not report.matches
    assert not report.missing_edges
    assert len(report.extra_edges) == 5


def test_verify_sig_metric_reports_missing_edges():
    # d(2,3) lands exactly on r_2 + r_3, so that edge never forms
    d = metric_of_ints(3, [1, 2, 3])
    report = verify_sig_metric(d, complete_graph(3))
    assert not report.matches
    assert report.missing_edges == ((2, 3),)
    assert not report.extra_edges


def test_verify_sig_metric_size_mismatch():
    with pytest.raises(ValueError):
        verify_sig_metric(metric_of_ints(3, [1, 1, 1]), complete_graph(4))


def test_round_trip_on_random_connected_graphs():
    rng = random.Random(303)
    for _ in range(30):
        n = rng.randint(4, 8)
        g = random_connected_graph(rng, n)
        assert sig_graph(truncated_metric(g)).adjacency == g.adjacency
        assert sig_graph(graph_metric(g)).adjacency == g.adjacency


# ---------------------------------------------------------------------------
# families


def test_family_complete():
    g = family("K", 4)
    assert g.n == 4 and len(g.edges) == 6


def test_family_cycle_sizes():
    assert len(family("C", 5).edges) == 5
    with pytest.raises(ValueError):
        family("C", 2)


def test_family_path():
    g = family("L", 5)
    assert len(g.edges) == 4
    assert g.are_adjacent(2, 3)
    with pytest.raises(ValueError):
        family("L", 1)


def test_family_hypercube():
    g = family("Q", 3)
    assert g.n == 8
    assert len(g.edges) == 12
    assert all(g.degree(v) == 3 for v in range(1, 9))


def test_family_complete_bipartite():
    g = family("B", 2, 3)
    assert g.n == 5
    assert len(g.edges) == 6
    assert not g.are_adjacent(1, 2)
    assert not g.are_adjacent(3, 4)
    assert g.are_adjacent(1, 3)


def test_family_cocktail_party_matching():
    g = family("CP", 3)
    assert g.n == 6
    assert len(g.edges) == 12
    for i in range(1, 4):
        assert not g.are_adjacent(i, i + 3)
    assert g.are_adjacent(1, 2) and g.are_adjacent(2, 6)


def test_family_star():
    g = family("S", 4)
    assert g.n == 5
    degrees = sorted(g.degree(v) for v in range(1, 6))
    assert degrees == [1, 1, 1, 1, 4]
    assert g.degree(1) == 4


def test_family_dispatch_errors():
    with pytest.raises(ValueError):
        family("X", 3)
    with pytest.raises(ValueError):
        family("K", 3, 4)
    with pytest.raises(ValueError):
        family("B", 2)


# ---------------------------------------------------------------------------
# the star obstruction


def test_star_metric_shape():
    d = star_metric([F(1), F(2), F(3)])
    assert d.n == 4
    assert d.distance(1, 3) == 2
    assert d.distance(2, 3) == 3
    assert d.distance(3, 4) == 5


def test_star_metric_requires_positive_lengths():
    with pytest.raises(ValueError):
        star_metric([F(1), F(0)])
    with pytest.raises(ValueError):
        star_metric([])


def test_star_metric_realizes_the_star():
    lengths = [F(1), F(3, 2), F(2), F(5)]
    report = verify_sig_metric(star_metric(lengths), star_graph(4))
    assert report.matches


def test_obstruction_equal_lengths():
    report = star_graph_obstruction(4, [1, 1, 1, 1])
    assert report.sig_ok
    assert not report.verdict.member
    assert report.confirmed
    assert report.metric.n == 5


def test_obstruction_mixed_lengths():
    report = star_graph_obstruction(6, [1, 2, 2, 3, 5, 8])
    assert report.confirmed


def test_obstruction_fractional_lengths():
    report = star_graph_obstruction(5, [F(1, 3), F(1, 2), F(2), F(7, 4), F(9)])
    assert report.confirmed
    assert not paircut_membership(report.metric).member


def test_obstruction_input_validation():
    with pytest.raises(ValueError):
        star_graph_obstruction(3, [1, 1, 1])
    with pytest.raises(ValueError):
        star_graph_obstruction(4, [1, 1, 1])
    with pytest.raises(ValueError):
        star_graph_obstruction(4, [1, 1, 1, 0])


def test_figure_eight_fixture_matches_edge_list(figure_eight):
    assert figure_eight.edges == FIGURE_EIGHT_EDGES
