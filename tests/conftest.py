"""Shared fixtures: small graphs and metrics used across the suite."""

from fractions import Fraction

import pytest

from cutcones import fullcut
from cutcones.metric import Metric
from cutcones.sig import SimpleGraph, graph_metric, truncated_metric

# Two 4-cycles glued at vertex 1 (a figure eight of squares on 7 vertices).
# Vertex 1 has degree 4; every other vertex has degree 2.
FIGURE_EIGHT_EDGES = (
    (1, 2), (1, 4), (1, 5), (1, 7),
    (2, 3), (3, 4), (5, 6), (6, 7),
)


@pytest.fixture
def figure_eight() -> SimpleGraph:
    return SimpleGraph.from_edges(7, FIGURE_EIGHT_EDGES)


@pytest.fixture
def figure_eight_d0(figure_eight) -> Metric:
    return truncated_metric(figure_eight)


@pytest.fixture
def figure_eight_d1(figure_eight) -> Metric:
    return graph_metric(figure_eight)


def metric_of_ints(n: int, values) -> Metric:
    """Build a Metric from plain integers (lexicographic pair order)."""
    return Metric(n, tuple(Fraction(v) for v in values))


def raise_one_cut_trace(monkeypatch) -> None:
    """Mutant of the sufficient condition: the trace of cut {1} comes out
    one too high.  On K_n every slack stays positive, so only the
    certificate's re-check can tell."""
    traces = fullcut.cut_traces

    def raised(n, values):
        table = traces(n, values)
        table[1] += 1
        return table

    monkeypatch.setattr(fullcut, "cut_traces", raised)
