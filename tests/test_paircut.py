"""Closed-form pair-cut cone membership and its two companion tests."""

import random
from fractions import Fraction

import pytest

from cutcones.cut_algebra import cut_metric_vector, inverse_square_cut_matrix, pair_cut
from cutcones.metric import Metric, summarize, vertex_pairs
from cutcones.paircut import (
    constant_star_shortcut,
    necessary_condition,
    paircut_membership,
    paircut_weights,
)
from cutcones.sig import (
    complete_graph,
    cycle_graph,
    graph_metric,
    hypercube_graph,
    star_metric,
    truncated_metric,
)

from conftest import metric_of_ints
from exact_rank import times
from instances import random_paircut_combination, random_semimetric

F = Fraction


def pair_combination(n: int, weighted_pairs) -> Metric:
    """Exact nonnegative combination of pair-cut metrics."""
    total = [F(0)] * (n * (n - 1) // 2)
    for (i, j), w in weighted_pairs:
        for idx, x in enumerate(cut_metric_vector(pair_cut(n, i, j))):
            total[idx] += w * x
    return Metric(n, tuple(total))


# ---------------------------------------------------------------------------
# the closed-form weights


def test_weights_recover_single_pair_cut():
    for p, q in vertex_pairs(5):
        d = Metric(5, cut_metric_vector(pair_cut(5, p, q)))
        weights = paircut_weights(d)
        for idx, (i, j) in enumerate(vertex_pairs(5)):
            assert weights[idx] == (1 if (i, j) == (p, q) else 0)


def test_weights_recover_two_term_combination():
    d = pair_combination(6, [((1, 2), F(2)), ((3, 4), F(3))])
    weights = paircut_weights(d)
    for idx, (i, j) in enumerate(vertex_pairs(6)):
        if (i, j) == (1, 2):
            assert weights[idx] == 2
        elif (i, j) == (3, 4):
            assert weights[idx] == 3
        else:
            assert weights[idx] == 0


def test_weights_complete_graph_are_constant():
    d = metric_of_ints(5, [1] * 10)
    assert paircut_weights(d) == (F(1, 6),) * 10


def test_weights_match_inverse_matrix():
    rng = random.Random(77)
    for n in (5, 6, 7):
        inv = inverse_square_cut_matrix(n)
        for _ in range(5):
            d = random_semimetric(n, rng)
            assert paircut_weights(d) == times(inv, d.d)


def test_weights_reject_small_n():
    with pytest.raises(ValueError):
        paircut_weights(metric_of_ints(4, [1] * 6))


# ---------------------------------------------------------------------------
# membership


def test_membership_figure_eight_truncated(figure_eight_d0):
    verdict = paircut_membership(figure_eight_d0)
    assert not verdict.member
    assert [pair for pair, _ in verdict.violations] == [(1, 3), (1, 6)]
    for _, slack in verdict.violations:
        assert slack == F(-8, 5)


def test_membership_figure_eight_graph_metric(figure_eight_d1):
    verdict = paircut_membership(figure_eight_d1)
    assert verdict.member
    assert verdict.violations == ()
    assert all(w >= 0 for w in verdict.weights)


def test_membership_complete_graph():
    d = graph_metric(complete_graph(6))
    assert paircut_membership(d).member


def test_membership_rejects_small_n():
    with pytest.raises(ValueError):
        paircut_membership(metric_of_ints(4, [1] * 6))


def test_member_weights_reconstruct_metric():
    rng = random.Random(31)
    for n in (5, 6):
        for _ in range(10):
            d = random_paircut_combination(n, rng)
            verdict = paircut_membership(d)
            assert verdict.member
            total = [F(0)] * len(d.d)
            for idx, (i, j) in enumerate(vertex_pairs(n)):
                w = verdict.weights[idx]
                assert w >= 0
                if not w:
                    continue
                for pidx, x in enumerate(cut_metric_vector(pair_cut(n, i, j))):
                    total[pidx] += w * x
            assert tuple(total) == d.d


def test_membership_pins_non_integer_non_member():
    d = star_metric([F(1, 2), F(1), F(3, 2), F(2, 3)])
    verdict = paircut_membership(d)
    assert not verdict.member
    assert verdict.weights == (
        F(-13, 18), F(-2, 9), F(5, 18), F(-5, 9), F(5, 18),
        F(7, 9), F(-1, 18), F(23, 18), F(4, 9), F(17, 18),
    )
    assert verdict.violations == (
        ((1, 2), F(-13, 9)),
        ((1, 3), F(-4, 9)),
        ((1, 5), F(-10, 9)),
        ((2, 5), F(-1, 9)),
    )
    assert verdict.weights == paircut_weights(d)


def test_boundary_equality_is_membership():
    # the truncated 6-cycle attains the inequality with equality
    d = truncated_metric(cycle_graph(6))
    verdict = paircut_membership(d)
    assert verdict.member
    s = summarize(d)
    slack_of = {
        (i, j): s.star_trace(i)
        + s.star_trace(j)
        - 2 * d.distance(i, j)
        - F(2 * s.trace, 4)
        for i, j in vertex_pairs(6)
    }
    assert min(slack_of.values()) == 0
    # the tight pairs carry weight zero
    for idx, (i, j) in enumerate(vertex_pairs(6)):
        if slack_of[(i, j)] == 0:
            assert verdict.weights[idx] == 0


def test_membership_is_scale_invariant():
    rng = random.Random(8)
    for _ in range(8):
        d = random_semimetric(6, rng)
        verdict = paircut_membership(d)
        scaled = paircut_membership(d.scaled(F(7, 3)))
        assert scaled.member == verdict.member
        assert scaled.weights == tuple(F(7, 3) * w for w in verdict.weights)


# ---------------------------------------------------------------------------
# the necessary condition


def test_necessary_condition_pair_cut_boundary():
    # slack (n-2) s_i - Tr vanishes exactly at the vertices outside
    # the cut, where s_i = 2 and Tr = 2(n-2)
    d = Metric(5, cut_metric_vector(pair_cut(5, 2, 4)))
    report = necessary_condition(d)
    assert report.slacks == (F(0), F(3), F(0), F(3), F(0))
    assert not report.certifies_non_membership


def test_necessary_condition_is_weaker_than_membership():
    # the truncated hypercube fails membership but passes the
    # per-vertex necessary condition with uniform slack
    d = truncated_metric(hypercube_graph(3))
    report = necessary_condition(d)
    assert report.slacks == (F(22),) * 8
    assert not report.certifies_non_membership
    assert not paircut_membership(d).member


def test_necessary_condition_fires_on_star_metric():
    d = star_metric([1, 1, 1, 1])
    report = necessary_condition(d)
    assert report.certifies_non_membership
    assert report.slacks[0] == -4


def test_necessary_condition_holds_for_members():
    rng = random.Random(52)
    for _ in range(10):
        d = random_paircut_combination(5, rng)
        assert paircut_membership(d).member
        assert all(x >= 0 for x in necessary_condition(d).slacks)


def test_necessary_condition_rejects_small_n():
    with pytest.raises(ValueError):
        necessary_condition(metric_of_ints(4, [1] * 6))


# ---------------------------------------------------------------------------
# the constant-star shortcut


def test_shortcut_hypercube_graph_metric():
    verdict = constant_star_shortcut(graph_metric(hypercube_graph(3)))
    assert verdict is not None
    assert verdict.star_trace == 12
    assert verdict.bound == 2
    assert verdict.max_distance == 3
    assert not verdict.member


def test_shortcut_complete_graph():
    verdict = constant_star_shortcut(metric_of_ints(5, [1] * 10))
    assert verdict is not None
    assert verdict.member
    assert verdict.bound == F(4, 3)


def test_shortcut_boundary_cycle():
    verdict = constant_star_shortcut(truncated_metric(cycle_graph(6)))
    assert verdict is not None
    assert verdict.bound == 2
    assert verdict.max_distance == 2
    assert verdict.member


def test_shortcut_inapplicable_returns_none(figure_eight_d0):
    assert constant_star_shortcut(figure_eight_d0) is None


def test_shortcut_agrees_with_closed_form():
    cases = [
        graph_metric(complete_graph(5)),
        graph_metric(complete_graph(8)),
        truncated_metric(cycle_graph(5)),
        truncated_metric(cycle_graph(8)),
        graph_metric(cycle_graph(6)),
        truncated_metric(hypercube_graph(3)),
        graph_metric(hypercube_graph(3)),
    ]
    for d in cases:
        verdict = constant_star_shortcut(d)
        assert verdict is not None, "expected a vertex-transitive instance"
        assert verdict.member == paircut_membership(d).member


def test_shortcut_rejects_small_n():
    with pytest.raises(ValueError):
        constant_star_shortcut(metric_of_ints(4, [1] * 6))
