"""l1 embeddings from cut decompositions and max-norm graph realizations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cutcones.cut_algebra import Cut
from cutcones.embeddings import (
    NORMS,
    PointSet,
    induced_metric,
    l1_embedding,
    linf_sig_embedding,
    verify_isometry,
)
from cutcones.fullcut import CutCertificate, certificate_metric
from cutcones.metric import Metric, vertex_pairs
from cutcones.sig import (
    SimpleGraph,
    complete_graph,
    path_graph,
    sig_graph,
    star_graph,
    truncated_metric,
)

from conftest import FIGURE_EIGHT_EDGES, metric_of_ints

F = Fraction


def cert_of(n, weighted_cuts):
    return CutCertificate(
        n=n,
        cuts=tuple(Cut.from_members(n, members) for members, _ in weighted_cuts),
        weights=tuple(F(w) for _, w in weighted_cuts),
    )


# ---------------------------------------------------------------------------
# point sets and distances


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(norm="l1", points=((F(1),), (F(1), F(2))))
    with pytest.raises(ValueError):
        PointSet(norm="euclid", points=((F(1),),))
    with pytest.raises(ValueError):
        PointSet(norm="l1", points=())
    ps = PointSet(norm="linf", points=((F(0), F(1)), (F(2), F(3))))
    assert ps.dimension == 2


def test_induced_metric():
    ps = PointSet(norm="l1", points=((F(0),), (F(1),), (F(3),)))
    d = induced_metric(ps)
    assert d.d == (F(1), F(3), F(2))


def test_verify_isometry_flags_single_pair():
    ps = PointSet(norm="l1", points=((F(0),), (F(1),), (F(3),)))
    good = metric_of_ints(3, [1, 3, 2])
    assert verify_isometry(ps, good).ok
    bad = metric_of_ints(3, [1, 3, 1])
    report = verify_isometry(ps, bad)
    assert not report.ok
    assert report.mismatches == (((2, 3), F(2), F(1)),)


def test_verify_isometry_size_mismatch():
    ps = PointSet(norm="l1", points=((F(0),), (F(1),)))
    with pytest.raises(ValueError):
        verify_isometry(ps, metric_of_ints(3, [1, 1, 1]))


# Coordinates mixing ints and Fractions of unrelated denominators, signs
# of both kinds.
MIXED_POINTS = (
    (F(1, 2), F(-2), 3),
    (F(1, 3), 0, F(7, 4)),
    (F(-5, 6), F(1, 4), F(9, 10)),
    (2, F(-1, 5), F(3, 8)),
)


def fraction_distance(x, y, norm):
    """The per-pair distance in Fraction arithmetic, coordinate by coordinate."""
    diffs = [abs(F(a) - F(b)) for a, b in zip(x, y)]
    return sum(diffs, F(0)) if norm == "l1" else max(diffs, default=F(0))


@pytest.mark.parametrize("norm", NORMS)
def test_induced_metric_and_isometry_on_mixed_denominators(norm):
    ps = PointSet(norm=norm, points=MIXED_POINTS)
    pairs = vertex_pairs(4)
    want = tuple(
        fraction_distance(MIXED_POINTS[i - 1], MIXED_POINTS[j - 1], norm) for i, j in pairs
    )
    d = induced_metric(ps)
    assert d.d == want
    assert all(type(x) is F for x in d.d)
    assert verify_isometry(ps, d).ok

    off = Metric(4, tuple(x + F(1, 7) if k % 2 else x for k, x in enumerate(want)))
    report = verify_isometry(ps, off)
    assert report.mismatches == tuple(
        (pair, got, x) for pair, got, x in zip(pairs, want, off.d) if got != x
    )
    assert len(report.mismatches) == 3
    assert all(type(got) is F for _, got, _ in report.mismatches)


@st.composite
def point_sets(draw):
    """Points on n = 2..7 vertices in dimension 0..4, coordinates of both
    signs over denominators 1..12, and a metric that is the reference
    distances with a random subset of entries moved by a small fraction."""
    n = draw(st.integers(2, 7))
    dim = draw(st.integers(0, 4))
    coord = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    shifts = draw(st.lists(st.sampled_from([F(0), F(0), F(1, 7), F(-1, 3), F(5, 2)]),
                           min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return draw(st.sampled_from(NORMS)), tuple(points), shifts


@settings(max_examples=200, deadline=None, database=None)
@given(point_sets())
def test_induced_metric_and_isometry_match_the_fraction_reference(case):
    norm, points, shifts = case
    ps = PointSet(norm=norm, points=points)
    pairs = vertex_pairs(len(points))
    want = tuple(fraction_distance(points[i - 1], points[j - 1], norm) for i, j in pairs)
    assert induced_metric(ps).d == want
    off = Metric(len(points), tuple(x + s for x, s in zip(want, shifts)))
    assert verify_isometry(ps, off).mismatches == tuple(
        (pair, got, x) for pair, got, x in zip(pairs, want, off.d) if got != x
    )


@pytest.mark.parametrize("norm", NORMS)
def test_points_of_dimension_zero(norm):
    if norm == "l1":
        ps = l1_embedding(CutCertificate(n=4, cuts=(), weights=()))
    else:
        ps = PointSet(norm=norm, points=((),) * 4)
    assert ps.dimension == 0
    assert induced_metric(ps).d == (F(0),) * 6
    assert verify_isometry(ps, Metric(4, (F(0),) * 6)).ok
    report = verify_isometry(ps, metric_of_ints(4, [0, 1, 0, 0, 0, 2]))
    assert report.mismatches == (((1, 3), F(0), F(1)), ((3, 4), F(0), F(2)))
    assert all(type(got) is F for _, got, _ in report.mismatches)


# ---------------------------------------------------------------------------
# l1 embeddings


def test_l1_single_cut():
    ps = l1_embedding(cert_of(3, [((1,), 1)]))
    assert ps.points == ((F(1),), (F(0),), (F(0),))


def test_l1_half_singletons_give_complete_graph_metric():
    cert = cert_of(5, [((i,), F(1, 2)) for i in range(1, 6)])
    ps = l1_embedding(cert)
    assert ps.dimension == 5
    for v in range(5):
        assert ps.points[v][v] == F(1, 2)
        assert sum(ps.points[v]) == F(1, 2)
    report = verify_isometry(ps, Metric(5, (F(1),) * 10))
    assert report.ok


def test_l1_path_decomposition_is_isometric():
    cert = cert_of(
        5,
        [
            ((1,), F(1, 2)),
            ((1, 2), F(1, 2)),
            ((2, 3), F(1, 2)),
            ((3, 4), F(1, 2)),
            ((4, 5), F(1, 2)),
            ((5,), F(1, 2)),
        ],
    )
    ps = l1_embedding(cert)
    assert ps.dimension == 6
    assert verify_isometry(ps, truncated_metric(path_graph(5))).ok


def test_l1_rejects_negative_weights():
    with pytest.raises(ValueError):
        l1_embedding(cert_of(3, [((1,), 1), ((2,), -1)]))


def test_l1_drops_zero_weight_cuts():
    ps = l1_embedding(cert_of(3, [((1,), 2), ((2,), 0), ((1, 2), 3)]))
    assert ps.dimension == 2
    assert ps.points[0] == (F(2), F(3))
    assert ps.points[1] == (F(0), F(3))
    assert ps.points[2] == (F(0), F(0))


def test_l1_scales_with_the_certificate():
    base = [((1,), 1), ((1, 3), 2)]
    ps = l1_embedding(cert_of(4, base))
    tripled = l1_embedding(cert_of(4, [(m, 3 * w) for m, w in base]))
    d = induced_metric(ps)
    assert induced_metric(tripled).d == tuple(3 * x for x in d.d)


def test_l1_random_decompositions_round_trip():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randint(3, 6)
        weights = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
        cuts = [
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1))))
            for _ in range(n)
        ]
        cert = cert_of(n, [(c, w) for c, w in zip(cuts, weights) if w])
        ps = l1_embedding(cert)
        assert verify_isometry(ps, certificate_metric(cert)).ok


# ---------------------------------------------------------------------------
# max-norm realizations


def test_linf_triangle_rows():
    ps = linf_sig_embedding(complete_graph(3))
    assert ps.norm == "linf"
    assert ps.points == (
        (F(2), F(1)),
        (F(1), F(2)),
        (F(1), F(1)),
    )


def test_linf_entries_and_dimension():
    g = star_graph(3)
    ps = linf_sig_embedding(g)
    assert ps.dimension == g.n - 1
    assert {x for p in ps.points for x in p} <= {F(0), F(1), F(2)}


def test_linf_star_round_trip():
    g = star_graph(3)
    ps = linf_sig_embedding(g)
    d = induced_metric(ps)
    assert verify_isometry(ps, truncated_metric(g)).ok
    assert sig_graph(d).adjacency == g.adjacency


def test_linf_figure_eight_round_trip(figure_eight, figure_eight_d0):
    ps = linf_sig_embedding(figure_eight)
    assert verify_isometry(ps, figure_eight_d0).ok
    assert sig_graph(induced_metric(ps)).adjacency == figure_eight.adjacency


def test_linf_rejects_disconnected_and_tiny():
    with pytest.raises(ValueError):
        linf_sig_embedding(SimpleGraph.from_edges(4, [(1, 2)]))
    with pytest.raises(ValueError):
        linf_sig_embedding(SimpleGraph.from_edges(1, []))
