"""Metric representation, validation, and the trace summaries."""

import random
from fractions import Fraction

import pytest

from cutcones import metric as metric_module, sig
from cutcones.embeddings import PointSet, verify_isometry
from cutcones.cut_algebra import Cut, cut_metric_vector, pair_cut
from cutcones.metric import (
    Metric,
    MetricSummary,
    ValidationReport,
    as_fraction,
    cut_trace,
    integer_entries,
    num_pairs,
    pair_index,
    split_pairs,
    summarize,
    validate_metric,
    vertex_pairs,
)
from cutcones.paircut import paircut_membership, paircut_weights
from cutcones.sig import SimpleGraph

from conftest import metric_of_ints
from instances import random_semimetric


def pair_cut_metric(n: int, p: int, q: int) -> Metric:
    return Metric(n, cut_metric_vector(pair_cut(n, p, q)))


# ---------------------------------------------------------------------------
# pair indexing


def test_pair_index_first_and_last():
    assert pair_index(1, 2, 4) == 0
    assert pair_index(3, 4, 4) == 5


def test_pair_index_by_enumeration():
    # rank of {2,4} among the ten pairs of a 5-point space
    assert pair_index(2, 4, 5) == 5
    listed = sorted(vertex_pairs(5))
    assert listed.index((2, 4)) == 5


def test_pair_index_is_bijection():
    for n in range(3, 13):
        seen = [pair_index(i, j, n) for i, j in vertex_pairs(n)]
        assert sorted(seen) == list(range(num_pairs(n)))


def test_pair_index_rejects_bad_pairs():
    with pytest.raises(ValueError):
        pair_index(2, 2, 5)
    with pytest.raises(ValueError):
        pair_index(3, 2, 5)
    with pytest.raises(ValueError):
        pair_index(1, 6, 5)
    with pytest.raises(ValueError):
        pair_index(0, 1, 5)


def test_vertex_pairs_are_lexicographic():
    assert vertex_pairs(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


# ---------------------------------------------------------------------------
# construction


def test_metric_requires_matching_length():
    with pytest.raises(ValueError):
        Metric(4, (Fraction(1),) * 5)


def test_metric_requires_two_points():
    with pytest.raises(ValueError):
        Metric(1, ())
    assert Metric(2, (Fraction(3),)).distance(1, 2) == 3


def test_metric_rejects_floats():
    with pytest.raises(TypeError):
        Metric(3, (0.5, 1, 1))
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_as_fraction_accepts_exact_forms():
    assert as_fraction(3) == 3
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    with pytest.raises(TypeError):
        as_fraction("5/4")


def test_distance_is_symmetric_with_zero_diagonal():
    d = metric_of_ints(3, [1, 2, 3])
    assert d.distance(1, 3) == 2
    assert d.distance(3, 1) == 2
    assert d.distance(2, 2) == 0
    with pytest.raises(ValueError):
        d.distance(0, 2)


def test_from_function_and_scaled(monkeypatch):
    calls = []
    monkeypatch.setattr(metric_module, "as_fraction", lambda x: calls.append(x) or as_fraction(x))
    d = Metric.from_function(4, lambda i, j: abs(i - j))
    assert d.d == tuple(Fraction(x) for x in (1, 2, 3, 1, 2, 1))
    assert all(type(x) is Fraction for x in d.d)
    assert len(calls) == 6  # once per entry
    with pytest.raises(TypeError):
        Metric.from_function(3, lambda i, j: 0.5)
    e = d.scaled(Fraction(3, 2))
    assert e.distance(1, 4) == Fraction(9, 2)
    assert e.n == 4


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_truncated_metrics(figure_eight_d0):
    assert validate_metric(figure_eight_d0).valid
    assert validate_metric(figure_eight_d0, strict=True).valid


def test_validate_reports_triangle_violation():
    d = metric_of_ints(3, [5, 1, 1])
    report = validate_metric(d)
    assert not report.valid
    assert report.triangle_violations == ((1, 2, 3, Fraction(-3)),)
    assert report.negative_entries == ()


def test_validate_reports_every_violation():
    # two independent long edges, both broken through vertex 4
    d = metric_of_ints(4, [9, 1, 1, 9, 1, 1])
    report = validate_metric(d)
    broken = {(i, j) for i, j, _, _ in report.triangle_violations}
    assert broken == {(1, 2), (2, 3)}
    assert len(report.triangle_violations) == 2


def test_validate_flags_negative_entries():
    report = validate_metric(metric_of_ints(3, [-1, 1, 1]))
    assert not report.valid
    assert report.negative_entries[0][:2] == (1, 2)


def test_validate_strict_mode_on_cut_metric():
    d = pair_cut_metric(5, 1, 2)
    assert validate_metric(d).valid
    strict = validate_metric(d, strict=True)
    assert not strict.valid
    # zero inside the cut and inside the complement
    assert (1, 2) in strict.zero_entries
    assert (3, 4) in strict.zero_entries


def naive_validate(d: Metric, strict: bool) -> ValidationReport:
    """Reference: the axioms checked triple by triple through distance()."""
    negatives, zeros, triangles = [], [], []
    for i, j in vertex_pairs(d.n):
        v = d.distance(i, j)
        if v < 0:
            negatives.append((i, j, v))
        elif strict and v == 0:
            zeros.append((i, j))
    for i, j in vertex_pairs(d.n):
        for k in range(1, d.n + 1):
            if k not in (i, j):
                slack = d.distance(i, k) + d.distance(k, j) - d.distance(i, j)
                if slack < 0:
                    triangles.append((i, j, k, slack))
    return ValidationReport(strict, tuple(triangles), tuple(negatives), tuple(zeros))


def random_entry(rng: random.Random) -> Fraction:
    roll = rng.random()
    if roll < 0.1:
        return Fraction(0)
    if roll < 0.2:
        return Fraction(rng.randint(-4, -1), rng.choice([1, 2, 3]))
    return Fraction(rng.randint(1, 24), rng.choice([1, 2, 3, 4, 5, 6, 7, 12]))


def sig_tie_metric(n: int, rng: random.Random) -> Metric:
    """d(i,j) = p_i + p_j - e_ij with 0 <= e_ij <= min(p_i, p_j): a strict
    metric (e_ik + e_kj <= 2 p_k).  An e_ij of min(p_i, p_j) puts a radius
    at p_i, so the pairs with e = 0 tend to sit exactly on r_i + r_j."""
    p = [Fraction(rng.randint(1, 12), rng.choice([1, 2, 3, 4, 6, 7])) for _ in range(n)]
    entries = []
    for i, j in vertex_pairs(n):
        low = min(p[i - 1], p[j - 1])
        e = rng.choice([0, 0, low, low * Fraction(rng.randint(1, 3), 4)])
        entries.append(p[i - 1] + p[j - 1] - e)
    return Metric(n, tuple(entries))


def random_test_metric(trial: int, rng: random.Random) -> Metric:
    """Candidate metrics on 2..10 vertices with mixed denominators: nudged
    semi-metrics, strict metrics with SIG ties, and random entries with
    zeros and negatives."""
    n = 2 + trial % 9
    kind = trial % 4
    if kind == 0:
        # a semi-metric, then nudged so a few triangles fail by little
        entries = list(random_semimetric(n, rng).d)
        for _ in range(rng.randint(0, 2)):
            p = rng.randrange(len(entries))
            entries[p] += Fraction(rng.randint(1, 9), rng.choice([2, 3, 5, 8]))
        return Metric(n, tuple(entries))
    if kind == 1:
        return sig_tie_metric(n, rng)
    return Metric(n, tuple(random_entry(rng) for _ in range(num_pairs(n))))


def test_validate_matches_naive_triple_loop():
    rng = random.Random(20261018)
    for trial in range(600):
        d = random_test_metric(trial, rng)
        for strict in (False, True):
            got = validate_metric(d, strict=strict)
            assert got == naive_validate(d, strict)
            assert all(type(s) is Fraction for *_, s in got.triangle_violations)


def test_table_readers_match_naive_definitions():
    """Every reader of the pair table against its definition, through
    Metric.distance: the trace and star traces, the pair-cut slacks
    s_i + s_j - (n-4) d(i,j) - 2 Tr/(n-2) and weights slack/(2(n-4)),
    the radii r_i = min_{j != i} d(i,j), and the SIG edge rule
    d(i,j) < r_i + r_j (a tie is a non-edge)."""
    rng = random.Random(20261019)
    ties = 0
    for trial in range(400):
        d = random_test_metric(trial, rng)
        n = d.n
        dist = d.distance
        stars = tuple(sum(dist(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))
        trace = sum((dist(i, j) for i, j in vertex_pairs(n)), Fraction(0))
        assert summarize(d) == MetricSummary(n, trace, stars)
        if n >= 5:
            slacks = [
                stars[i - 1] + stars[j - 1] - (n - 4) * dist(i, j) - 2 * trace / (n - 2)
                for i, j in vertex_pairs(n)
            ]
            verdict = paircut_membership(d)
            assert verdict.weights == tuple(t / (2 * (n - 4)) for t in slacks)
            assert paircut_weights(d) == verdict.weights
            assert verdict.violations == tuple(
                (pair, t) for pair, t in zip(vertex_pairs(n), slacks) if t < 0
            )
            assert verdict.member == all(t >= 0 for t in slacks)
        target = SimpleGraph.from_edges(
            n, [pair for pair in vertex_pairs(n) if rng.random() < 0.5]
        )
        if not validate_metric(d, strict=True).valid:
            for call in (sig.influence_radii, sig.sig_graph, lambda m: sig.verify_sig_metric(m, target)):
                with pytest.raises(ValueError, match="requires a strict metric"):
                    call(d)
            continue
        radii = tuple(
            min(dist(i, j) for j in range(1, n + 1) if j != i) for i in range(1, n + 1)
        )
        edges = tuple(
            (i, j) for i, j in vertex_pairs(n) if dist(i, j) < radii[i - 1] + radii[j - 1]
        )
        ties += sum(dist(i, j) == radii[i - 1] + radii[j - 1] for i, j in vertex_pairs(n))
        assert sig.influence_radii(d) == radii
        assert sig.sig_graph(d).edges == edges
        report = sig.verify_sig_metric(d, target)
        assert report.radii == radii
        assert report.missing_edges == tuple(e for e in target.edges if e not in edges)
        assert report.extra_edges == tuple(e for e in edges if e not in target.edges)
        assert report.matches == (target.edges == edges)
        assert sig.verify_sig_metric(d, sig.sig_graph(d)).matches
    assert ties > 100


def test_validate_and_sig_graph_do_not_call_distance(monkeypatch):
    d = random_semimetric(40, random.Random(7))
    expected_radii = tuple(
        min(d.distance(i, j) for j in range(1, 41) if j != i) for i in range(1, 41)
    )

    def forbidden(self, i, j):
        raise AssertionError("Metric.distance called")

    # Frechet embedding: row i of d is a max-norm point, isometric to d.
    frechet = PointSet(
        norm="linf",
        points=tuple(tuple(d.distance(i, k) for k in range(1, 41)) for i in range(1, 41)),
    )

    monkeypatch.setattr(Metric, "distance", forbidden)
    assert validate_metric(d, strict=True).valid
    graph = sig.sig_graph(d)
    assert sig.influence_radii(d) == expected_radii
    assert sig.verify_sig_metric(d, graph).matches
    assert verify_isometry(frechet, d).ok


def test_integer_entries_clears_one_common_denominator():
    values = [3, Fraction(-1, 4), Fraction(5, 6), 0, -2, Fraction(-7, 3)]
    assert integer_entries(values) == (12, [36, -3, 10, 0, -24, -28])
    assert integer_entries(iter(values)) == integer_entries(tuple(values))
    assert integer_entries([4, -5]) == (1, [4, -5])
    assert integer_entries([Fraction(-3, 2)]) == (2, [-3])
    assert integer_entries([]) == (1, [])


# ---------------------------------------------------------------------------
# summaries


def test_summarize_complete_graph_metric():
    d = metric_of_ints(5, [1] * 10)
    s = summarize(d)
    assert s.trace == 10
    assert s.star_traces == (Fraction(4),) * 5


def test_summarize_pair_cut_on_five_points():
    s = summarize(pair_cut_metric(5, 2, 4))
    assert s.trace == 6
    for i in range(1, 6):
        assert s.star_trace(i) == (3 if i in (2, 4) else 2)


def test_summarize_hypercube_metric():
    from cutcones.sig import graph_metric, hypercube_graph

    s = summarize(graph_metric(hypercube_graph(3)))
    assert s.star_traces == (Fraction(12),) * 8


def test_star_trace_accessor_bounds():
    s = summarize(metric_of_ints(3, [1, 1, 1]))
    with pytest.raises(ValueError):
        s.star_trace(0)
    with pytest.raises(ValueError):
        s.star_trace(4)


def test_trace_identity_on_random_metrics():
    rng = random.Random(421)
    for _ in range(25):
        n = rng.randint(3, 8)
        d = Metric(
            n,
            tuple(
                Fraction(rng.randint(0, 40), rng.randint(1, 6))
                for _ in range(num_pairs(n))
            ),
        )
        s = summarize(d)
        assert 2 * s.trace == sum(s.star_traces)


# ---------------------------------------------------------------------------
# cut traces


def test_cut_trace_of_pair_cut_metric():
    d = pair_cut_metric(5, 2, 4)
    assert cut_trace(d, Cut.from_members(5, [2])) == 3
    assert cut_trace(d, Cut.from_members(5, [4])) == 3


def test_cut_trace_complete_graph_size_two():
    d = metric_of_ints(5, [1] * 10)
    assert cut_trace(d, Cut.from_members(5, [1, 2])) == 6


def test_cut_trace_singleton_equals_star_trace(figure_eight_d1):
    s = summarize(figure_eight_d1)
    for i in range(1, 8):
        assert cut_trace(figure_eight_d1, Cut.from_members(7, [i])) == s.star_trace(i)


def test_cut_trace_complement_symmetry():
    rng = random.Random(99)
    d = Metric(
        6, tuple(Fraction(rng.randint(1, 9)) for _ in range(15))
    )
    for mask in range(1, 63):
        cut = Cut(6, mask)
        assert cut_trace(d, cut) == cut_trace(d, cut.complement())


def test_cut_trace_rejects_trivial_cuts():
    d = metric_of_ints(4, [1] * 6)
    with pytest.raises(ValueError):
        cut_trace(d, Cut(4, 0))
    with pytest.raises(ValueError):
        cut_trace(d, Cut(4, 0b1111))


def test_cut_trace_rejects_a_cut_on_other_vertices():
    with pytest.raises(ValueError, match="cut on 5 vertices vs metric on 4"):
        cut_trace(metric_of_ints(4, [1] * 6), Cut(5, 1))


def test_cut_trace_matches_cut_vector_dot_product():
    rng = random.Random(5)
    d = Metric(5, tuple(Fraction(rng.randint(0, 7), 2) for _ in range(10)))
    for mask in range(1, 31):
        cut = Cut(5, mask)
        dot = sum(a * b for a, b in zip(d.d, cut_metric_vector(cut)))
        assert cut_trace(d, cut) == dot


def test_pair_trace_identity():
    # the trace across a two-element cut in terms of the star traces
    rng = random.Random(12)
    d = Metric(6, tuple(Fraction(rng.randint(1, 9), 3) for _ in range(15)))
    s = summarize(d)
    for i, j in vertex_pairs(6):
        pair = Cut.from_members(6, [i, j])
        expected = s.star_trace(i) + s.star_trace(j) - 2 * d.distance(i, j)
        assert cut_trace(d, pair) == expected


# ---------------------------------------------------------------------------
# the pairs a cut splits


@pytest.mark.parametrize("n", range(3, 9))
def test_split_pairs_are_the_separated_pairs(n):
    pairs = vertex_pairs(n)
    for mask in range(1 << n):
        cut = Cut(n, mask)
        expected = [p for p, (i, j) in enumerate(pairs) if cut.separates(i, j)]
        assert split_pairs(n, mask) == expected


def test_split_pairs_rejects_out_of_range_masks():
    with pytest.raises(ValueError):
        split_pairs(4, 1 << 4)
    with pytest.raises(ValueError):
        split_pairs(4, -1)
