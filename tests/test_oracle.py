"""Exact LP feasibility oracle, and the seeded instance generators of
`instances.py`."""

import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cutcones import oracle, sig
from cutcones.cut_algebra import (
    RationalMatrix,
    cut_masks,
    cut_metric_vector,
    cut_traces,
    enumerate_cuts,
    full_cut_matrix,
    inverse_square_cut_matrix,
    pair_cut,
    square_cut_matrix,
)
from cutcones.fullcut import certificate_from_weights, verify_cut_certificate
from cutcones.metric import Metric, integer_entries, split_pairs, validate_metric, vertex_pairs
from cutcones.oracle import (
    FeasibilityResult,
    cutcone_membership,
    lp_feasibility,
    paircut_membership_exact,
)
from cutcones.paircut import paircut_membership, paircut_weights
from cutcones.sig import (
    SimpleGraph,
    complete_bipartite_graph,
    graph_metric,
    hypercube_graph,
    path_graph,
    truncated_metric,
)

from conftest import metric_of_ints
from exact_rank import times
from instances import (
    random_cut_combination,
    random_l1_points_metric,
    random_paircut_combination,
    random_rational,
    random_semimetric,
)
from reference_simplex import reference_phase_one

F = Fraction


def check_witness(matrix: RationalMatrix, rhs, witness):
    assert all(w >= 0 for w in witness)
    assert times(matrix, witness) == tuple(rhs)


def check_farkas(matrix: RationalMatrix, rhs, farkas):
    for c in range(matrix.cols):
        assert sum(y * x for y, x in zip(farkas, matrix.column(c))) <= 0
    assert sum(y * b for y, b in zip(farkas, rhs)) > 0


# ---------------------------------------------------------------------------
# the core solver


def test_single_column_system():
    column = cut_metric_vector(pair_cut(3, 1, 2))
    matrix = RationalMatrix.from_rows([[x] for x in column])
    result = lp_feasibility(matrix, column)
    assert result.feasible
    assert result.witness == (F(1),)
    assert result.farkas is None


def test_small_infeasible_system():
    matrix = RationalMatrix.from_rows([[F(1)], [F(1)]])
    result = lp_feasibility(matrix, (F(1), F(2)))
    assert not result.feasible
    assert result.witness is None
    check_farkas(matrix, (F(1), F(2)), result.farkas)


def test_negative_rhs_is_normalized():
    matrix = RationalMatrix.from_rows([[F(1), F(-1)]])
    result = lp_feasibility(matrix, (F(-3),))
    assert result.feasible
    check_witness(matrix, (F(-3),), result.witness)


def rational_matrix():
    """Every row with its own denominators; the integer columns are 420
    times its own."""
    return RationalMatrix.from_rows(
        [
            [F(1, 2), F(1, 3), F(0)],
            [F(1, 4), F(1), F(-2, 5)],
            [F(0), F(-1, 6), F(3, 7)],
        ]
    )


def test_non_integer_rational_matrix():
    # every row has its own denominators, and both right-hand sides
    # carry a negative entry, so the solver must clear denominators and
    # map the Farkas vector back through scaling and sign flips
    matrix = rational_matrix()
    member = times(matrix, (F(2), F(3, 2), F(1, 3)))
    result = lp_feasibility(matrix, member)
    assert result.feasible
    # the matrix is invertible, so the witness is the unique solution
    assert result.witness == (F(2), F(3, 2), F(1, 3))

    outside = times(matrix, (F(1), F(-1, 2), F(1, 5)))
    result = lp_feasibility(matrix, outside)
    assert not result.feasible
    check_farkas(matrix, outside, result.farkas)


def test_positive_scaling_changes_no_pivot_or_farkas_vector():
    # lp_feasibility(k M, c d) takes the pivots of lp_feasibility(M, d)
    # and returns its Farkas vector, or its witness times c / k
    small = rational_matrix()
    cases = [
        (small, times(small, (F(2), F(3, 2), F(1, 3)))),
        (small, times(small, (F(1), F(-1, 2), F(1, 5)))),
    ]
    rng = random.Random(5)
    cases += [(full_cut_matrix(5), random_semimetric(5, rng).d) for _ in range(4)]
    seen = set()
    for matrix, rhs in cases:
        want = lp_feasibility(matrix, rhs)
        seen.add(want.feasible)
        for k in (F(3), F(1, 6), F(7, 4), F(2, 9)):
            scaled = RationalMatrix.from_rows([[k * x for x in row] for row in matrix.entries])
            for c in (F(3), F(1, 6), F(7, 4), F(2, 9)):
                got = lp_feasibility(scaled, [c * x for x in rhs])
                assert got.pivots == want.pivots
                assert got.farkas == want.farkas
                if want.feasible:
                    assert got.witness == tuple(w * c / k for w in want.witness)
                else:
                    assert got.witness is None
    assert seen == {True, False}


def test_dimension_mismatch_rejected():
    matrix = square_cut_matrix(3)
    with pytest.raises(ValueError):
        lp_feasibility(matrix, (F(1), F(2)))


def test_path_metric_is_feasible():
    d = truncated_metric(path_graph(5))
    matrix = full_cut_matrix(5)
    result = lp_feasibility(matrix, d.d)
    assert result.feasible
    check_witness(matrix, d.d, result.witness)


def sylvester_01(k):
    """The 0/1 matrix of order 2^k - 1 left by Sylvester's Hadamard
    matrix of order 2^k: drop its all-ones first row and column and map
    +1 -> 0, -1 -> 1.  Its determinant reaches the 0/1 bound
    (m+1)^((m+1)/2) / 2^m, e.g. 32 at order 7."""
    size = 1 << k
    return [[bin(i & j).count("1") % 2 for j in range(1, size)] for i in range(1, size)]


def test_zero_one_slot_width_bound_is_tight():
    rows = sylvester_01(3)
    columns = integer_columns(rows)
    # (m+1)^(m+1) / 4^m = 8^8 / 4^7 = 32^2: W = 7 holds +-32 with a
    # bit to spare; Hadamard's 4^7 = 128^2 would give 9
    assert oracle._slot_width(columns, 7) == 7
    matrix = RationalMatrix.from_rows([[F(x) for x in row] for row in rows])
    member = [sum(row) for row in rows]  # every column with weight 1
    outside = [sum(row[:6]) - row[6] for row in rows]
    for b, expected in ((member, True), (outside, False)):
        result = lp_feasibility(matrix, [F(x) for x in b])
        want = reference_phase_one(columns, b)
        assert result.feasible == expected
        assert result == want and result.pivots == want.pivots
        if expected:
            assert result.witness == (F(1),) * 7


def test_slot_widths():
    # the 0/1 bound for the cut columns at n=10 (Hadamard gives 106), the
    # smaller Hadamard bound for the pair cuts at n=14 (211 from 0/1), and
    # Hadamard alone once an entry is not 0/1
    assert oracle._cut_cone("cut", 10).width == 84
    assert oracle._cut_cone("pair", 14).width == 210
    # squared norms 4 and 10: isqrt(40) + 1 = 7, three bits and a sign
    assert oracle._slot_width(integer_columns([[2, 1], [0, 3]]), 2) == 4


def test_zero_column_and_fewer_nonzero_columns_than_rows():
    # a zero column among the m largest column norms must not shrink
    # the packed solver's slot width
    matrix = RationalMatrix.from_rows([[F(5), F(0)], [F(7), F(0)]])
    result = lp_feasibility(matrix, (F(10), F(14)))
    assert result.feasible
    assert result.witness == (F(2), F(0))
    result = lp_feasibility(matrix, (F(10), F(15)))
    assert not result.feasible
    check_farkas(matrix, (F(10), F(15)), result.farkas)


def test_solver_is_deterministic():
    rng = random.Random(3)
    d = random_semimetric(6, rng)
    matrix = square_cut_matrix(6)
    first = lp_feasibility(matrix, d.d)
    second = lp_feasibility(matrix, d.d)
    assert first == second


# ---------------------------------------------------------------------------
# the packed-column solver against the row-major reference


def integer_columns(rows):
    """The sparse columns of an integer matrix, as lp_feasibility builds them."""
    columns = []
    for col in zip(*rows):
        nonzero = tuple(i for i, x in enumerate(col) if x)
        vals = tuple(col[i] for i in nonzero)
        columns.append((nonzero, None if all(x == 1 for x in vals) else vals))
    return columns


def cut_columns(n, masks):
    """The 0/1 columns delta(mask), in the order of masks."""
    return [(tuple(split_pairs(n, mask)), None) for mask in masks]


def assert_same_as_reference(columns, b, cone=None):
    if cone is None:
        cone = oracle._Generators(columns, oracle._slot_width(columns, len(b)))
    got = oracle._phase_one(cone, b)
    want = reference_phase_one(columns, b)
    assert got == want
    assert got.pivots == want.pivots
    return got


def test_packed_solver_matches_reference_on_cut_columns():
    # each cone's columns twice: through the plain sparse scan, and
    # through star pricing with the cone's 0/1 slot width
    rng = random.Random(41)
    seen = set()
    for n in range(3, 10):
        m = n * (n - 1) // 2
        masks = cut_masks(n)
        cones = (oracle._cut_cone("cut", n), oracle._cut_cone("pair", n))
        column_sets = (
            cut_columns(n, masks[: len(masks) // 2]),
            cut_columns(n, pair_cut_masks(n)),
        )
        assert [list(cone.columns) for cone in cones] == list(column_sets)
        metrics = [
            random_semimetric(n, rng),
            random_l1_points_metric(n, rng),
            random_paircut_combination(n, rng),
            # any integer entries, some negative
            Metric(n, tuple(F(rng.randint(-6, 12)) for _ in range(m))),
        ]
        for d in metrics:
            b = integer_entries(d.d)[1]
            for columns, cone in zip(column_sets, cones):
                seen.add(assert_same_as_reference(columns, b).feasible)
                seen.add(assert_same_as_reference(cone.columns, b, cone).feasible)
    assert seen == {True, False}


def test_packed_solver_matches_reference_on_general_columns():
    rng = random.Random(43)
    big = 10**12
    # entries near 10^12: basis cofactors pass 2^63, so a fixed 64-bit
    # slot would overflow
    rows = [[big - rng.randint(0, 999) * rng.choice((-1, 1)) for _ in range(5)] for _ in range(4)]
    rows[1][2] = -rows[1][2]
    seen = {assert_same_as_reference(integer_columns(rows), [big, -big + 7, big // 3, 5]).feasible}
    member = [sum(r[j] * w for j, w in enumerate((3, 0, 1, 2, 0))) for r in rows]
    assert assert_same_as_reference(integer_columns(rows), member).feasible
    # zero columns, fewer columns than rows, negative right-hand sides
    cases = [
        ([[5, 0], [7, 0]], [10, 14]),
        ([[5, 0], [7, 0]], [10, 15]),
        ([[0, 0, 3], [0, 0, -2], [0, 0, 1]], [-6, 4, -2]),
        ([[2], [-1], [0], [4]], [4, -2, 0, 8]),
        ([[2], [-1], [0], [4]], [4, -2, 1, 8]),
        ([[big, 0, -big + 1], [0, 0, 0], [big - 3, 0, big]], [-1, 0, 2]),
    ]
    for rows, b in cases:
        seen.add(assert_same_as_reference(integer_columns(rows), b).feasible)
    for _ in range(60):
        m = rng.randint(1, 6)
        ncols = rng.randint(0, 8)
        scale = rng.choice((3, big))
        rows = [
            [rng.randint(-scale, scale) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(m)
        ]
        b = [rng.randint(-scale, scale) for _ in range(m)]
        seen.add(assert_same_as_reference(integer_columns(rows), b).feasible)
    assert seen == {True, False}


_entries = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**12), max_value=10**12),
)


@settings(max_examples=60, deadline=None, database=None)
@given(
    shape=st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6)),
    data=st.data(),
)
def test_packed_solver_matches_reference_property(shape, data):
    m, ncols = shape
    rows = data.draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), min_size=m, max_size=m))
    b = data.draw(st.lists(_entries, min_size=m, max_size=m))
    assert_same_as_reference(integer_columns(rows), b)


# ---------------------------------------------------------------------------
# cut-cone membership


def test_cutcone_bipartite_truncated_infeasible():
    d = truncated_metric(complete_bipartite_graph(2, 3))
    result = cutcone_membership(d)
    assert not result.feasible
    check_farkas(full_cut_matrix(5), d.d, result.farkas)


def test_cutcone_path_metrics_feasible():
    for n in (5, 6):
        d = graph_metric(path_graph(n))
        result = cutcone_membership(d)
        assert result.feasible
        cert = certificate_from_weights(n, result.witness)
        assert verify_cut_certificate(cert, d).valid


def test_pivot_counts_at_n10():
    # Bland's rule over all 2^10 - 2 cut columns takes these pivots;
    # keeping one column per complement pair must not change them
    path = cutcone_membership(graph_metric(path_graph(10)))
    assert path.feasible and path.pivots == 65
    cube = SimpleGraph.from_edges(10, list(hypercube_graph(3).edges))
    padded = cutcone_membership(truncated_metric(cube))
    assert not padded.feasible and padded.pivots == 360


def test_pivot_count_takes_no_part_in_equality():
    a = FeasibilityResult(True, (F(1),), None, pivots=3)
    b = FeasibilityResult(True, (F(1),), None, pivots=5)
    assert a == b


def pinned_instances():
    """Seeded metrics at n = 4..9: two of each random family per n, then
    family catalog metrics (members and non-members of both cones)."""
    rng = random.Random(1923)
    for n in range(4, 10):
        for _ in range(2):
            yield random_semimetric(n, rng)
            yield random_l1_points_metric(n, rng)
            yield random_cut_combination(n, rng)
            yield random_paircut_combination(n, rng)
    for name, params, metric in (
        ("C", (9,), "d0"), ("Q", (3,), "d0"), ("B", (3, 4), "d1"), ("CP", (4,), "d0"),
        ("K", (6,), "d1"), ("L", (8,), "d0"), ("S", (6,), "d1"),
    ):
        g = sig.family(name, *params)
        yield truncated_metric(g) if metric == "d0" else graph_metric(g)


def test_oracle_output_is_pinned():
    # verdict, certificate and pivot count of both cone oracles on fixed
    # instances; a change to the solver that moves a single pivot or a
    # single certificate entry changes the digest
    digest = hashlib.sha256()
    for d in pinned_instances():
        for solve in (cutcone_membership, paircut_membership_exact):
            r = solve(d)
            digest.update(repr((r.feasible, r.witness, r.farkas, r.pivots)).encode())
    assert digest.hexdigest()[:32] == "8d3f0ca6c1334ec729bbad8e0337b199"


def sparse_cut_combination(n, rng, cuts):
    """Random positive weights on `cuts` random distinct nontrivial cuts."""
    total = [F(0)] * (n * (n - 1) // 2)
    for mask in rng.sample(range(1, (1 << n) - 1), cuts):
        w = F(rng.randint(1, 12), 4)
        for r, (i, j) in enumerate(combinations(range(n), 2)):
            if (mask >> i ^ mask >> j) & 1:
                total[r] += w
    return Metric(n, tuple(total))


def planted_k23(n, rng, c=4):
    """Random entries in [c, 2c] with the path metric of K_{2,3}, scaled
    by c, on five random vertices: it violates the pentagonal
    inequality, so it lies outside the cut cone."""
    d = {p: F(rng.randint(4 * c, 8 * c), 4) for p in combinations(range(n), 2)}
    five = rng.sample(range(n), 5)
    side = set(five[:3])
    for i, j in combinations(sorted(five), 2):
        d[i, j] = F(2 * c if (i in side) == (j in side) else c)
    return Metric(n, tuple(d[p] for p in combinations(range(n), 2)))


def triangle_violation(n, rng):
    """Random entries in [2, 4] with d(1,2) = 9 > d(1,3) + d(3,2)."""
    d = [F(rng.randint(8, 16), 4) for _ in range(n * (n - 1) // 2)]
    d[0] = F(9)
    return Metric(n, tuple(d))


def test_dropping_complement_columns_changes_nothing():
    # the oracle solves over one column per complement pair; the full
    # cut-matrix has both, and must give the same witness or Farkas vector
    rng = random.Random(23)
    for n in range(4, 8):
        members = [random_cut_combination(n, rng), sparse_cut_combination(n, rng, n)]
        outside = [triangle_violation(n, rng)]
        if n >= 5:
            outside.append(planted_k23(n, rng))
        for expected, metrics in ((True, members), (False, outside)):
            for d in metrics:
                result = cutcone_membership(d)
                assert result.feasible == expected
                # the full matrix goes through the plain sparse scan, so
                # equal pivots also say star pricing takes Bland's
                full = lp_feasibility(full_cut_matrix(n), d.d)
                assert result == full
                assert result.pivots == full.pivots


@settings(max_examples=25, deadline=None, database=None)
@given(
    n=st.sampled_from((4, 5)),
    weights=st.lists(st.integers(min_value=-2, max_value=6), min_size=15, max_size=15),
    denom=st.integers(min_value=1, max_value=4),
)
def test_dropping_complement_columns_property(n, weights, denom):
    # one weight per complement class, on its first cut; negative
    # weights make non-members (or non-metrics) as well as members
    cuts = enumerate_cuts(n)
    total = [F(0)] * (n * (n - 1) // 2)
    for cut, w in zip(cuts[: (1 << (n - 1)) - 1], weights):
        for r, x in enumerate(cut_metric_vector(cut)):
            total[r] += x * F(w, denom)
    d = Metric(n, tuple(total))
    result = cutcone_membership(d)
    full = lp_feasibility(full_cut_matrix(n), d.d)
    assert result == full
    assert result.pivots == full.pivots


def test_degenerate_classes_at_n10():
    # sparse cut combinations and planted K_{2,3} semi-metrics are the
    # oracle's most degenerate inputs at n = 10
    rng = random.Random(10)
    d = sparse_cut_combination(10, rng, 20)
    t0 = time.monotonic()
    result = cutcone_membership(d)
    assert time.monotonic() - t0 < 30
    assert result.feasible
    assert verify_cut_certificate(certificate_from_weights(10, result.witness), d).valid

    d = planted_k23(10, rng)
    t0 = time.monotonic()
    result = cutcone_membership(d)
    assert time.monotonic() - t0 < 30
    assert not result.feasible
    check_farkas(full_cut_matrix(10), d.d, result.farkas)


def all_cut_masks(n):
    return [c.members for c in enumerate_cuts(n)]


def pair_cut_masks(n):
    return [1 << (i - 1) | 1 << (j - 1) for i, j in vertex_pairs(n)]


def check_cut_witness(d, masks, w):
    """The merged witness re-check over the 0/1 columns of masks."""
    oracle._check_witness(cut_columns(d.n, masks), d.d, w)


def check_cut_farkas(d, masks, y):
    """The merged Farkas re-check over the 0/1 columns of masks."""
    oracle._check_farkas(cut_columns(d.n, masks), d.d, y)


def test_cut_certificate_rechecks_reject_bad_certificates():
    d = truncated_metric(complete_bipartite_graph(2, 3))
    masks = all_cut_masks(5)
    y = list(cutcone_membership(d).farkas)
    check_cut_farkas(d, masks, y)
    # raising y on the pair {4, 5} by enough makes it positive on the
    # cuts that split that pair, all of which hold vertex 4 or 5
    y[-1] += 100
    with pytest.raises(RuntimeError):
        check_cut_farkas(d, masks, y)
    with pytest.raises(RuntimeError):
        check_cut_farkas(d, masks, [F(0)] * len(y))

    d = graph_metric(path_graph(5))
    w = list(cutcone_membership(d).witness)
    check_cut_witness(d, masks, w)
    k = next(i for i, x in enumerate(w) if x)
    twin = len(w) - 1 - k  # the complement: the same cut metric
    moved = list(w)
    moved[k] += F(1, 2)
    with pytest.raises(RuntimeError):
        check_cut_witness(d, masks, moved)
    moved = list(w)
    moved[k] += 1
    moved[twin] -= 1
    with pytest.raises(RuntimeError):
        check_cut_witness(d, masks, moved)
    moved = list(w)
    moved[k], moved[twin] = F(0), w[k]
    check_cut_witness(d, masks, moved)


def test_cut_farkas_recheck_rejects_the_smallest_positive_value():
    # y is 1/7 on the pair {1, 2}: positive on the cut {1} alone
    with pytest.raises(RuntimeError):
        check_cut_farkas(Metric(3, (F(1),) * 3), all_cut_masks(3), [F(1, 7), F(0), F(0)])


@pytest.mark.parametrize("n", range(5, 9))
def test_cut_cone_farkas_recheck_reads_the_trace_table(n):
    """Over one mask per complement class, the re-check raises exactly
    when the cut_traces table of y has a positive entry, i.e. when some
    cut has y . delta(cut) > 0.

    y is a hypermetric functional b_i b_j (sum of b is 1), nonpositive
    on every cut and zero on some, plus a small bump on a few pairs that
    may or may not make a cut positive.
    """
    rng = random.Random(n)
    masks = all_cut_masks(n)[: 2 ** (n - 1) - 1]
    outcomes = set()
    for _ in range(12):
        b = [1] * ((n + 1) // 2) + [-1] * ((n - 1) // 2) + [0] * (1 - n % 2)
        rng.shuffle(b)
        y = [F(b[i - 1] * b[j - 1]) for i, j in vertex_pairs(n)]
        for p in rng.sample(range(len(y)), 3):
            y[p] += F(rng.choice((-1, 1)), 4 * len(y))
        d = Metric(n, tuple(F(x > 0) for x in y))
        positive = any(x > 0 for x in cut_traces(n, integer_entries(y)[1]))
        outcomes.add(positive)
        if positive:
            with pytest.raises(RuntimeError):
                check_cut_farkas(d, masks, y)
        else:
            check_cut_farkas(d, masks, y)
    assert outcomes == {True, False}


def test_pair_cut_certificate_rechecks_reject_bad_certificates(figure_eight_d0):
    masks = pair_cut_masks(7)
    d = figure_eight_d0
    y = list(paircut_membership_exact(d).farkas)
    check_cut_farkas(d, masks, y)
    # raising y on the pair {1, 2} by enough makes it positive on the
    # pair cuts {1, k} and {2, k}, which split that pair
    y[0] += 100
    with pytest.raises(RuntimeError):
        check_cut_farkas(d, masks, y)
    with pytest.raises(RuntimeError):
        check_cut_farkas(d, masks, [F(0)] * len(y))
    # row k of the inverse pair-cut matrix is 1 on the k-th pair cut and
    # 0 on every other one, so each pair cut must be looked at
    inverse = inverse_square_cut_matrix(7)
    for k in range(len(masks)):
        with pytest.raises(RuntimeError):
            check_cut_farkas(d, masks, inverse.row(k))

    d = random_paircut_combination(7, random.Random(8))
    w = list(paircut_membership_exact(d).witness)
    check_cut_witness(d, masks, w)
    # the pair cuts are independent for n >= 5, so any moved weight
    # changes the sum
    k = next(i for i, x in enumerate(w) if x)
    moved = list(w)
    moved[k] += F(1, 4)
    with pytest.raises(RuntimeError):
        check_cut_witness(d, masks, moved)
    moved = list(w)
    moved[k] = -moved[k]
    with pytest.raises(RuntimeError):
        check_cut_witness(d, masks, moved)


def left_solve(matrix, target):
    """The row vector y with y M = target, for an invertible square M."""
    k = matrix.rows
    rows = [list(matrix.column(c)) + [F(target[c])] for c in range(k)]  # M^T | target
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(k):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[-1] for row in rows]


def test_general_column_rechecks_reject_bad_certificates():
    # a non-0/1 matrix, whose integer columns are 420 times its own
    matrix = rational_matrix()
    scale, flat = integer_entries(x for row in matrix.entries for x in row)
    columns = integer_columns([flat[r * 3 : r * 3 + 3] for r in range(3)])
    assert scale == 420

    # the integer columns solve A w = scale * d.  d = (2, 7/10, 5/2) has
    # s_b = 10, so the factor scale / s_b is 42
    member = times(matrix, (F(2), F(3), F(7)))
    w = lp_feasibility(matrix, member).witness
    scaled = [scale * x for x in member]
    oracle._check_witness(columns, scaled, w)
    # the witness of A w = s_b d, the unscaled d cleared of denominators
    factor = F(scale, integer_entries(member)[0])
    assert factor == 42
    with pytest.raises(RuntimeError):
        oracle._check_witness(columns, scaled, [x / factor for x in w])
    # an exact solution with one negative entry is not in the cone
    signed = (F(1), F(-1, 2), F(1, 5))
    outside = times(matrix, signed)
    with pytest.raises(RuntimeError):
        oracle._check_witness(columns, [scale * x for x in outside], signed)

    y = lp_feasibility(matrix, outside).farkas
    oracle._check_farkas(columns, outside, y)
    # y M = (-1, -1, 3): positive on the third column alone, whose
    # entries are -2/5 and 3/7, while y . d = -1 + 1/2 + 3/5 > 0
    y = left_solve(matrix, (-1, -1, 3))
    assert sum(a * b for a, b in zip(y, outside)) > 0
    with pytest.raises(RuntimeError):
        oracle._check_farkas(columns, outside, y)
    # y M = (-1, -2, 0) is nonpositive on every column, but y . d = 0
    y = left_solve(matrix, (-1, -2, 0))
    assert sum(a * b for a, b in zip(y, outside)) == 0
    with pytest.raises(RuntimeError):
        oracle._check_farkas(columns, outside, y)


def test_cutcone_size_guard():
    d = metric_of_ints(5, [1] * 10)
    with pytest.raises(ValueError):
        cutcone_membership(d, max_n=4)
    big = Metric(11, (F(1),) * 55)
    with pytest.raises(ValueError):
        cutcone_membership(big)


# ---------------------------------------------------------------------------
# pair-cut membership through the oracle


def test_paircut_exact_three_points():
    d = Metric(3, cut_metric_vector(pair_cut(3, 1, 2)))
    result = paircut_membership_exact(d)
    assert result.feasible
    # pairs in lexicographic order: {1,2} carries everything
    assert result.witness == (F(1), F(0), F(0))


def test_paircut_exact_four_point_complete_graph():
    # the closed form does not exist here; the oracle still decides
    d = metric_of_ints(4, [1] * 6)
    result = paircut_membership_exact(d)
    assert result.feasible
    check_witness(square_cut_matrix(4), d.d, result.witness)


def test_paircut_exact_figure_eight(figure_eight_d0):
    result = paircut_membership_exact(figure_eight_d0)
    assert not result.feasible
    check_farkas(square_cut_matrix(7), figure_eight_d0.d, result.farkas)
    assert not paircut_membership(figure_eight_d0).member


def test_paircut_exact_agrees_with_closed_form():
    rng = random.Random(19)
    for n in (5, 6):
        for _ in range(15):
            d = random_semimetric(n, rng)
            result = paircut_membership_exact(d)
            verdict = paircut_membership(d)
            assert result.feasible == verdict.member
            if result.feasible:
                # the square system has a unique solution for n >= 5
                assert result.witness == verdict.weights


def test_paircut_exact_equals_the_dense_oracle():
    # the bitmask front end must take the pivots of lp_feasibility on
    # the square cut-matrix and return the same certificates
    rng = random.Random(31)
    seen = set()
    for n in range(3, 10):
        matrix = square_cut_matrix(n)
        m = n * (n - 1) // 2
        metrics = [
            random_paircut_combination(n, rng),
            random_paircut_combination(n, rng, high=2, denom=3),
            random_semimetric(n, rng),
            random_semimetric(n, rng, low=1, high=3, denom=7),
            # signed pair-cut weights: members and non-members alike
            Metric(n, times(matrix, [F(rng.randint(-1, 6), 2) for _ in range(m)])),
            # any rational entries, some negative
            Metric(n, tuple(F(rng.randint(-6, 12), rng.randint(1, 5)) for _ in range(m))),
        ]
        for d in metrics:
            got = paircut_membership_exact(d)
            want = lp_feasibility(matrix, d.d)
            assert got == want and got.pivots == want.pivots
            seen.add(got.feasible)
    assert seen == {True, False}


@pytest.mark.parametrize("n", range(5, 13))
def test_closed_form_paircut_farkas_is_a_scaled_inverse_row(n):
    # y for the pair k is -2(n-2)(n-4) times row k of the inverse
    # square cut-matrix, and it is returned only for a violated pair
    rng = random.Random(100 + n)
    inverse = inverse_square_cut_matrix(n)
    pairs = vertex_pairs(n)
    hits = 0
    while hits < 3:
        d = random_semimetric(n, rng, low=1, high=3 + n)
        verdict = paircut_membership(d)
        for k, pair in enumerate(pairs):
            if verdict.weights[k] < 0:
                y = oracle.paircut_farkas(d, pair)
                assert [F(x) for x in y] == [-2 * (n - 2) * (n - 4) * x for x in inverse.row(k)]
                assert not paircut_membership_exact(d).feasible
                hits += 1
            else:
                with pytest.raises(RuntimeError):
                    oracle.paircut_farkas(d, pair)


def test_closed_form_paircut_farkas_needs_five_vertices():
    with pytest.raises(ValueError):
        oracle.paircut_farkas(metric_of_ints(4, [1] * 6), (1, 2))


def test_paircut_exact_witness_matches_closed_form_weights():
    rng = random.Random(20)
    for _ in range(10):
        d = random_paircut_combination(5, rng)
        result = paircut_membership_exact(d)
        assert result.feasible
        assert result.witness == paircut_weights(d)


# ---------------------------------------------------------------------------
# generators


def test_random_rational_stays_in_range():
    rng = random.Random(1)
    for _ in range(50):
        q = random_rational(rng, low=1, high=4, denom=6)
        assert 1 <= q <= 4
        assert q.denominator in (1, 2, 3, 6)


def test_l1_points_metric_is_in_the_cut_cone():
    rng = random.Random(2)
    for _ in range(3):
        d = random_l1_points_metric(5, rng)
        assert validate_metric(d).valid
        assert cutcone_membership(d).feasible


def test_cut_combination_is_in_the_cut_cone():
    rng = random.Random(6)
    d = random_cut_combination(5, rng)
    assert validate_metric(d).valid
    assert cutcone_membership(d).feasible


def test_paircut_combination_is_a_member():
    rng = random.Random(7)
    d = random_paircut_combination(6, rng)
    assert paircut_membership(d).member


def test_semimetric_generator_satisfies_triangles():
    rng = random.Random(9)
    for n in (4, 6, 8):
        d = random_semimetric(n, rng)
        assert validate_metric(d).valid
