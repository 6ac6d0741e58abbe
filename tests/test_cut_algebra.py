"""Cuts, cut enumerations, and the exact matrix constructions."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cutcones.cut_algebra import (
    Cut,
    RationalMatrix,
    combine_cuts,
    cut_masks,
    cut_metric_vector,
    cut_traces,
    enumerate_cuts,
    full_cut_matrix,
    incidence_matrix,
    inverse_square_cut_matrix,
    pair_cut,
    projectors,
    square_cut_matrix,
)
from cutcones import cut_algebra
from cutcones.metric import num_pairs, split_pairs, vertex_pairs

from exact_rank import integer_arrays, matrix_rank, times

F = Fraction


def members(cuts) -> list[tuple[int, ...]]:
    return [c.member_list for c in cuts]


# ---------------------------------------------------------------------------
# cuts


def test_cut_member_round_trip():
    c = Cut.from_members(6, [5, 2, 3])
    assert c.member_list == (2, 3, 5)
    assert c.size == 3
    assert c.contains(2) and not c.contains(4)
    assert c.separates(1, 2) and not c.separates(2, 5)


def test_cut_rejects_out_of_range():
    with pytest.raises(ValueError):
        Cut.from_members(4, [5])
    with pytest.raises(ValueError):
        Cut.from_members(4, [0])
    with pytest.raises(ValueError):
        Cut(3, 1 << 3)
    with pytest.raises(ValueError):
        Cut(3, -1)
    with pytest.raises(ValueError, match="need at least 2 vertices, got n=1"):
        Cut(1, 0)
    with pytest.raises(ValueError, match="vertex 6 out of range 1..5"):
        Cut(5, 1).contains(6)
    assert Cut(3, (1 << 3) - 1).is_trivial


def test_cut_range_check_builds_no_n_bit_int():
    # a mask of 1 on 10^8 vertices: 1 << n alone would be 12.5 MB
    tracemalloc.start()
    try:
        Cut(10**8, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cut_complement_and_triviality():
    c = Cut.from_members(5, [1, 4])
    assert c.complement().member_list == (2, 3, 5)
    assert not c.is_trivial
    assert Cut(5, 0).is_trivial
    assert Cut(5, 0b11111).is_trivial


def test_pair_cut_constructor():
    c = pair_cut(6, 2, 5)
    assert c.member_list == (2, 5)
    with pytest.raises(ValueError):
        pair_cut(6, 5, 5)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_cuts_four_points():
    expected = [
        (1,), (2,), (3,), (4,),
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
    ]
    assert members(enumerate_cuts(4)) == expected


def test_enumerate_cuts_three_points():
    assert members(enumerate_cuts(3)) == [
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
    ]


def test_enumerate_complement_rule():
    # the k-th cut and the (2^n - 1 - k)-th cut are complements (1-based)
    for n in range(3, 11):
        cuts = enumerate_cuts(n)
        total = (1 << n) - 1
        for k, cut in enumerate(cuts, start=1):
            assert cuts[total - k - 1].members == cut.complement().members


def test_enumerate_complement_example_four_points():
    cuts = enumerate_cuts(4)
    assert cuts[4].member_list == (1, 2)
    assert cuts[9].member_list == (3, 4)


def test_enumerate_size_guards():
    with pytest.raises(ValueError):
        enumerate_cuts(2)
    with pytest.raises(ValueError):
        enumerate_cuts(17)
    assert len(enumerate_cuts(5, max_n=5)) == 30
    with pytest.raises(ValueError):
        enumerate_cuts(6, max_n=5)
    # the cap is enumerate_cuts', not that of the helper it calls
    assert len(cut_masks(17)) == 2**17 - 2


# ---------------------------------------------------------------------------
# cut metric vectors


def test_cut_metric_vector_three_points():
    assert cut_metric_vector(Cut.from_members(3, [1])) == (F(1), F(1), F(0))
    assert cut_metric_vector(Cut.from_members(3, [3])) == (F(0), F(1), F(1))


def test_cut_metric_vector_complement_invariant():
    for mask in range(1, 15):
        c = Cut(4, mask)
        assert cut_metric_vector(c) == cut_metric_vector(c.complement())


def test_cut_metric_vector_trivial_is_zero():
    assert cut_metric_vector(Cut(4, 0)) == (F(0),) * 6
    assert cut_metric_vector(Cut(4, 0b1111)) == (F(0),) * 6


@pytest.mark.parametrize("n", [3, 5, 7])
def test_combine_cuts_is_the_sum_of_cut_metric_vectors(n):
    rng = random.Random(n)
    # every mask, trivial ones included, with signed non-integer weights
    terms = [
        (mask, F(rng.randint(-9, 9), rng.randint(1, 6))) for mask in range(1 << n)
    ]
    expected = [F(0)] * num_pairs(n)
    for mask, w in terms:
        for p, x in enumerate(cut_metric_vector(Cut(n, mask))):
            expected[p] += w * x
    assert combine_cuts(n, terms) == tuple(expected)
    assert combine_cuts(n, []) == (F(0),) * num_pairs(n)
    assert combine_cuts(n, [(1, 2), (1, -2)]) == (F(0),) * num_pairs(n)


def split_pairs_sum(n, terms) -> tuple[Fraction, ...]:
    """Reference: w added pair by pair over split_pairs(n, mask)."""
    total = [F(0)] * num_pairs(n)
    for mask, w in terms:
        for p in split_pairs(n, mask):
            total[p] += w
    return tuple(total)


@pytest.mark.parametrize("n", range(3, 11))
def test_cut_traces_match_split_pairs(n):
    rng = random.Random(n)
    values = [rng.randint(-50, 50) for _ in range(num_pairs(n))]
    traces = cut_traces(n, values)
    full = (1 << n) - 1
    assert len(traces) == 1 << (n - 1)
    for mask in range(full + 1):
        expected = sum(values[p] for p in split_pairs(n, mask))
        assert traces[min(mask, full ^ mask)] == expected


def test_cut_traces_rejects_wrong_length():
    with pytest.raises(ValueError):
        cut_traces(4, [1] * 5)


@pytest.mark.parametrize("n", range(3, 10))
def test_combine_cuts_table_path_matches_split_pairs(n, monkeypatch):
    rng = random.Random(100 + n)
    # every mask, trivial ones included, signed non-integer weights and
    # a few zeros (which neither count toward the size rule nor add)
    terms = [
        (mask, F(rng.randint(-9, 9), rng.randint(1, 6)) if mask % 5 else F(0))
        for mask in range(1 << n)
    ]
    expected = split_pairs_sum(n, terms)
    rng.shuffle(terms)
    monkeypatch.setattr(cut_algebra, "split_pairs", None)  # the table path only
    assert combine_cuts(n, terms) == expected
    every_mask_once = [(mask, 1) for mask in range(1 << n)]
    assert combine_cuts(n, every_mask_once) == (F(2 ** (n - 1)),) * num_pairs(n)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_combine_cuts_size_rule_boundary(n, monkeypatch):
    """2^(n-1) - 1 nonzero terms take the table, one fewer the loop;
    both give the split_pairs sum."""
    rng = random.Random(n)
    masks = rng.sample(range(1 << n), (1 << (n - 1)) - 1)
    terms = [(mask, F(rng.randint(1, 9), rng.randint(1, 4))) for mask in masks]
    terms.append((masks[0], F(0)))
    expected = split_pairs_sum(n, terms)
    fewer = terms[1:]
    fewer_expected = split_pairs_sum(n, fewer)
    calls = []

    def counting(n, mask):
        calls.append(mask)
        return split_pairs(n, mask)

    monkeypatch.setattr(cut_algebra, "split_pairs", counting)
    assert combine_cuts(n, terms) == expected
    assert calls == []
    assert combine_cuts(n, fewer) == fewer_expected
    assert len(calls) == len(fewer) - 1


def test_combine_cuts_few_masks_at_n18():
    n = 18
    rng = random.Random(18)
    terms = [
        (rng.randrange(1 << n), F(rng.randint(-9, 9), rng.randint(1, 6))) for _ in range(6)
    ]
    terms += [(0, F(3)), ((1 << n) - 1, F(-2)), (5, F(0))]
    assert combine_cuts(n, terms) == split_pairs_sum(n, terms)


@pytest.mark.parametrize("n", [4, 6])
def test_combine_cuts_rejects_out_of_range_masks_on_both_paths(n):
    for bad in (-1, 1 << n, 1 << (n + 1)):
        with pytest.raises(ValueError):
            combine_cuts(n, [(mask, 1) for mask in range(1, 1 << n)] + [(bad, 1)])
        with pytest.raises(ValueError):
            combine_cuts(n, [(1, 1), (bad, 1)])


# ---------------------------------------------------------------------------
# rational matrices


def test_matrix_basic_operations():
    a = RationalMatrix.from_rows([[F(1), F(2)], [F(3), F(4)]])
    assert (a.rows, a.cols) == (2, 2)
    assert a.entry(1, 0) == 3
    assert a.transpose().row(0) == (F(1), F(3))
    assert a.column(1) == (F(2), F(4))


def test_matrix_shape_errors():
    with pytest.raises(ValueError, match="expected 3 rows"):
        RationalMatrix(3, 2, ((F(1), F(2)),))
    with pytest.raises(ValueError, match="expected 2 columns"):
        RationalMatrix.from_rows([[F(1), F(2)], [F(3)]])
    with pytest.raises(ValueError, match="at least one row"):
        RationalMatrix.from_rows([])


def test_integer_arrays_share_one_denominator():
    a = RationalMatrix.from_rows([[F(1, 2), F(1)], [F(3), F(-1, 3)]])
    q, scaled, ones = integer_arrays(a, RationalMatrix.from_rows([[F(1)]]))
    assert q == 6 and scaled.dtype == object and ones.tolist() == [[6]]
    assert scaled.tolist() == [[3, 6], [18, -2]]
    assert times(a, [F(1), F(2, 5)]) == (F(9, 10), F(43, 15))


def test_matrix_rank_examples():
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert matrix_rank([[F(0), F(0)]]) == 0
    # non-integer rationals: the second row is 3/4 times the first
    assert matrix_rank([[F(1, 3), F(-2, 5)], [F(1, 4), F(-3, 10)]]) == 1
    assert matrix_rank([[F(1, 3), F(-2, 5)], [F(1, 4), F(3, 10)]]) == 2
    # a zero leading entry forces a row swap
    assert matrix_rank([[F(0), F(1), F(2)], [F(3), F(4), F(5)], [F(6), F(7), F(8)]]) == 2
    assert matrix_rank([[F(0), F(1)], [F(1, 2), F(0)]]) == 2
    # rows with a zero in the pivot column are still carried along
    rows = [[0, 0, -1, -1], [0, 2, -1, 0], [1, 2, 0, 1], [1, 1, 0, 0], [0, 2, -2, -1]]
    assert matrix_rank([[F(x) for x in row] for row in rows]) == 4
    # rank-deficient 3 x 4: the third row is the sum of the first two
    assert matrix_rank(
        [
            [F(1), F(2, 3), F(0), F(-1)],
            [F(0), F(0), F(5, 7), F(2)],
            [F(1), F(2, 3), F(5, 7), F(1)],
        ]
    ) == 2


# ---------------------------------------------------------------------------
# square cut-matrix


def test_square_cut_matrix_four_points():
    expected = [
        "011110",
        "101101",
        "110011",
        "110011",
        "101101",
        "011110",
    ]
    got = square_cut_matrix(4)
    assert got.rows == got.cols == 6
    for r, pattern in enumerate(expected):
        assert got.row(r) == tuple(F(int(ch)) for ch in pattern)


def test_square_cut_matrix_columns_are_pair_cuts():
    for n in range(3, 9):
        s = square_cut_matrix(n)
        for col, (i, j) in enumerate(vertex_pairs(n)):
            assert s.column(col) == cut_metric_vector(pair_cut(n, i, j))


def test_square_cut_matrix_row_sums():
    for n in (5, 6, 7):
        s = square_cut_matrix(n)
        for r in range(s.rows):
            assert sum(s.row(r)) == 2 * (n - 2)


def test_square_cut_matrix_zero_diagonal():
    s = square_cut_matrix(5)
    for k in range(10):
        assert s.entry(k, k) == 0


def test_square_cut_matrix_rejects_small_n():
    with pytest.raises(ValueError):
        square_cut_matrix(2)


# ---------------------------------------------------------------------------
# incidence matrix


def test_incidence_matrix_three_points():
    b = incidence_matrix(3)
    assert b.row(0) == (F(1), F(1), F(0))
    assert b.row(1) == (F(1), F(0), F(1))
    assert b.row(2) == (F(0), F(1), F(1))


def test_incidence_identities():
    for n in range(4, 8):
        _, b, a = integer_arrays(incidence_matrix(n), square_cut_matrix(n))
        eye_m = np.identity(num_pairs(n), dtype=object)
        assert (b.T @ b == 2 * eye_m + a).all()
        ones = np.ones((n, n), dtype=object)
        assert (b @ b.T == (n - 2) * np.identity(n, dtype=object) + ones).all()


def test_incidence_outer_product_five_points():
    _, b = integer_arrays(incidence_matrix(5))
    outer = b @ b.T
    for i in range(5):
        for j in range(5):
            assert outer[i, j] == (4 if i == j else 1)


# ---------------------------------------------------------------------------
# projectors and the inverse


def test_projector_ranks_five_points():
    p_low, p_mid, p_top = projectors(5)
    assert matrix_rank(p_top.entries) == 1
    assert matrix_rank(p_mid.entries) == 4
    assert matrix_rank(p_low.entries) == 5


def test_projector_algebra():
    for n in range(5, 11):
        # each array is q times its matrix, so P^2 = P reads p @ p == q * p
        q, p_low, p_mid, p_top, a = integer_arrays(*projectors(n), square_cut_matrix(n))
        for p in (p_low, p_mid, p_top):
            assert (p @ p == q * p).all()
            assert (p.T == p).all()
        assert (p_low @ p_mid == 0).all()
        assert (p_low @ p_top == 0).all()
        assert (p_mid @ p_top == 0).all()
        assert (p_low + p_mid + p_top == q * np.identity(num_pairs(n), dtype=object)).all()
        assert (-2 * p_low + (n - 4) * p_mid + (2 * n - 4) * p_top == a).all()


def test_projectors_reject_degenerate_size():
    with pytest.raises(ValueError):
        projectors(4)


def test_inverse_square_cut_matrix():
    for n in range(5, 11):
        q, a, inv = integer_arrays(square_cut_matrix(n), inverse_square_cut_matrix(n))
        assert (a @ inv == q * q * np.identity(num_pairs(n), dtype=object)).all()


def test_inverse_on_all_ones_vector():
    inv = inverse_square_cut_matrix(6)
    assert times(inv, [F(1)] * 15) == (F(1, 8),) * 15


def test_inverse_rejects_four_points():
    with pytest.raises(ValueError):
        inverse_square_cut_matrix(4)


# ---------------------------------------------------------------------------
# full cut-matrix


def test_full_cut_matrix_gram_four_points():
    _, s = integer_arrays(full_cut_matrix(4))
    assert s.shape == (6, 14)
    gram = s @ s.T
    for i in range(6):
        for j in range(6):
            assert gram[i, j] == (8 if i == j else 4)


def test_full_cut_matrix_gram_identity():
    for n in (5, 6):
        _, s = integer_arrays(full_cut_matrix(n))
        m = num_pairs(n)
        expected = 2 ** (n - 2) * (np.identity(m, dtype=object) + np.ones((m, m), dtype=object))
        assert (s @ s.T == expected).all()


def test_full_cut_matrix_complement_columns():
    # complements sit at mirrored positions and share a column
    s = full_cut_matrix(4)
    for k in range(1, 15):
        assert s.column(k - 1) == s.column(14 - k)


def test_full_cut_matrix_contains_square_block():
    s = full_cut_matrix(5)
    sq = square_cut_matrix(5)
    # after the 5 singleton columns come the ten pair-cut columns
    for col in range(10):
        assert s.column(5 + col) == sq.column(col)


def test_full_cut_matrix_size_guard():
    with pytest.raises(ValueError):
        full_cut_matrix(6, max_n=5)
