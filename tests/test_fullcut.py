"""Sufficient condition, cut certificates, and the kernel basis."""

import json
import random
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from cutcones.cut_algebra import Cut, combine_cuts, cut_metric_vector, enumerate_cuts
from cutcones import fullcut
from cutcones.fullcut import (
    CertificateReport,
    CutCertificate,
    _cut_rank,
    candidate_solution,
    certificate_from_weights,
    certificate_metric,
    kernel_basis,
    phi_vector,
    psi_vector,
    sufficient_condition,
    verify_cut_certificate,
)
from cutcones.io import certificate_to_json, loads_certificate, rational_to_json
from cutcones.metric import Metric, num_pairs, split_pairs, summarize, vertex_pairs
from cutcones.sig import cocktail_party_graph, path_graph, truncated_metric, hypercube_graph

from conftest import metric_of_ints, raise_one_cut_trace
from exact_rank import apply_full_cut_matrix, matrix_rank
from instances import random_cut_combination, random_semimetric

F = Fraction


def half_weight_path_certificate() -> tuple[CutCertificate, Metric]:
    """The interval decomposition of the truncated 5-path metric."""
    cuts = [
        Cut.from_members(5, members)
        for members in ([1], [1, 2], [2, 3], [3, 4], [4, 5], [5])
    ]
    cert = CutCertificate(5, tuple(cuts), (F(1, 2),) * 6)
    return cert, truncated_metric(path_graph(5))


def transversal_certificate() -> tuple[CutCertificate, Metric]:
    """One vertex from each matched pair, all 8 choices, weight 1/4."""
    cuts = []
    for choice in range(8):
        members = [i + 1 if choice >> i & 1 else i + 4 for i in range(3)]
        cuts.append(Cut.from_members(6, members))
    cert = CutCertificate(6, tuple(cuts), (F(1, 4),) * 8)
    return cert, truncated_metric(cocktail_party_graph(3))


# ---------------------------------------------------------------------------
# certificates


def test_certificate_shape_validation():
    with pytest.raises(ValueError):
        CutCertificate(4, (Cut.from_members(4, [1]),), (F(1), F(2)))
    with pytest.raises(ValueError):
        CutCertificate(4, (Cut.from_members(5, [1]),), (F(1),))


def test_certificate_metric_half_singletons():
    cuts = tuple(Cut.from_members(5, [i]) for i in range(1, 6))
    cert = CutCertificate(5, cuts, (F(1, 2),) * 5)
    assert certificate_metric(cert).d == (F(1),) * 10


def test_certificate_from_weights_drops_zeros():
    weights = [F(0)] * 30
    weights[3] = F(2)
    weights[17] = F(1, 3)
    cert = certificate_from_weights(5, weights)
    assert len(cert.cuts) == 2
    assert cert.weights == (F(2), F(1, 3))
    with pytest.raises(ValueError):
        certificate_from_weights(5, weights[:-1])


@pytest.mark.parametrize("n, count", [(3, 0), (5, 29), (5, 31), (60, 3)])
def test_certificate_from_weights_checks_the_count_first(n, count, monkeypatch):
    """A weight count that does not match n is rejected before any cut
    is enumerated (at n=60 enumerating would never finish)."""

    def forbidden(*_):
        raise AssertionError("cut_masks called")

    monkeypatch.setattr(fullcut, "cut_masks", forbidden)
    with pytest.raises(ValueError, match=f"got {count}"):
        certificate_from_weights(n, [F(1)] * count)


def test_verify_path_certificate():
    cert, d = half_weight_path_certificate()
    report = verify_cut_certificate(cert, d)
    assert report.valid
    assert report.negative_weights == ()
    assert report.mismatch is None


def test_verify_transversal_certificate():
    cert, d = transversal_certificate()
    assert verify_cut_certificate(cert, d).valid


def test_verify_rejects_negative_weight():
    cert, d = half_weight_path_certificate()
    weights = list(cert.weights)
    weights[2] = -weights[2]
    bad = CutCertificate(cert.n, cert.cuts, tuple(weights))
    report = verify_cut_certificate(bad, d)
    assert not report.valid
    assert report.negative_weights[0][1] == F(-1, 2)


def test_verify_reports_first_lexicographic_mismatch():
    cert, d = half_weight_path_certificate()
    bumped = Metric(5, (d.d[0] + 1,) + d.d[1:])
    report = verify_cut_certificate(cert, bumped)
    assert not report.valid
    assert report.mismatch == ((1, 2), F(1), F(2))


def test_verify_requires_matching_size():
    cert, _ = half_weight_path_certificate()
    with pytest.raises(ValueError):
        verify_cut_certificate(cert, metric_of_ints(4, [1] * 6))


# ---------------------------------------------------------------------------
# the stored integer form against Cut and Fraction objects


def _weight_token(rng, w):
    """w as one of the weight forms a certificate document may hold."""
    form = rng.randrange(5)
    if form == 0 and w.denominator == 1:
        return w.numerator  # a JSON integer
    if form == 1:
        k = rng.randint(2, 3)  # unreduced, as "2/4" or "-6/8"
        return f"{w.numerator * k}/{w.denominator * k}"
    if 100 % w.denominator == 0:
        if form == 2:
            return str(Decimal(w.numerator) / Decimal(w.denominator))  # "0.25"
        if form == 3:
            return w  # a bare JSON decimal: written as a float, read back exactly
    return str(w)  # "p" or "p/q"


def _cut_item(rng, c):
    if rng.random() < 0.3:
        return {"mask": c.members}
    members = list(c.member_list)
    members += rng.sample(members, min(len(members), rng.randint(0, 2)))  # listed twice
    rng.shuffle(members)
    return {"members": members}


def _document(rng, n, cuts, weights):
    items = [dict(_cut_item(rng, c), weight=_weight_token(rng, w)) for c, w in zip(cuts, weights)]
    return json.dumps({"n": n, "cuts": items}, default=float)


def _reference_report(n, cuts, weights, d):
    """The report verify_cut_certificate must give, from Cut and
    Fraction objects: combine_cuts (itself checked against the sum by
    definition), then a Fraction comparison pair by pair."""
    built = combine_cuts(n, ((c.members, w) for c, w in zip(cuts, weights)))
    assert built == tuple(
        sum((w for c, w in zip(cuts, weights) if c.separates(i, j)), F(0))
        for i, j in vertex_pairs(n)
    )
    negatives = tuple((c, w) for c, w in zip(cuts, weights) if w < 0)
    mismatch = next(
        ((pair, got, want) for pair, got, want in zip(vertex_pairs(n), built, d.d) if got != want),
        None,
    )
    return CertificateReport(not negatives and mismatch is None, negatives, mismatch)


def _assert_same_certificate(cert, other, cuts, weights):
    assert cert == other and hash(cert) == hash(other)
    assert cert.cuts == other.cuts == tuple(cuts)
    assert cert.weights == other.weights == tuple(map(F, weights))


@pytest.mark.parametrize("n", range(3, 10))
def test_integer_certificates_equal_the_object_form(n):
    rng = random.Random(f"integer-form/{n}")
    full = (1 << n) - 1
    for _ in range(4):
        # any masks (trivial ones and repeats too), zero and negative weights
        count = rng.choice([0, 1, rng.randrange(1 << n), 1 << n])
        cuts = [Cut(n, rng.randint(0, full)) for _ in range(count)]
        weights = [F(rng.randint(-4, 12), rng.choice([1, 2, 3, 4, 6, 10])) for _ in cuts]
        cert = loads_certificate(_document(rng, n, cuts, weights))
        _assert_same_certificate(cert, CutCertificate(n, cuts, weights), cuts, weights)
        doc = certificate_to_json(cert)
        assert [item["weight"] for item in doc["cuts"]] == list(map(rational_to_json, weights))
        built = Metric(n, combine_cuts(n, ((c.members, w) for c, w in zip(cuts, weights))))
        assert certificate_metric(cert) == built
        p = rng.randrange(num_pairs(n))
        bumped = Metric(n, built.d[:p] + (built.d[p] + F(1, 3),) + built.d[p + 1:])
        for d in (built, bumped, built.scaled(F(3, 2))):
            assert verify_cut_certificate(cert, d) == _reference_report(n, cuts, weights, d)

        # a full weight vector in enumerate_cuts order, zeros dropped
        vector = [F(rng.randint(-1, 6), rng.choice([1, 4, 6])) * rng.randint(0, 1) for _ in range(full - 1)]
        kept = [(c, w) for c, w in zip(enumerate_cuts(n), vector) if w]
        cuts, weights = [c for c, _ in kept], [w for _, w in kept]
        cert = certificate_from_weights(n, vector)
        _assert_same_certificate(cert, CutCertificate(n, cuts, weights), cuts, weights)
        _assert_same_certificate(cert, loads_certificate(_document(rng, n, cuts, weights)), cuts, weights)


@pytest.mark.parametrize("n", range(3, 10))
def test_sufficient_certificate_is_the_reduced_candidate(n):
    rng = random.Random(f"sufficient-form/{n}")
    d = Metric(n, tuple(F(rng.randint(60, 63), 3) for _ in range(num_pairs(n))))
    verdict = sufficient_condition(d)
    assert verdict.status == "member"
    assert verdict.certificate == certificate_from_weights(n, candidate_solution(d))


def test_certificate_common_denominator_is_capped():
    """Weights 1/p over distinct primes p: the lcm of the denominators
    passes MAX_TOKEN_DIGITS digits within a few hundred of them and is
    rejected there, whichever way the certificate is built."""
    primes = [p for p in range(100003, 130000) if all(p % k for k in range(2, int(p**0.5) + 1))]
    cuts = [Cut(12, 1)] * len(primes)
    weights = [F(1, p) for p in primes]
    with pytest.raises(ValueError, match="common denominator of more than 4300 digits"):
        CutCertificate(12, cuts, weights)
    with pytest.raises(ValueError, match="common denominator"):
        loads_certificate(json.dumps({"n": 12, "cuts": [{"mask": 1, "weight": f"1/{p}"} for p in primes]}))
    with pytest.raises(ValueError, match="common denominator"):
        certificate_from_weights(12, weights + [F(0)] * (4094 - len(weights)))
    # well within the cap, and reduced from unreduced tokens
    assert loads_certificate('{"n": 3, "cuts": [{"mask": 1, "weight": "2/4"}]}')._denominator == 2


# ---------------------------------------------------------------------------
# the candidate solution


def test_candidate_complete_graph_singletons():
    d = metric_of_ints(5, [1] * 10)
    w = candidate_solution(d)
    for k in range(5):
        assert w[k] == F(1, 22)


def test_candidate_zero_metric_is_zero():
    d = Metric(5, (F(0),) * 10)
    assert candidate_solution(d) == (F(0),) * 30


def test_candidate_solves_the_system():
    rng = random.Random(4)
    for n in (5, 6):
        for _ in range(5):
            d = random_semimetric(n, rng)
            w = candidate_solution(d)
            image = apply_full_cut_matrix(n, enumerate(w))
            assert image == d.d


@pytest.mark.parametrize("solve", [candidate_solution, sufficient_condition])
def test_candidate_and_sufficient_respect_max_n(solve):
    with pytest.raises(ValueError, match="n=17 exceeds the configured maximum 16"):
        solve(metric_of_ints(17, [1] * num_pairs(17)))
    with pytest.raises(ValueError, match="n=6 exceeds the configured maximum 5"):
        solve(metric_of_ints(6, [1] * 15), max_n=5)
    solve(metric_of_ints(5, [1] * 10), max_n=5)


def test_candidate_is_linear():
    rng = random.Random(44)
    a = random_semimetric(5, rng)
    b = random_semimetric(5, rng)
    combo = Metric(5, tuple(F(2) * x + F(1, 3) * y for x, y in zip(a.d, b.d)))
    wa = candidate_solution(a)
    wb = candidate_solution(b)
    assert candidate_solution(combo) == tuple(
        F(2) * x + F(1, 3) * y for x, y in zip(wa, wb)
    )


# ---------------------------------------------------------------------------
# the sufficient condition


def test_sufficient_complete_graphs_member():
    for n in range(5, 9):
        d = metric_of_ints(n, [1] * num_pairs(n))
        verdict = sufficient_condition(d)
        assert verdict.status == "member"
        m = num_pairs(n)
        # with s_C = |C|(n-|C|) and Tr = m the slack 2^(n-2) w_C is
        # |C|(n-|C|)/(m+1)
        for cut, w in zip(enumerate_cuts(n), candidate_solution(d)):
            k = cut.size
            assert 2 ** (n - 2) * w == F(k * (n - k), m + 1)
        report = verify_cut_certificate(verdict.certificate, d)
        assert report.valid


def test_sufficient_hypercube_inconclusive():
    d = truncated_metric(hypercube_graph(3))
    verdict = sufficient_condition(d)
    assert verdict.status == "inconclusive"
    assert verdict.certificate is None
    assert verdict.failing


def test_sufficient_is_homogeneous():
    d = metric_of_ints(5, [1] * 10)
    scaled = sufficient_condition(d.scaled(F(7, 3)))
    plain = sufficient_condition(d)
    assert scaled.status == "member"
    assert scaled.certificate.weights == tuple(
        F(7, 3) * w for w in plain.certificate.weights
    )


def test_sufficient_certificates_verify_on_random_passes():
    rng = random.Random(84)
    seen = 0
    while seen < 5:
        d = random_cut_combination(5, rng)
        verdict = sufficient_condition(d)
        if verdict.status != "member":
            continue
        seen += 1
        assert verify_cut_certificate(verdict.certificate, d).valid


def test_sufficient_iterates_complement_representatives():
    """failing holds one cut per failing complement class, the one that
    contains vertex 1, in enumeration order."""
    d = truncated_metric(hypercube_graph(3))
    verdict = sufficient_condition(d)
    assert verdict.status == "inconclusive"
    negative = [c for c, w in zip(enumerate_cuts(8), candidate_solution(d)) if w < 0]
    assert verdict.failing == tuple(c for c in negative if c.contains(1))
    assert len(negative) == 2 * len(verdict.failing)


@pytest.mark.parametrize("n", [5, 13])
def test_sufficient_rechecks_its_certificate(n, monkeypatch):
    d = metric_of_ints(n, [1] * num_pairs(n))
    assert sufficient_condition(d).status == "member"
    raise_one_cut_trace(monkeypatch)
    assert min(candidate_solution(d)) > 0
    with pytest.raises(RuntimeError, match="fails its re-check"):
        sufficient_condition(d)


def test_sufficient_rejects_tiny_input():
    with pytest.raises(ValueError):
        sufficient_condition(Metric(2, (F(1),)))


# ---------------------------------------------------------------------------
# kernel generators


def test_phi_vector_four_points():
    length = 2 ** 4 - 2
    phi1 = phi_vector(4, 1).dense(length)
    assert phi1 == (F(1),) + (F(0),) * 12 + (F(-1),)


def test_phi_vector_bounds():
    with pytest.raises(ValueError):
        phi_vector(4, 0)
    with pytest.raises(ValueError):
        phi_vector(4, 4)


def test_phi_vector_rejects_fewer_than_three_vertices():
    with pytest.raises(ValueError, match="need at least 3 vertices, got n=2"):
        phi_vector(2, 1)


def test_phi_vector_has_two_entries_at_any_n():
    assert phi_vector(5, 1).entries == ((0, F(1)), (29, F(-1)))
    assert phi_vector(20, 1).entries == ((0, F(1)), (2**20 - 3, F(-1)))


def test_psi_vectors_match_printed_four_point_table():
    printed = {
        (1, 2, 3): (-1, -1, -1, 0, 1, 1, 0, 1, 0, 0, -1, 0, 0, 0),
        (1, 2, 4): (-1, -1, 0, -1, 1, 0, 1, 0, 1, 0, 0, -1, 0, 0),
        (1, 3, 4): (-1, 0, -1, -1, 0, 1, 1, 0, 0, 1, 0, 0, -1, 0),
        (2, 3, 4): (0, -1, -1, -1, 0, 0, 0, 1, 1, 1, 0, 0, 0, -1),
        (1, 2, 3, 4): (-1, -1, -1, -1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1),
    }
    for subset, values in printed.items():
        got = psi_vector(4, subset).dense(14)
        assert got == tuple(F(v) for v in values)


def test_psi_vector_input_validation():
    with pytest.raises(ValueError):
        psi_vector(4, [])
    with pytest.raises(ValueError):
        psi_vector(4, [5])


def test_psi_vector_respects_size_guard():
    with pytest.raises(ValueError):
        psi_vector(2, [1, 2])
    with pytest.raises(ValueError):
        psi_vector(6, [1, 2, 3], max_n=5)


@pytest.mark.parametrize("n", range(3, 13))
def test_cut_rank_is_the_enumeration_position(n):
    for k, cut in enumerate(enumerate_cuts(n)):
        assert _cut_rank(n, cut.member_list) == k


def test_kernel_vector_entries_are_index_sorted():
    for v in kernel_basis(7).vectors + (psi_vector(7, range(1, 8)),):
        indices = [idx for idx, _ in v.entries]
        assert indices == sorted(set(indices))


@pytest.mark.parametrize("n", range(3, 10))
def test_sufficient_slacks_come_from_the_trace_table(n, monkeypatch):
    """The failing cuts and the candidate weights follow the per-cut
    split_pairs slacks, while split_pairs itself is never called."""
    rng = random.Random(n)
    m = num_pairs(n)
    metrics = [
        metric_of_ints(n, [rng.randint(0, 9) for _ in range(m)]),
        Metric(n, tuple(F(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(m))),
    ]
    expected = []
    for d in metrics:
        trace = sum(d.d)
        slack = {
            cut.members: sum((d.d[p] for p in split_pairs(n, cut.members)), F(0))
            - trace * cut.size * (n - cut.size) / (m + 1)
            for cut in enumerate_cuts(n)
        }
        expected.append(slack)

    def forbidden(*_):
        raise AssertionError("split_pairs called")

    for name, module in list(sys.modules.items()):
        if name.startswith("cutcones") and hasattr(module, "split_pairs"):
            monkeypatch.setattr(module, "split_pairs", forbidden)
    for d, slack in zip(metrics, expected):
        verdict = sufficient_condition(d)
        failing = tuple(
            c for c in enumerate_cuts(n) if c.members & 1 and slack[c.members] < 0
        )
        assert verdict.failing == failing
        assert verdict.status == ("inconclusive" if failing else "member")
        scale = F(1, 2 ** (n - 2))
        assert candidate_solution(d) == tuple(
            scale * slack[c.members] for c in enumerate_cuts(n)
        )


def test_kernel_basis_dimension_formula():
    for n in range(3, 8):
        basis = kernel_basis(n)
        assert basis.dimension == 2 ** n - 2 - num_pairs(n)
        assert basis.normative == (n >= 5)


def test_kernel_vectors_are_annihilated():
    for n in range(4, 8):
        for vec in kernel_basis(n).vectors:
            image = apply_full_cut_matrix(n, vec.entries)
            assert image == (F(0),) * num_pairs(n)


def test_kernel_basis_has_full_rank():
    for n in (5, 6):
        basis = kernel_basis(n)
        length = 2 ** n - 2
        rows = [v.dense(length) for v in basis.vectors]
        assert matrix_rank(rows) == basis.dimension


def test_kernel_basis_ordering():
    basis = kernel_basis(5)
    labels = [v.label for v in basis.vectors]
    assert labels[:4] == ["phi_1", "phi_2", "phi_3", "phi_4"]
    assert labels[4] == "psi_{1,2,3}"
    assert labels[-1] == "psi_{1,2,3,4,5}"


def test_full_subset_vector_is_signed_sum_of_smaller_ones():
    # psi over the whole vertex set decomposes over the proper subsets
    for n in (5, 6):
        length = 2 ** n - 2
        total = [F(0)] * length
        sign_n = F(-1) if (n - 1) % 2 else F(1)
        for size in range(1, n):
            sign = F(-1) if size % 2 else F(1)
            for subset in combinations(range(1, n + 1), size):
                for idx, coeff in psi_vector(n, subset).entries:
                    total[idx] += sign_n * sign * coeff
        assert tuple(total) == psi_vector(n, range(1, n + 1)).dense(length)


def test_singleton_psi_image_is_negated_cut_metric():
    # psi of a singleton is not a kernel element: its image is the
    # negated singleton cut metric
    n = 5
    for i in range(1, n + 1):
        image = apply_full_cut_matrix(n, psi_vector(n, [i]).entries)
        cut = Cut.from_members(n, [i])
        assert image == tuple(-x for x in cut_metric_vector(cut))


def test_pair_psi_image_by_inclusion_exclusion():
    # psi_{i,j} = -e_{i} - e_{j} + e_{i,j} maps to the matching
    # signed sum of cut metrics
    n = 5
    image = apply_full_cut_matrix(n, psi_vector(n, [2, 4]).entries)
    expected = tuple(
        -a - b + c
        for a, b, c in zip(
            cut_metric_vector(Cut.from_members(n, [2])),
            cut_metric_vector(Cut.from_members(n, [4])),
            cut_metric_vector(Cut.from_members(n, [2, 4])),
        )
    )
    assert image == expected


def test_kernel_respects_size_guard():
    with pytest.raises(ValueError):
        kernel_basis(2)
    with pytest.raises(ValueError):
        kernel_basis(8, max_n=7)
    # 4^n dense entries: the default cap is 12, below the shared 16
    with pytest.raises(ValueError, match="maximum 12"):
        kernel_basis(13)
