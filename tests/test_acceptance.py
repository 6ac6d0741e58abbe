"""Acceptance suite: twelve end-to-end checks across the whole package.

Each test prints exactly one "acceptance NN: PASS/FAIL (detail)" line
(visible under pytest -s) before asserting, so a full run yields a
twelve-line scoreboard.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cutcones.cut_algebra import (
    Cut,
    full_cut_matrix,
    incidence_matrix,
    inverse_square_cut_matrix,
    projectors,
    square_cut_matrix,
)
from cutcones.embeddings import (
    induced_metric,
    l1_embedding,
    linf_sig_embedding,
    verify_isometry,
)
from cutcones.fullcut import (
    CutCertificate,
    certificate_from_weights,
    kernel_basis,
    psi_vector,
    sufficient_condition,
    verify_cut_certificate,
)
from cutcones.io import matrix_to_text
from cutcones.metric import Metric, num_pairs, summarize
from cutcones.oracle import cutcone_membership, paircut_membership_exact
from cutcones.paircut import paircut_membership
from cutcones.sig import (
    SimpleGraph,
    family,
    graph_metric,
    hypercube_graph,
    path_graph,
    sig_graph,
    star_graph_obstruction,
    truncated_metric,
)

from conftest import FIGURE_EIGHT_EDGES
from exact_rank import apply_full_cut_matrix, integer_arrays, matrix_rank
from instances import (
    random_cut_combination,
    random_l1_points_metric,
    random_paircut_combination,
    random_rational,
    random_semimetric,
)

F = Fraction


def report(num, ok, detail):
    text = detail if isinstance(detail, str) else "; ".join(detail)
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} ({text})")
    assert ok, f"acceptance {num:02d}: {text}"


def farkas_refutes(matrix, rhs, farkas):
    """Farkas vector y: y.col <= 0 on every cone generator, y.rhs > 0."""
    cols_ok = all(
        sum(y * matrix.entry(r, c) for r, y in enumerate(farkas)) <= 0
        for c in range(matrix.cols)
    )
    return cols_ok and sum(y * b for y, b in zip(farkas, rhs)) > 0


def rank_mod_p(rows, p=2147483647):
    """Row rank over GF(p); full rank mod p certifies full rank over Q."""
    m = np.array(rows, dtype=np.int64) % p
    rank = 0
    for col in range(m.shape[1]):
        if rank == m.shape[0]:
            break
        nonzero = np.nonzero(m[rank:, col])[0]
        if nonzero.size == 0:
            continue
        pivot = rank + nonzero[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), p - 2, p)) % p
        below = m[rank + 1 :, col].copy()
        if below.any():
            m[rank + 1 :] = (m[rank + 1 :] - np.outer(below, m[rank])) % p
        rank += 1
    return rank


def test_acceptance_01_square_matrix_n4():
    expected = (
        "0 1 1 1 1 0\n"
        "1 0 1 1 0 1\n"
        "1 1 0 0 1 1\n"
        "1 1 0 0 1 1\n"
        "1 0 1 1 0 1\n"
        "0 1 1 1 1 0\n"
    )
    got = matrix_to_text(square_cut_matrix(4))
    report(1, got == expected, "n=4 square cut-matrix, entry-exact")


def test_acceptance_02_spectral_suite():
    failures = []
    for n in range(5, 9):
        m = num_pairs(n)
        a = square_cut_matrix(n)
        spectrum = np.linalg.eigvalsh(np.array(a.entries, dtype=float))
        expected = np.array(
            [-2.0] * (n * (n - 3) // 2) + [float(n - 4)] * (n - 1) + [float(2 * n - 4)]
        )
        if np.max(np.abs(spectrum - expected)) > 1e-9:
            failures.append(f"n={n} spectrum")
            continue
        # each array is q times its matrix: P^2 = P reads p @ p == q * p
        q, p_low, p_mid, p_top, qa, inv = integer_arrays(
            *projectors(n), a, inverse_square_cut_matrix(n)
        )
        ident = np.identity(m, dtype=object)
        if any((p @ p != q * p).any() for p in (p_low, p_mid, p_top)):
            failures.append(f"n={n} idempotence")
        if (p_low + p_mid + p_top != q * ident).any():
            failures.append(f"n={n} resolution of identity")
        if (-2 * p_low + (n - 4) * p_mid + (2 * n - 4) * p_top != qa).any():
            failures.append(f"n={n} spectral decomposition")
        if (qa @ inv != q * q * ident).any():
            failures.append(f"n={n} inverse")
    report(2, not failures, failures or "eigenvalues and exact projector algebra, n=5..8")


def test_acceptance_03_matrix_identities():
    failures = []
    for n in range(4, 8):
        m = num_pairs(n)
        _, a, b, s = integer_arrays(
            square_cut_matrix(n), incidence_matrix(n), full_cut_matrix(n)
        )
        i_m = np.identity(m, dtype=object)
        j_m = np.ones((m, m), dtype=object)
        if (b.T @ b != 2 * i_m + a).any():
            failures.append(f"n={n} BtB")
        i_n = np.identity(n, dtype=object)
        if (b @ b.T != (n - 2) * i_n + np.ones((n, n), dtype=object)).any():
            failures.append(f"n={n} BBt")
        gram = s @ s.T
        if (gram != 2 ** (n - 2) * (i_m + j_m)).any():
            failures.append(f"n={n} SSt")
        # S^T ((m+1)I - J) / ((m+1) 2^(n-2)) is a right inverse of S
        if (gram @ ((m + 1) * i_m - j_m) != (m + 1) * 2 ** (n - 2) * i_m).any():
            failures.append(f"n={n} right inverse")
    report(3, not failures, failures or "incidence/gram/right-inverse identities, n=4..7")


def test_acceptance_04_seven_vertex_example(figure_eight_d0, figure_eight_d1):
    checks = []
    v0 = paircut_membership(figure_eight_d0)
    checks.append(not v0.member)
    checks.append([pair for pair, _ in v0.violations] == [(1, 3), (1, 6)])
    checks.append(summarize(figure_eight_d0).trace == 34)
    v1 = paircut_membership(figure_eight_d1)
    s1 = summarize(figure_eight_d1)
    checks.append(v1.member)
    checks.append(s1.trace == 40)
    checks.append(s1.star_trace(1) == 8)
    checks.append(s1.star_trace(3) == 14 and s1.star_trace(6) == 14)
    report(4, all(checks), "seven-vertex graph: d0 violations {1,3},{1,6}; d1 member")


def test_acceptance_05_family_table():
    k33 = SimpleGraph.from_edges(
        6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4), (2, 5), (3, 6)]
    )
    rows = []
    for n in range(5, 9):
        rows.append((f"K_{n} d0", truncated_metric(family("K", n)), True))
        rows.append((f"C_{n} d0", truncated_metric(family("C", n)), True))
    rows.append(("3-regular 6-vertex d0", truncated_metric(k33), False))
    rows.append(("Q_3 d0", truncated_metric(family("Q", 3)), False))
    rows.append(("Q_3 d1", graph_metric(family("Q", 3)), False))
    rows.append(("B_{2,3} d0", truncated_metric(family("B", 2, 3)), False))
    rows.append(("B_{2,3} d1", graph_metric(family("B", 2, 3)), False))
    for n in range(5, 9):
        rows.append((f"L_{n} d0", truncated_metric(family("L", n)), False))
    rows.append(("L_9 d1", graph_metric(family("L", 9)), False))
    rows.append(("CP_3 d0", truncated_metric(family("CP", 3)), False))
    # CP_3 has diameter 2, so d1 equals d0 and the verdict must match the row above
    rows.append(("CP_3 d1", graph_metric(family("CP", 3)), False))
    mismatches = [
        f"{label}: expected {'member' if want else 'non-member'}, "
        f"got {'member' if got else 'non-member'}"
        for label, d, want in rows
        for got in [paircut_membership(d).member]
        if got is not want
    ]
    report(5, not mismatches, mismatches or f"all {len(rows)} catalog rows agree")


def test_acceptance_06_kernel_suite():
    failures = []
    phi_1_expected = (F(1),) + (F(0),) * 12 + (F(-1),)
    psi_expected = {
        "psi_{1,2,3}": (-1, -1, -1, 0, 1, 1, 0, 1, 0, 0, -1, 0, 0, 0),
        "psi_{1,2,4}": (-1, -1, 0, -1, 1, 0, 1, 0, 1, 0, 0, -1, 0, 0),
        "psi_{1,3,4}": (-1, 0, -1, -1, 0, 1, 1, 0, 0, 1, 0, 0, -1, 0),
        "psi_{2,3,4}": (0, -1, -1, -1, 0, 0, 0, 1, 1, 1, 0, 0, 0, -1),
        "psi_{1,2,3,4}": (-1, -1, -1, -1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1),
    }
    for n in range(4, 9):
        length = (1 << n) - 2
        basis = kernel_basis(n)
        if basis.dimension != length - num_pairs(n):
            failures.append(f"n={n} dimension")
            continue
        zero = (F(0),) * num_pairs(n)
        if any(apply_full_cut_matrix(n, v.entries) != zero for v in basis.vectors):
            failures.append(f"n={n} annihilation")
        dense = [v.dense(length) for v in basis.vectors]
        if n <= 7:
            full = matrix_rank(dense) == basis.dimension
        else:
            full = rank_mod_p([[int(x) for x in row] for row in dense]) == basis.dimension
        if not full:
            failures.append(f"n={n} rank")
        if n == 4:
            if dense[0] != phi_1_expected:
                failures.append("n=4 phi_1")
            by_label = {v.label: v.dense(length) for v in basis.vectors}
            for label, want in psi_expected.items():
                if by_label.get(label) != tuple(F(x) for x in want):
                    failures.append(f"n=4 {label}")
    for n in (5, 6):
        length = (1 << n) - 2
        everyone = psi_vector(n, range(1, n + 1)).dense(length)
        total = [F(0)] * length
        for size in range(1, n):
            sign = F(-1) if size % 2 else F(1)
            from itertools import combinations

            for subset in combinations(range(1, n + 1), size):
                for idx, coeff in psi_vector(n, subset).entries:
                    total[idx] += sign * coeff
        scale = F(-1) if (n - 1) % 2 else F(1)
        if tuple(scale * x for x in total) != everyone:
            failures.append(f"n={n} signed-sum identity")
    report(6, not failures, failures or "dimension, annihilation, rank, printed n=4 vectors, signed sums")


def test_acceptance_07_oracle_equivalence():
    rng = random.Random(7)
    total = 0
    members = 0
    mismatch = None
    for n in range(5, 8):
        # 100 unconstrained semi-metrics, then 10 guaranteed members so
        # the witness-uniqueness branch is exercised at every size
        batch = [random_semimetric(n, rng) for _ in range(100)]
        batch += [random_paircut_combination(n, rng) for _ in range(10)]
        for d in batch:
            total += 1
            closed = paircut_membership(d)
            exact = paircut_membership_exact(d)
            if closed.member is not exact.feasible:
                mismatch = f"verdict split at n={n}"
                break
            if closed.member:
                members += 1
                if exact.witness != closed.weights:
                    mismatch = f"witness != weights at n={n}"
                    break
        if mismatch:
            break
    report(7, mismatch is None, mismatch or f"{total} instances agree, {members} members with matching witnesses")


def test_acceptance_08_sufficient_condition_soundness():
    rng = random.Random(8)
    checked = 0
    failure = None
    for n in (5, 6):
        passes = 0
        draws = 0
        while passes < 20:
            draws += 1
            if draws > 200:
                failure = f"n={n}: only {passes} passes in 200 draws"
                break
            d = random_cut_combination(n, rng)
            verdict = sufficient_condition(d)
            if verdict.status != "member":
                continue
            passes += 1
            checked += 1
            if not cutcone_membership(d).feasible:
                failure = f"n={n}: oracle rejects a sufficient-condition member"
                break
            if not verify_cut_certificate(verdict.certificate, d).valid:
                failure = f"n={n}: candidate certificate fails verification"
                break
        if failure:
            break
    report(8, failure is None, failure or f"{checked} passing metrics confirmed feasible with valid certificates")


def test_acceptance_09_known_certificates():
    catalog = []
    path_members = ((1,), (1, 2), (2, 3), (3, 4), (4, 5), (5,))
    catalog.append(
        (
            "half-weight path",
            CutCertificate(
                n=5,
                cuts=tuple(Cut.from_members(5, m) for m in path_members),
                weights=(F(1, 2),) * 6,
            ),
            truncated_metric(path_graph(5)),
        )
    )
    transversals = [
        tuple(i + 1 if choice >> i & 1 else i + 4 for i in range(3))
        for choice in range(8)
    ]
    catalog.append(
        (
            "transversal cocktail-party",
            CutCertificate(
                n=6,
                cuts=tuple(Cut.from_members(6, m) for m in transversals),
                weights=(F(1, 4),) * 8,
            ),
            truncated_metric(family("CP", 3)),
        )
    )
    catalog.append(
        (
            "half-singleton complete",
            CutCertificate(
                n=5,
                cuts=tuple(Cut.from_members(5, (i,)) for i in range(1, 6)),
                weights=(F(1, 2),) * 5,
            ),
            Metric(5, (F(1),) * 10),
        )
    )
    failures = []
    for label, cert, d in catalog:
        if not verify_cut_certificate(cert, d).valid:
            failures.append(f"{label}: certificate invalid")
            continue
        if not verify_isometry(l1_embedding(cert), d).ok:
            failures.append(f"{label}: embedding not isometric")
    report(9, not failures, failures or "3 certificates valid, l1 embeddings isometric")


def test_acceptance_10_linf_sig_round_trip():
    rng = random.Random(10)
    failures = 0
    for _ in range(200):
        n = rng.randint(4, 10)
        while True:
            edges = [
                (i, j)
                for i in range(1, n)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.45
            ]
            g = SimpleGraph.from_edges(n, edges)
            if g.is_connected():
                break
        points = linf_sig_embedding(g)
        if not verify_isometry(points, truncated_metric(g)).ok:
            failures += 1
            continue
        if sig_graph(induced_metric(points)).adjacency != g.adjacency:
            failures += 1
    report(10, failures == 0, f"200 random connected graphs, {failures} round-trip failures")


def test_acceptance_11_star_obstruction():
    rng = random.Random(11)
    checked = 0
    failures = []
    for leaves in range(4, 10):
        for _ in range(17):
            lengths = [
                random_rational(rng, low=1, high=12, denom=8) for _ in range(leaves)
            ]
            outcome = star_graph_obstruction(leaves, lengths)
            checked += 1
            if not (outcome.sig_ok and not outcome.verdict.member and outcome.confirmed):
                failures.append(f"{leaves} leaves: {lengths}")
    report(11, not failures, failures or f"{checked} radius vectors confirmed (SIG valid, membership fails)")


def test_acceptance_12_oracle_at_scale():
    failures = []
    timings = []

    d_path = graph_metric(path_graph(10))
    t0 = time.monotonic()
    feasible = cutcone_membership(d_path)
    t_path = time.monotonic() - t0
    timings.append(f"path n=10 {t_path:.1f}s")
    if not feasible.feasible:
        failures.append("path metric n=10 not recognized")
    elif not verify_cut_certificate(
        certificate_from_weights(10, feasible.witness), d_path
    ).valid:
        failures.append("path witness does not verify")
    if t_path >= 60:
        failures.append("path run exceeded 60s")

    cube = hypercube_graph(3)
    padded = SimpleGraph.from_edges(10, list(cube.edges))
    d_padded = truncated_metric(padded)
    t0 = time.monotonic()
    infeasible = cutcone_membership(d_padded)
    t_cube = time.monotonic() - t0
    timings.append(f"padded cube n=10 {t_cube:.1f}s")
    if infeasible.feasible:
        failures.append("padded cube metric wrongly feasible")
    else:
        from cutcones.cut_algebra import full_cut_matrix as _full

        if not farkas_refutes(_full(10), d_padded.d, infeasible.farkas):
            failures.append("padded cube Farkas vector does not refute")
    if t_cube >= 60:
        failures.append("padded cube run exceeded 60s")

    with pytest.raises(ValueError):
        cutcone_membership(Metric(11, (F(1),) * num_pairs(11)))

    rng = random.Random(12)
    for n in range(5, 8):
        for _ in range(3):
            d = random_l1_points_metric(n, rng)
            res = cutcone_membership(d)
            if not res.feasible:
                failures.append(f"l1 points metric rejected at n={n}")
            elif not verify_cut_certificate(
                certificate_from_weights(n, res.witness), d
            ).valid:
                failures.append(f"witness fails verification at n={n}")
    report(12, not failures, failures or ", ".join(timings) + ", certificates re-verified, n=11 guarded")
