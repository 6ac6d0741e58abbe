"""Tests of the benchmark's independent checks.

Each check must pass on the program's real output for a small instance
and reject the same output after one deliberate fault: a perturbed
certificate or Farkas vector, a weight flipped negative, an edge dropped
from a SIG.  Run with `python3 -m pytest bench`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from cutcones import cli  # noqa: E402

Q = Fraction


@pytest.fixture
def inputs(tmp_path):
    return workloads.Inputs(tmp_path)


def run(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())


def dump(doc: dict) -> str:
    return json.dumps(doc)


def rejects(check, code: int, doc: dict, **kw) -> None:
    with pytest.raises(CheckFailed):
        check(code, dump(doc), **kw)


# ---------------------------------------------------------------------------
# cut cone


def test_cutcone_member_certificate(inputs):
    pts = workloads.l1_points(random.Random(1), 6, 2, 8)
    d = workloads.l1_metric(pts)
    code, doc = run("cutcone", "exact", "--metric", inputs.metric("m", 6, d), "--format", "json")
    checks.cutcone_exact(code, dump(doc), n=6, d=d, member=True)
    rejects(checks.cutcone_exact, code, doc, n=6, d=d, member=False)

    cuts = doc["certificate"]["cuts"]
    cuts[0]["weight"] = str(checks.rat(cuts[0]["weight"]) + Q(1, 3))
    rejects(checks.cutcone_exact, code, doc, n=6, d=d, member=True)

    cuts[0]["weight"] = str(-checks.rat(cuts[0]["weight"]))
    rejects(checks.cutcone_exact, code, doc, n=6, d=d, member=True)


def test_cutcone_nonmember_farkas(inputs):
    d = workloads.planted_k23(random.Random(2), 6)
    code, doc = run("cutcone", "exact", "--metric", inputs.metric("m", 6, d), "--format", "json")
    checks.cutcone_exact(code, dump(doc), n=6, d=d, member=False)

    y = list(doc["farkas"])
    doc["farkas"] = y[:1] + [str(checks.rat(y[1]) + 1000)] + y[2:]
    rejects(checks.cutcone_exact, code, doc, n=6, d=d, member=False)

    doc["farkas"] = [str(-checks.rat(x)) for x in y]
    rejects(checks.cutcone_exact, code, doc, n=6, d=d, member=False)


def test_farkas_check_covers_every_cut():
    # y is -1 on pair (1,2) only: nonpositive on every cut, zero on d.
    n = 4
    d = [Q(1)] + [Q(0)] * 5
    with pytest.raises(CheckFailed, match="not positive"):
        checks.farkas(n, [Q(-1)] + [Q(0)] * 5, d)
    # +1 on pair (3,4): positive on the cuts that split 3 from 4.
    with pytest.raises(CheckFailed, match="positive on cut"):
        checks.farkas(n, [Q(1)] + [Q(0)] * 4 + [Q(1)], d)


def test_cut_traces_match_direct_sums():
    n = 6
    rng = random.Random(3)
    w = [Q(rng.randint(-5, 5), 3) for _ in checks.pairs(n)]
    traces = checks.cut_traces(n, w)
    for mask in range(1 << n):
        direct = sum(x for (i, j), x in zip(checks.pairs(n), w) if checks.separates(mask, i, j))
        assert traces[mask] == direct


def test_l1_points(inputs):
    pts = workloads.l1_points(random.Random(4), 5, 3, 8)
    d = workloads.l1_metric(pts)
    mpath = inputs.metric("m", 5, d)
    cpath = inputs.certificate("c", 5, workloads.l1_certificate(pts))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["embed", "l1", "--cert", cpath, "--metric", mpath])
    checks.l1_points(code, out.getvalue(), n=5, d=d)
    doc = json.loads(out.getvalue())
    doc["points"][2][0] = str(checks.rat(doc["points"][2][0]) + 1)
    rejects(checks.l1_points, code, doc, n=5, d=d)


# ---------------------------------------------------------------------------
# sufficient condition, certificates, kernel


def test_sufficient_member_certificate(inputs):
    d = workloads.near_uniform(random.Random(5), 7)
    code, doc = run("cutcone", "sufficient", "--metric", inputs.metric("m", 7, d), "--format", "json")
    checks.sufficient(code, dump(doc), n=7, d=d, member=True)

    cuts = doc["certificate"]["cuts"]
    cuts[3]["weight"] = str(checks.rat(cuts[3]["weight"]) * 2)
    rejects(checks.sufficient, code, doc, n=7, d=d, member=True)

    cuts[3]["weight"] = str(-checks.rat(cuts[3]["weight"]) / 2)
    rejects(checks.sufficient, code, doc, n=7, d=d, member=True)


def test_sufficient_inconclusive_slacks(inputs):
    d = workloads.planted_near_vertex(random.Random(6), 7)
    code, doc = run("cutcone", "sufficient", "--metric", inputs.metric("m", 7, d), "--format", "json")
    checks.sufficient(code, dump(doc), n=7, d=d, member=False)
    n, m, trace = 7, 21, sum(d)
    traces = checks.cut_traces(n, d)
    passing = next(
        mask for mask in range(1, (1 << n) - 1, 2)
        if traces[mask] - Q(trace * mask.bit_count() * (n - mask.bit_count()), m + 1) > 0
    )
    doc["failing_cuts"].append([v + 1 for v in range(n) if passing >> v & 1])
    rejects(checks.sufficient, code, doc, n=7, d=d, member=False)


def test_candidate_certificate_is_what_verify_cert_accepts(inputs):
    n = 7
    d = workloads.near_uniform(random.Random(7), n)
    cert = workloads.candidate_certificate(n, d)
    assert len(cert) == (1 << n) - 2 and all(w > 0 for _, w in cert)
    checks.cut_decomposition(
        n, [{"mask": m, "weight": str(w)} for m, w in cert], d)
    mpath = inputs.metric("m", n, d)
    code, doc = run("verify-cert", "--cert", inputs.certificate("c", n, cert), "--metric", mpath,
                    "--format", "json")
    checks.verify_cert(code, dump(doc), n=n, mismatch=None)

    bad = list(cert)
    bad[10] = (bad[10][0], bad[10][1] + Q(1, 7))
    code, doc = run("verify-cert", "--cert", inputs.certificate("b", n, bad), "--metric", mpath,
                    "--format", "json")
    pair = workloads.first_split_pair(n, bad[10][0])
    checks.verify_cert(code, dump(doc), n=n, mismatch=pair)
    rejects(checks.verify_cert, code, doc, n=n, mismatch=None)
    doc["mismatch"]["j"] += 1
    rejects(checks.verify_cert, code, doc, n=n, mismatch=pair)


def test_kernel_basis():
    code, doc = run("kernel", "basis", "--n", "5", "--format", "json")
    checks.kernel_basis(code, dump(doc), n=5)

    vectors = doc["vectors"]
    last = vectors[-1]
    entries = last["entries"]
    k = next(i for i, x in enumerate(entries) if x != "0")
    entries[k] = "0"
    rejects(checks.kernel_basis, code, doc, n=5)

    first, second = vectors[0]["entries"], vectors[1]["entries"]
    vectors[-1] = {"label": last["label"], "entries": list(first)}
    rejects(checks.kernel_basis, code, doc, n=5)  # a repeated vector
    vectors[-1]["entries"] = [str(Q(a) + Q(b)) for a, b in zip(first, second)]
    rejects(checks.kernel_basis, code, doc, n=5)  # a dependent vector
    vectors[-1] = dict(vectors[0])
    rejects(checks.kernel_basis, code, doc, n=5)  # a repeated label

    vectors.pop()
    rejects(checks.kernel_basis, code, doc, n=5)


# ---------------------------------------------------------------------------
# pair-cut cone and SIGs


def test_paircut_closed_form(inputs):
    d = workloads.paircut_combination(random.Random(8), 7)
    code, doc = run("paircut", "--metric", inputs.metric("m", 7, d), "--format", "json")
    checks.paircut(code, dump(doc), n=7, d=d)
    assert doc["member"] is True

    w = list(doc["weights"])
    doc["weights"] = [str(-checks.rat(w[0]))] + w[1:]
    rejects(checks.paircut, code, doc, n=7, d=d)

    doc["weights"] = w
    doc["member"] = False
    rejects(checks.paircut, code, doc, n=7, d=d)


def test_paircut_exact(inputs):
    d = workloads.paircut_combination(random.Random(9), 6)
    code, doc = run("paircut", "exact", "--metric", inputs.metric("m", 6, d), "--format", "json")
    checks.paircut_exact(code, dump(doc), n=6, d=d)
    doc["weights"][0] = str(checks.rat(doc["weights"][0]) + 1)
    rejects(checks.paircut_exact, code, doc, n=6, d=d)

    d = checks.star_metric([Q(1), Q(2), Q(3), Q(5), Q(7)])
    code, doc = run("paircut", "exact", "--metric", inputs.metric("s", 6, d), "--format", "json")
    checks.paircut_exact(code, dump(doc), n=6, d=d)
    doc["farkas"] = [str(-checks.rat(x)) for x in doc["farkas"]]
    rejects(checks.paircut_exact, code, doc, n=6, d=d)


def test_validate(inputs):
    n = 6
    d = workloads.strict_l1_metric(random.Random(10), n)
    d[0] = sum(d)  # one distance longer than any two-step path
    code, doc = run("validate", "--strict", "--metric", inputs.metric("m", n, d), "--format", "json")
    checks.validate(code, dump(doc), n=n, d=d)
    assert code == 1
    doc["triangle_violations"].pop()
    rejects(checks.validate, code, doc, n=n, d=d)


def test_sig_build_and_verify(inputs):
    n = 8
    d = workloads.strict_l1_metric(random.Random(11), n)
    mpath = inputs.metric("m", n, d)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sig", "build", "--metric", mpath])
    checks.sig_build(code, out.getvalue(), n=n, d=d)
    doc = json.loads(out.getvalue())
    doc["edges"].pop()
    rejects(checks.sig_build, code, doc, n=n, d=d)

    own = checks.sig_edges(n, d)
    dropped = own - {min(own)}
    code, doc = run("sig", "verify", "--metric", mpath, "--graph", inputs.graph("g", n, dropped),
                    "--format", "json")
    checks.sig_verify(code, dump(doc), n=n, d=d, graph=dropped)
    rejects(checks.sig_verify, code, doc, n=n, d=d, graph=own)
    doc["extra_edges"] = []
    rejects(checks.sig_verify, code, doc, n=n, d=d, graph=dropped)


def test_star_obstruction():
    lengths = [Q(1), Q(3, 2), Q(2), Q(5), Q(1, 4)]
    code, doc = run("sig", "star-obstruction", "--n", "5", "--a", *map(str, lengths), "--format", "json")
    checks.star_obstruction(code, dump(doc), lengths=lengths)
    doc["member"] = True
    rejects(checks.star_obstruction, code, doc, lengths=lengths)
    doc["member"] = False
    doc["metric"]["d"][0] = 7
    rejects(checks.star_obstruction, code, doc, lengths=lengths)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_are_seeded(tmp_path, workload):
    a = workloads.build(workload, 3, tmp_path / "a")
    b = workloads.build(workload, 3, tmp_path / "b")
    c = workloads.build(workload, 4, tmp_path / "c")
    files = lambda p: [f.read_text() for f in sorted(p.iterdir())]  # noqa: E731
    assert [op.id for op in a.ops] == [op.id for op in b.ops]
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")
