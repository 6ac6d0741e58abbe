"""End-to-end command-line tests, run in process through main(argv)."""

import argparse
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import cutcones
from cutcones import io as cio
from cutcones import fullcut, oracle, paircut
from cutcones.cli import _MATRICES, EXIT_INTERNAL, build_parser, main
from cutcones.cut_algebra import Cut, cut_metric_vector
from cutcones.embeddings import PointSet
from cutcones.fullcut import CutCertificate, sufficient_condition
from cutcones.metric import Metric
from cutcones.paircut import paircut_membership
from cutcones.sig import SimpleGraph, family, graph_metric, path_graph, truncated_metric

from conftest import metric_of_ints, raise_one_cut_trace

F = Fraction


@pytest.fixture
def cli(monkeypatch, capsys):
    def run(*argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    return run


@pytest.fixture
def write(tmp_path):
    counter = itertools.count()

    def _write(obj):
        path = tmp_path / f"input{next(counter)}.json"
        if isinstance(obj, Metric):
            obj = cio.dumps_metric(obj)
        elif isinstance(obj, SimpleGraph):
            obj = cio.dumps_graph(obj)
        elif isinstance(obj, CutCertificate):
            obj = cio.dumps_json(cio.certificate_to_json(obj))
        path.write_text(obj)
        return str(path)

    return _write


def path_certificate():
    members = ((1,), (1, 2), (2, 3), (3, 4), (4, 5), (5,))
    return CutCertificate(
        n=5,
        cuts=tuple(Cut.from_members(5, m) for m in members),
        weights=(F(1, 2),) * 6,
    )


def load_points(text):
    doc = json.loads(text)
    return PointSet(doc["norm"], tuple(tuple(map(cio.parse_rational, p)) for p in doc["points"]))


def pair_cut_metric(n, *pairs_with_weights):
    total = [F(0)] * (n * (n - 1) // 2)
    for (i, j), w in pairs_with_weights:
        for idx, x in enumerate(cut_metric_vector(Cut.from_members(n, (i, j)))):
            total[idx] += w * x
    return Metric(n, tuple(total))


# ---------------------------------------------------------------------------
# validate and stats


def test_validate_valid_semimetric(cli, write, figure_eight_d0):
    code, out, _ = cli("validate", "--metric", write(figure_eight_d0))
    assert code == 0
    assert out == (
        "command: validate\nn: 7\nstrict: false\nvalid: true\n"
        "triangle_violations:\nnegative_entries:\nzero_entries:\n"
    )


def test_validate_triangle_violation(cli, write):
    code, out, _ = cli("validate", "--metric", write(metric_of_ints(3, [5, 1, 1])))
    assert code == 1
    assert out == (
        "command: validate\n"
        "n: 3\n"
        "strict: false\n"
        "valid: false\n"
        "triangle_violations:\n"
        "  i=1 j=2 k=3 slack=-3\n"
        "negative_entries:\n"
        "zero_entries:\n"
    )


def test_validate_strict_flags_zeros(cli, write):
    d = Metric(5, cut_metric_vector(Cut.from_members(5, (2, 4))))
    path = write(d)
    assert cli("validate", "--metric", path)[0] == 0
    code, out, _ = cli("validate", "--strict", "--metric", path)
    assert code == 1
    assert out.endswith("zero_entries:\n  i=1 j=3\n  i=1 j=5\n  i=2 j=4\n  i=3 j=5\n")
    assert {"strict: true", "valid: false"} <= set(out.splitlines())


def test_validate_text_reports_negative_entry(cli, write):
    code, out, _ = cli("validate", "--metric", write(metric_of_ints(3, [-1, 1, 1])))
    assert code == 1
    assert "negative_entries:\n  i=1 j=2 value=-1\n" in out


def test_validate_json_document(cli, write):
    d = Metric(5, cut_metric_vector(Cut.from_members(5, (2, 4))))
    code, out, _ = cli("validate", "--format", "json", "--strict", "--metric", write(d))
    assert code == 1
    doc = json.loads(out)
    assert doc["command"] == "validate"
    assert doc["n"] == 5 and doc["strict"] is True and doc["valid"] is False
    assert doc["triangle_violations"] == []
    assert doc["zero_entries"] == [
        {"i": 1, "j": 3},
        {"i": 1, "j": 5},
        {"i": 2, "j": 4},
        {"i": 3, "j": 5},
    ]


def test_validate_reads_stdin(cli, figure_eight_d0):
    code, out, _ = cli("validate", stdin=cio.dumps_metric(figure_eight_d0))
    assert code == 0 and "valid: true" in out.splitlines()


def test_stats_text_and_json(cli, write, figure_eight_d0):
    path = write(figure_eight_d0)
    code, out, _ = cli("stats", "--metric", path)
    assert code == 0
    assert out == "command: stats\nn: 7\ntrace: 34\nstar_traces: 8 10 10 10 10 10 10\n"
    code, out, _ = cli("stats", "--format", "json", "--metric", path)
    doc = json.loads(out)
    assert doc["trace"] == "34"
    assert doc["star_traces"] == ["8", "10", "10", "10", "10", "10", "10"]


# ---------------------------------------------------------------------------
# paircut


def test_paircut_non_member_text(cli, write, figure_eight_d0):
    code, out, _ = cli("paircut", "--metric", write(figure_eight_d0))
    assert code == 1
    assert "member: false" in out.splitlines()
    assert out.endswith("violations:\n  i=1 j=3 slack=-8/5\n  i=1 j=6 slack=-8/5\n")


def test_paircut_member_text(cli, write, figure_eight_d1):
    code, out, _ = cli("paircut", "--metric", write(figure_eight_d1))
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == ["command: paircut", "mode: closed-form", "n: 7", "member: true"]
    assert lines[4].startswith("weights: ") and len(lines[4].split()) == 1 + 21
    assert lines[5:] == ["violations:"]


def test_paircut_json_document(cli, write, figure_eight_d0):
    code, out, _ = cli("paircut", "--format", "json", "--metric", write(figure_eight_d0))
    assert code == 1
    doc = json.loads(out)
    assert doc["mode"] == "closed-form"
    assert doc["member"] is False
    assert doc["violations"] == [
        {"i": 1, "j": 3, "slack": "-8/5"},
        {"i": 1, "j": 6, "slack": "-8/5"},
    ]


def test_paircut_small_n_routed_to_oracle(cli, write):
    d = Metric(4, (F(1),) * 6)
    code, out, _ = cli("paircut", "--metric", write(d))
    assert code == 0
    assert out.startswith("command: paircut\nmode: exact\nn: 4\nmember: true\n")
    code, out, _ = cli("paircut", "--format", "json", "--metric", write(d))
    assert json.loads(out)["mode"] == "exact"


def test_paircut_exact_matches_closed_form_weights(cli, write):
    d = pair_cut_metric(5, ((1, 2), F(2)), ((3, 4), F(3)), ((1, 5), F(1)))
    path = write(d)
    _, out_closed, _ = cli("paircut", "--format", "json", "--metric", path)
    _, out_exact, _ = cli("paircut", "exact", "--format", "json", "--metric", path)
    closed = json.loads(out_closed)
    exact = json.loads(out_exact)
    assert closed["mode"] == "closed-form" and exact["mode"] == "exact"
    assert closed["member"] and exact["member"]
    assert exact["weights"] == closed["weights"]


def test_paircut_exact_emits_farkas_file(cli, write, tmp_path, figure_eight_d0):
    fk = tmp_path / "farkas.json"
    code, _, _ = cli(
        "paircut", "exact", "--metric", write(figure_eight_d0), "--emit-farkas", str(fk)
    )
    assert code == 1
    doc = json.loads(fk.read_text())
    assert doc["n"] == 7
    assert len(doc["farkas"]) == 21
    assert all(isinstance(cio.parse_rational(x), F) for x in doc["farkas"])


def test_paircut_closed_form_emits_farkas_file(cli, write, tmp_path):
    # Q_3 under d0 fails the closed form; the file holds the re-checked
    # closed-form Farkas vector, and stdout is that of a run without it
    d = truncated_metric(family("Q", 3))
    path = write(d)
    fk = tmp_path / "farkas.json"
    for fmt in ("text", "json"):
        code, plain, _ = cli("paircut", "--format", fmt, "--metric", path)
        code_fk, out, _ = cli(
            "paircut", "--format", fmt, "--metric", path, "--emit-farkas", str(fk)
        )
        assert code == code_fk == 1 and out == plain
    doc = json.loads(fk.read_text())
    assert doc["n"] == 8
    y = [cio.parse_rational(x) for x in doc["farkas"]]
    assert sum(a * b for a, b in zip(y, d.d)) > 0
    for i, j in itertools.combinations(range(1, 9), 2):
        delta = cut_metric_vector(Cut.from_members(8, (i, j)))
        assert sum(a * b for a, b in zip(y, delta)) <= 0
    # a member writes no file
    member = write(pair_cut_metric(5, ((1, 2), F(2))))
    other = tmp_path / "none.json"
    assert cli("paircut", "--metric", member, "--emit-farkas", str(other))[0] == 0
    assert not other.exists()


def test_paircut_exact_rejects_over_cap(cli, write, figure_eight_d0):
    code, _, err = cli(
        "paircut", "exact", "--max-n", "5", "--metric", write(figure_eight_d0)
    )
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [("cutcone", "exact"), ("paircut", "exact"), ("paircut",)])
def test_two_vertex_metric_is_rejected(cli, write, argv):
    code, out, err = cli(*argv, "--metric", write('{"n": 2, "d": [1]}'))
    assert code == 3 and out == ""
    assert err == "error: need at least 3 vertices, got n=2\n"


# ---------------------------------------------------------------------------
# cutcone


def test_cutcone_sufficient_complete_graph(cli, write):
    code, out, _ = cli("cutcone", "sufficient", "--metric", write(Metric(5, (F(1),) * 10)))
    assert code == 0
    lines = out.splitlines()
    assert lines[:8] == [
        "command: cutcone", "mode: sufficient", "n: 5", "status: member", "failing_cuts:",
        "certificate:", "  n: 5", "  cuts:",
    ]
    assert "    members=1 weight=1/22" in lines
    assert "    members=1 2 weight=3/44" in lines


def test_cutcone_sufficient_inconclusive(cli, write):
    d = truncated_metric(family("Q", 3))
    code, out, _ = cli("cutcone", "sufficient", "--metric", write(d))
    assert code == 2
    lines = out.splitlines()
    assert lines[3:6] == ["status: inconclusive", "failing_cuts:", "  1 4"]
    assert "certificate:" not in lines
    code, out, _ = cli("cutcone", "sufficient", "--format", "json", "--metric", write(d))
    doc = json.loads(out)
    assert doc["status"] == "inconclusive"
    assert doc["failing_cuts"]


def test_cutcone_sufficient_certificate_round_trip(cli, write, tmp_path):
    metric_path = write(Metric(6, (F(1),) * 15))
    cert_path = tmp_path / "cert.json"
    code, _, _ = cli(
        "cutcone", "sufficient", "--metric", metric_path,
        "--emit-certificate", str(cert_path),
    )
    assert code == 0
    code, out, _ = cli("verify-cert", "--cert", str(cert_path), "--metric", metric_path)
    assert code == 0
    assert out == "command: verify-cert\nn: 6\nvalid: true\nnegative_weights:\n"


def test_cutcone_exact_member_with_certificate(cli, write, tmp_path):
    metric_path = write(truncated_metric(path_graph(5)))
    cert_path = tmp_path / "cert.json"
    code, out, _ = cli(
        "cutcone", "exact", "--metric", metric_path,
        "--emit-certificate", str(cert_path),
    )
    assert code == 0
    assert "member: true" in out.splitlines()
    assert cli("verify-cert", "--cert", str(cert_path), "--metric", metric_path)[0] == 0


def test_cutcone_exact_member_never_enumerates_cut_objects(cli, write, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)

    for module in vars(cutcones).values():
        if hasattr(module, "enumerate_cuts"):
            monkeypatch.setattr(module, "enumerate_cuts", spy)
    code, out, _ = cli("cutcone", "exact", "--metric", write(graph_metric(family("C", 6))))
    assert code == 0
    assert out == (
        "command: cutcone\n"
        "mode: exact\n"
        "n: 6\n"
        "member: true\n"
        "certificate:\n"
        "  n: 6\n"
        "  cuts:\n"
        "    members=1 2 3 weight=1\n"
        "    members=1 2 6 weight=1\n"
        "    members=1 5 6 weight=1\n"
    )
    assert calls == []


@pytest.mark.parametrize("mode", ["sufficient", "exact"])
def test_cutcone_converts_the_certificate_once_and_only_when_printed(
    cli, write, tmp_path, monkeypatch, mode
):
    calls = []
    convert = cio.certificate_to_json

    def counted(cert):
        calls.append(cert)
        return convert(cert)

    monkeypatch.setattr(cio, "certificate_to_json", counted)
    path = write(graph_metric(family("K", 5)))
    # both renderings print the certificate, so every member run converts it once
    code, text, _ = cli("cutcone", mode, "--metric", path)
    assert code == 0 and len(calls) == 1
    emitted = tmp_path / "cert.json"
    code, out, _ = cli(
        "cutcone", mode, "--format", "json", "--metric", path, "--emit-certificate", str(emitted)
    )
    assert code == 0 and len(calls) == 2
    assert emitted.read_text() == json.dumps(json.loads(out)["certificate"]) + "\n"
    code, out, _ = cli("cutcone", mode, "--metric", path, "--emit-certificate", str(emitted))
    assert code == 0 and len(calls) == 3 and out == text
    assert "certificate:" in out.splitlines()


def test_cutcone_exact_non_member_farkas(cli, write, tmp_path):
    d = truncated_metric(family("B", 2, 3))
    fk = tmp_path / "farkas.json"
    code, out, _ = cli(
        "cutcone", "exact", "--metric", write(d), "--emit-farkas", str(fk)
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == "member: false"
    doc = json.loads(fk.read_text())
    assert doc["n"] == 5 and len(doc["farkas"]) == 10
    assert lines[4:] == ["farkas: " + " ".join(doc["farkas"])]


def test_cutcone_exact_rejects_over_cap(cli, write):
    code, _, err = cli(
        "cutcone", "exact", "--max-n", "4", "--metric", write(Metric(5, (F(1),) * 10))
    )
    assert code == 3 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("paircut", "exact"),
        ("cutcone", "sufficient"),
        ("cutcone", "exact"),
        ("kernel", "basis", "--n", "5"),
        ("matrix", "dump", "full", "--n", "5"),
    ],
    ids=lambda argv: "-".join(argv[:2 + (argv[0] == "matrix")]),
)
def test_max_n_zero_is_a_cap_not_unset(cli, write, argv):
    if "--n" not in argv:
        argv += ("--metric", write(Metric(5, (F(1),) * 10)))
    code, _, err = cli(*argv, "--max-n", "0")
    assert code == 3 and err.startswith("error:")


def test_cutcone_exact_certificate_keeps_a_lifted_cap(cli, write, monkeypatch):
    # --max-n is the oracle's cap alone: packaging the witness has no cap
    # of its own, so an n above the enumeration's default of 16 still
    # gets its certificate
    d = Metric(17, cut_metric_vector(Cut.from_members(17, (1,))))
    witness = (F(1),) + (F(0),) * (2**17 - 3)
    monkeypatch.setattr(
        oracle, "cutcone_membership",
        lambda d, **_: oracle.FeasibilityResult(True, witness, None),
    )
    code, out, err = cli("cutcone", "exact", "--max-n", "17", "--metric", write(d))
    assert (code, err) == (0, "")
    assert out.endswith("member: true\ncertificate:\n  n: 17\n  cuts:\n    members=1 weight=1\n")


def test_cutcone_requires_mode(cli, write):
    assert cli("cutcone", "--metric", write(Metric(5, (F(1),) * 10)))[0] == 3


# ---------------------------------------------------------------------------
# verify-cert


def test_verify_cert_detects_tampering(cli, write):
    cert = path_certificate()
    good = truncated_metric(path_graph(5))
    tampered = CutCertificate(
        n=5, cuts=cert.cuts, weights=(F(1),) + cert.weights[1:]
    )
    code, out, _ = cli("verify-cert", "--cert", write(tampered), "--metric", write(good))
    assert code == 1
    assert out == (
        "command: verify-cert\n"
        "n: 5\n"
        "valid: false\n"
        "negative_weights:\n"
        "mismatch:\n"
        "  i: 1\n"
        "  j: 2\n"
        "  reconstructed: 3/2\n"
        "  expected: 1\n"
    )


def test_verify_cert_reports_negative_weights(cli, write):
    cert = CutCertificate(
        n=3,
        cuts=(Cut.from_members(3, (1,)), Cut.from_members(3, (2,))),
        weights=(F(-1, 2), F(1)),
    )
    d = Metric(3, (F(1, 2), F(-1, 2), F(1)))
    code, out, _ = cli(
        "verify-cert", "--format", "json", "--cert", write(cert), "--metric", write(d)
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["negative_weights"] == [{"members": [1], "weight": "-1/2"}]
    code, out, _ = cli("verify-cert", "--cert", write(cert), "--metric", write(d))
    assert code == 1
    assert "negative_weights:\n  members=1 weight=-1/2\n" in out


@pytest.mark.parametrize("members", ['["1"]', "[1.5]", "[true]"], ids=["string", "decimal", "bool"])
def test_verify_cert_rejects_non_integer_members(cli, write, members):
    cert = write('{"n": 3, "cuts": [{"members": %s, "weight": 1}]}' % members)
    code, out, err = cli("verify-cert", "--cert", cert, "--metric", write(Metric(3, (F(1), F(1), F(0)))))
    assert code == 3
    assert out == "" and "integer vertices" in err


def test_certificate_with_a_huge_common_denominator_exits_3_fast(cli, write):
    """Every cut of n=12 weighted 1/p, p a distinct prime from 100003 up:
    the weights' lcm passes MAX_TOKEN_DIGITS digits, and both readers
    of the certificate reject it before scaling any weight to it."""
    top = 160000
    sieve = bytearray([1]) * top
    for p in range(2, int(top**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, top, p)))
    primes = [p for p in range(100003, top) if sieve[p]][:4094]
    assert len(primes) == 4094
    doc = {"n": 12, "cuts": [{"mask": mask, "weight": f"1/{p}"} for mask, p in zip(range(1, 4095), primes)]}
    cert = write(json.dumps(doc))
    for argv in (("verify-cert", "--metric", write(metric_of_ints(12, [1] * 66))), ("embed", "l1")):
        start = time.perf_counter()
        code, out, err = cli(*argv, "--cert", cert)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == "" and "common denominator of more than 4300 digits" in err


def run_fast(*argv):
    """(exit code, stdout, stderr) of `python -m cutcones.cli argv` in a
    subprocess, which must end within 1 s.  The 30 s timeout makes a
    regression fail, not hang."""
    src = Path(cutcones.__file__).parents[1]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cutcones.cli", *argv],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert time.perf_counter() - start < 1, argv
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command", [("verify-cert",), ("embed", "l1")], ids=["verify-cert", "embed-l1"])
def test_certificate_on_a_huge_n_exits_3_fast(write, command):
    """The 68-byte certificate of n = 10^9 against a metric on 3
    vertices: both commands read the metric first and reject the
    certificate's n before building a bitmask or a point per vertex."""
    cert = write('{"n": 1000000000, "cuts": [{"members": [1000000000], "weight": 1}]}\n')
    metric = write('{"n": 3, "d": [1, 1, 1]}')
    code, out, err = run_fast(*command, "--cert", cert, "--metric", metric)
    assert (code, out) == (3, "")
    assert err == "error: certificate for n=1000000000 vs metric on n=3\n"


@pytest.mark.parametrize("n", [1, -3])
def test_embed_rejects_a_certificate_on_fewer_than_2_vertices(cli, write, n):
    code, out, err = cli("embed", "l1", "--cert", write('{"n": %d, "cuts": []}' % n))
    assert (code, out, err) == (3, "", f"error: need at least 2 vertices, got n={n}\n")


def test_graph_on_a_huge_n_exits_3_fast(write):
    """`sig verify` reads the metric first and rejects the 30-byte graph
    document of n = 10^7 before building its 10^7 adjacency rows."""
    graph = write('{"n": 10000000, "edges": []}')
    code, out, err = run_fast("sig", "verify", "--metric", write('{"n": 3, "d": [1, 1, 1]}'), "--graph", graph)
    assert (code, out, err) == (3, "", "error: graph on 10000000 vertices vs metric on 3\n")


def wide_tokens(seed, count):
    """count tokens "(q+1)/q", q a random odd 6900-bit integer: each token
    (at most 4157 characters) is within the token limit, while a few of
    them have a common denominator of more than 4300 digits."""
    rng = random.Random(seed)
    qs = [rng.getrandbits(6900) | 1 << 6899 | 1 for _ in range(count)]
    return [f"{q + 1}/{q}" for q in qs]


@pytest.mark.parametrize(
    "n, argv",
    [
        (10, ("cutcone", "exact")),
        (10, ("paircut", "exact")),
        (10, ("validate",)),
        (14, ("paircut",)),
    ],
    ids=["n10-cutcone-exact", "n10-paircut-exact", "n10-validate", "n14-paircut"],
)
def test_metric_over_the_denominator_cap_exits_3_fast(write, n, argv):
    metric = write(json.dumps({"n": n, "d": wide_tokens(f"wide-metric/{n}", n * (n - 1) // 2)}))
    code, out, err = run_fast(*argv, "--metric", metric)
    assert (code, out) == (3, "")
    assert err == "error: metric entries have a common denominator of more than 4300 digits\n"


def test_star_lengths_over_the_denominator_cap_exit_3_fast():
    code, out, err = run_fast("sig", "star-obstruction", "--n", "20", "--a", *wide_tokens("wide-a", 20))
    assert (code, out) == (3, "")
    assert err == "error: --a lengths have a common denominator of more than 4300 digits\n"


# sha256 prefix of each command's stdout on the metric just under the cap
UNDER_CAP = {
    ("paircut",): "e4e60e019330f6a0",
    ("validate",): "c5b0516158e4786e",
    ("paircut", "exact"): "7bc1ce4ceea682a9",
    ("cutcone", "exact"): "2aebac2e6e716ee1",
}


@pytest.mark.parametrize("argv", list(UNDER_CAP), ids=" ".join)
def test_metric_just_under_the_denominator_cap_is_read(write, argv):
    """n = 5, two entries 1 + 1/q over coprime 2000-digit q, 1 elsewhere:
    a common denominator of about 4000 digits, within the cap."""
    rng = random.Random("under-cap")
    q1 = q2 = rng.getrandbits(6643) | 1 << 6642
    while gcd(q1, q2) != 1:
        q2 = rng.getrandbits(6643) | 1 << 6642
    d = [f"{q1 + 1}/{q1}", f"{q2 + 1}/{q2}"] + [1] * 8
    code, out, err = run_fast(*argv, "--metric", write(json.dumps({"n": 5, "d": d})))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == UNDER_CAP[argv]


@pytest.mark.parametrize("command", [("verify-cert",), ("embed", "l1")], ids=["verify-cert", "embed-l1"])
def test_certificate_on_another_n_exits_3(cli, write, command, monkeypatch):
    def forbidden(*_):
        raise AssertionError("certificate cuts read")

    monkeypatch.setattr(cio, "_Bits", forbidden)
    cert = write(path_certificate())
    code, out, err = cli(*command, "--cert", cert, "--metric", write(metric_of_ints(4, [1] * 6)))
    assert (code, out, err) == (3, "", "error: certificate for n=5 vs metric on n=4\n")


# ---------------------------------------------------------------------------
# kernel


def test_kernel_basis_text_n4(cli):
    code, out, _ = cli("kernel", "basis", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == [
        "command: kernel-basis", "n: 4", "dimension: 8", "normative: false", "vectors:",
    ]
    assert lines[5] == "  label=phi_1 entries=1 0 0 0 0 0 0 0 0 0 0 0 0 -1"
    assert any(line.startswith("  label=psi_{1,2,3} entries=") for line in lines)
    assert lines[-1].startswith("  label=psi_{1,2,3,4} entries=")
    assert len(lines) == 5 + 8


def test_kernel_basis_json_n5(cli):
    code, out, _ = cli("kernel", "basis", "--format", "json", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 20 and doc["normative"] is True
    assert len(doc["vectors"]) == 20
    assert doc["vectors"][0]["label"] == "phi_1"
    assert doc["vectors"][-1]["label"] == "psi_{1,2,3,4,5}"
    assert all(len(v["entries"]) == 30 for v in doc["vectors"])


def test_kernel_basis_output_file(cli, tmp_path):
    out_path = tmp_path / "kernel.txt"
    code, out, _ = cli("kernel", "basis", "--n", "4", "-o", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text() == cli("kernel", "basis", "--n", "4")[1]


def test_kernel_basis_rejects_tiny_n(cli):
    assert cli("kernel", "basis", "--n", "2")[0] == 3


def test_kernel_basis_caps_n_at_12_before_any_work(cli, monkeypatch):
    # 4^n dense entries: n = 13 would write about 330 MB
    def forbidden(*_):
        raise AssertionError("psi_vector called")

    monkeypatch.setattr(fullcut, "psi_vector", forbidden)
    start = time.perf_counter()
    code, out, err = cli("kernel", "basis", "--n", "13", "--format", "json")
    assert code == 3 and out == "" and "maximum 12" in err
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# embed


def test_embed_l1_with_verification(cli, write):
    cert_path = write(path_certificate())
    metric_path = write(truncated_metric(path_graph(5)))
    code, out, _ = cli("embed", "l1", "--cert", cert_path, "--metric", metric_path)
    assert code == 0
    points = load_points(out)
    assert points.norm == "l1" and points.dimension == 6


def test_embed_l1_mismatch_fails(cli, write):
    cert_path = write(path_certificate())
    wrong = truncated_metric(path_graph(5)).d[:-1] + (F(7),)
    code, out, err = cli(
        "embed", "l1", "--cert", cert_path, "--metric", write(Metric(5, wrong))
    )
    assert code == 1
    assert out == ""
    assert "mismatch at (4,5)" in err


def test_embed_linf_sig(cli, write, figure_eight, figure_eight_d0):
    code, out, _ = cli("embed", "linf-sig", "--graph", write(figure_eight))
    assert code == 0
    points = load_points(out)
    assert points.norm == "linf" and points.dimension == 6
    from cutcones.embeddings import verify_isometry

    assert verify_isometry(points, figure_eight_d0).ok


def test_embed_linf_sig_disconnected_is_an_error(cli, write):
    g = SimpleGraph.from_edges(4, [(1, 2)])
    code, _, err = cli("embed", "linf-sig", "--graph", write(g))
    assert code == 3 and err.startswith("error:")


# ---------------------------------------------------------------------------
# sig


def test_sig_build_round_trip(cli, write, figure_eight, figure_eight_d1):
    code, out, _ = cli("sig", "build", "--metric", write(figure_eight_d1))
    assert code == 0
    assert cio.loads_graph(out).edges == figure_eight.edges


def test_sig_build_rejects_zero_distance(cli, write):
    code, _, err = cli("sig", "build", "--metric", write(metric_of_ints(3, [0, 1, 1])))
    assert code == 3 and err.startswith("error:")


def test_sig_verify_match_and_mismatch(cli, write, figure_eight, figure_eight_d0):
    graph_path = write(figure_eight)
    code, out, _ = cli("sig", "verify", "--metric", write(figure_eight_d0), "--graph", graph_path)
    assert code == 0
    assert out.splitlines()[:3] == ["command: sig-verify", "n: 7", "matches: true"]
    code, out, _ = cli(
        "sig", "verify",
        "--metric", write(Metric(5, (F(1),) * 10)),
        "--graph", write(family("C", 5)),
    )
    assert code == 1
    assert out == (
        "command: sig-verify\n"
        "n: 5\n"
        "matches: false\n"
        "radii: 1 1 1 1 1\n"
        "missing_edges:\n"
        "extra_edges:\n"
        "  1 3\n  1 4\n  2 4\n  2 5\n  3 5\n"
    )


def test_sig_star_obstruction_confirmed(cli):
    code, out, _ = cli("sig", "star-obstruction", "--n", "4", "--a", "1", "1", "1", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[:6] == [
        "command: sig-star-obstruction", "leaves: 4", "n: 5", "sig_ok: true", "member: false",
        "confirmed: true",
    ]
    assert lines[-3:] == ["metric:", "  n: 5", "  d: 1 1 1 1 2 2 2 2 2 2"]


def test_sig_star_obstruction_fraction_lengths(cli):
    code, out, _ = cli(
        "sig", "star-obstruction", "--format", "json",
        "--n", "5", "--a", "1/2", "1/3", "2", "7/4", "9",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["confirmed"] is True and doc["sig_ok"] is True
    assert doc["member"] is False
    assert doc["violations"]
    assert doc["metric"]["n"] == 6


def test_sig_star_obstruction_bad_input(cli):
    assert cli("sig", "star-obstruction", "--n", "3", "--a", "1", "1", "1")[0] == 3
    assert cli("sig", "star-obstruction", "--n", "4", "--a", "1", "1", "1")[0] == 3
    assert cli("sig", "star-obstruction", "--n", "4", "--a", "1", "1", "1", "x")[0] == 3


# ---------------------------------------------------------------------------
# family and matrix dumps


def test_family_gen_graph(cli):
    code, out, _ = cli("family", "gen", "K", "6")
    assert code == 0
    assert len(cio.loads_graph(out).edges) == 15


def test_family_gen_metrics_differ(cli):
    _, d0_out, _ = cli("family", "gen", "Q", "3", "--metric", "d0")
    _, d1_out, _ = cli("family", "gen", "Q", "3", "--metric", "d1")
    d0 = cio.loads_metric(d0_out)
    d1 = cio.loads_metric(d1_out)
    assert max(d0.d) == 2 and max(d1.d) == 3


def test_family_gen_output_file(cli, tmp_path):
    path = tmp_path / "graph.json"
    code, out, _ = cli("family", "gen", "CP", "3", "-o", str(path))
    assert code == 0 and out == ""
    assert len(cio.loads_graph(path.read_text()).edges) == 12


def test_family_gen_errors(cli):
    assert cli("family", "gen", "C", "2")[0] == 3
    assert cli("family", "gen", "X", "3")[0] == 3
    assert cli("family", "gen", "K")[0] == 3
    for argv in (("K", "0"), ("Q", "0"), ("B", "0", "1"), ("CP", "1"), ("S", "0")):
        assert cli("family", "gen", *argv)[0] == 3


def test_family_piped_into_paircut(cli):
    _, metric_json, _ = cli("family", "gen", "Q", "3", "--metric", "d0")
    code, out, _ = cli("paircut", stdin=metric_json)
    assert code == 1
    assert out == (
        "command: paircut\n"
        "mode: closed-form\n"
        "n: 8\n"
        "member: false\n"
        "weights: 5/12 5/12 -1/12 5/12 -1/12 -1/12 -1/12 -1/12 5/12 -1/12 5/12 -1/12 -1/12 5/12"
        " -1/12 -1/12 5/12 -1/12 -1/12 -1/12 -1/12 5/12 5/12 5/12 -1/12 -1/12 5/12 5/12\n"
        "violations:\n"
        + "".join(
            f"  i={i} j={j} slack=-2/3\n"
            for i, j in ((1, 4), (1, 6), (1, 7), (1, 8), (2, 3), (2, 5), (2, 7), (2, 8),
                         (3, 5), (3, 6), (3, 8), (4, 5), (4, 6), (4, 7), (5, 8), (6, 7))
        )
    )


def test_module_entry_point(cli):
    # python -m cutcones.cli runs main() and exits with its code
    _, metric_json, _ = cli("family", "gen", "K", "5", "--metric", "d1")
    src = Path(cutcones.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "cutcones.cli", "paircut"],
        input=metric_json, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("command: paircut\nmode: closed-form\nn: 5\nmember: true\n")


def test_matrix_dump_square_n4(cli):
    code, out, _ = cli("matrix", "dump", "square", "--n", "4")
    assert code == 0
    assert out == (
        "0 1 1 1 1 0\n"
        "1 0 1 1 0 1\n"
        "1 1 0 0 1 1\n"
        "1 1 0 0 1 1\n"
        "1 0 1 1 0 1\n"
        "0 1 1 1 1 0\n"
    )


def test_matrix_dump_json_shapes(cli):
    code, out, _ = cli("matrix", "dump", "full", "--format", "json", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == 6 and doc["cols"] == 14
    assert len(doc["entries"]) == 6
    code, out, _ = cli("matrix", "dump", "proj-top", "--format", "json", "--n", "5")
    doc = json.loads(out)
    assert doc["rows"] == 10 and doc["entries"][0][0] == "1/10"


def test_matrix_dump_inverse_rejects_n4(cli):
    code, _, err = cli("matrix", "dump", "inverse", "--n", "4")
    assert code == 3 and err.startswith("error:")


def test_matrix_dump_incidence_rejects_n2(cli):
    code, _, err = cli("matrix", "dump", "incidence", "--n", "2")
    assert code == 3 and err.startswith("error:")


def test_matrix_dump_unknown_kind(cli):
    assert cli("matrix", "dump", "hadamard", "--n", "4")[0] == 3


# ---------------------------------------------------------------------------
# usage errors and global behavior


def test_unknown_subcommand(cli):
    assert cli("bogus")[0] == 3


def test_missing_required_argument(cli):
    assert cli("kernel", "basis")[0] == 3
    assert cli("verify-cert", "--metric", "-")[0] == 3


def test_help_exits_zero(cli):
    code, out, _ = cli("--help")
    assert code == 0
    assert out.startswith("usage:")


def test_missing_file_is_usage_error(cli, tmp_path):
    code, _, err = cli("validate", "--metric", str(tmp_path / "missing.json"))
    assert code == 3 and err.startswith("error:")


def test_malformed_json_is_usage_error(cli):
    code, _, err = cli("validate", stdin="{not json")
    assert code == 3 and err.startswith("error:")


def test_wrong_document_shape_is_usage_error(cli):
    code, _, err = cli("validate", stdin='{"n": 5, "d": [1, 2]}')
    assert code == 3 and err.startswith("error:")


def test_oversized_decimal_is_rejected_before_it_is_built(cli, write):
    # a million-digit integer would take about 0.3 s to build
    for token in ('1e1000000', '"1e1000000"'):
        path = write('{"n": 3, "d": [%s, 1, 1]}' % token)
        t0 = time.monotonic()
        code, _, err = cli("validate", "--metric", path)
        assert time.monotonic() - t0 < 0.05
        assert code == 3 and "exponent" in err


def test_deeply_nested_json_is_an_input_error(cli, write):
    path = write("[" * 200_000 + "]" * 200_000)
    code, out, err = cli("validate", "--metric", path)
    assert code == 3
    assert out == "" and err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,check,d",
    [
        ("cutcone", "_check_witness", graph_metric(path_graph(5))),
        ("cutcone", "_check_farkas", truncated_metric(family("B", 2, 3))),
        ("paircut", "_check_witness", Metric(5, cut_metric_vector(Cut.from_members(5, (1, 2))))),
        ("paircut", "_check_farkas", truncated_metric(family("B", 2, 3))),
        ("cutcone", None, graph_metric(family("K", 5))),
    ],
    ids=["witness", "farkas", "paircut-witness", "paircut-farkas", "sufficient"],
)
def test_failed_certificate_recheck_is_an_internal_error(
    cli, write, monkeypatch, command, check, d
):
    # a certificate that fails its re-check must never read as a verdict
    def fail(*args):
        raise RuntimeError("certificate fails its re-check")

    if check is None:
        raise_one_cut_trace(monkeypatch)
        code, out, err = cli(command, "sufficient", "--metric", write(d))
    else:
        monkeypatch.setattr(oracle, check, fail)
        code, out, err = cli(command, "exact", "--metric", write(d))
    assert code == EXIT_INTERNAL
    assert out == "" and "fails its re-check" in err


def test_consecutive_calls_share_no_state(cli, write):
    path = write(Metric(5, (F(1),) * 10))
    code, out, _ = cli("stats", "--format", "json", "--metric", path)
    assert code == 0 and json.loads(out)["command"] == "stats"
    code, out, _ = cli("stats", "--metric", path)
    assert code == 0 and out.startswith("command: stats\nn: 5\n")
    d = write(truncated_metric(family("B", 2, 3)))
    assert cli("paircut", "exact", "--max-n", "4", "--metric", d)[0] == 3
    code, out, _ = cli("paircut", "exact", "--metric", d)
    assert code == 1 and "member: false" in out.splitlines()


def test_format_flag_follows_the_subcommand(cli, write):
    path = write(Metric(5, (F(1),) * 10))
    code, after, _ = cli("stats", "--format", "json", "--metric", path)
    assert code == 0 and json.loads(after)["command"] == "stats"
    code, before, err = cli("--format", "json", "stats", "--metric", path)
    assert code == 3 and before == ""
    assert sum("error:" in line for line in err.splitlines()) == 1


# every option string of every command path; an option shared by several
# commands is declared once, so a refactor of the parser must keep this set
OPTION_SURFACE = {
    (): {"-h", "--help"},
    ("validate",): {"-h", "--help", "--format", "--metric", "--strict"},
    ("stats",): {"-h", "--help", "--format", "--metric"},
    ("paircut",): {"-h", "--help", "--format", "--metric", "--max-n", "--emit-farkas"},
    ("cutcone",): {
        "-h", "--help", "--format", "--metric", "--max-n", "--emit-farkas", "--emit-certificate",
    },
    ("kernel",): {"-h", "--help", "--format", "--max-n", "--n", "-o", "--output"},
    ("verify-cert",): {"-h", "--help", "--format", "--metric", "--cert"},
    ("embed",): {"-h", "--help"},
    ("embed", "l1"): {"-h", "--help", "--cert", "--metric", "-o", "--output"},
    ("embed", "linf-sig"): {"-h", "--help", "--graph", "-o", "--output"},
    ("sig",): {"-h", "--help"},
    ("sig", "build"): {"-h", "--help", "--metric", "-o", "--output"},
    ("sig", "verify"): {"-h", "--help", "--format", "--metric", "--graph"},
    ("sig", "star-obstruction"): {"-h", "--help", "--format", "--n", "--a"},
    ("family",): {"-h", "--help", "--metric", "-o", "--output"},
    ("matrix",): {"-h", "--help", "--format", "--max-n", "--n", "-o", "--output"},
}


def option_surface(parser, path=()):
    surface = {path: set()}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                surface.update(option_surface(child, path + (name,)))
        else:
            surface[path].update(action.option_strings)
    return surface


def test_every_command_keeps_its_option_set():
    assert option_surface(build_parser()) == OPTION_SURFACE


def assert_usage_error(code, out, err):
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


USAGE_ERRORS = {
    # the closed form has no size cap; it must not run at all
    "paircut-closed-form-max-n": (
        "paircut", "--max-n", "20", "--metric", "{non_member}", "--emit-farkas", "{farkas}",
    ),
    "cutcone-sufficient-emit-farkas": (
        "cutcone", "sufficient", "--metric", "{member}", "--emit-farkas", "{farkas}",
        "--emit-certificate", "{certificate}",
    ),
}


@pytest.mark.parametrize("name", list(USAGE_ERRORS))
def test_option_that_cannot_act_is_a_usage_error(cli, write, tmp_path, monkeypatch, name):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(paircut, "paircut_membership", no_work)
    monkeypatch.setattr(fullcut, "sufficient_condition", no_work)
    paths = {
        "non_member": write(truncated_metric(family("Q", 3))),
        "member": write(Metric(6, (F(1),) * 15)),
        "farkas": str(tmp_path / "farkas.json"),
        "certificate": str(tmp_path / "certificate.json"),
    }
    argv = [arg.format(**paths) for arg in USAGE_ERRORS[name]]
    assert_usage_error(*cli(*argv))
    assert not (tmp_path / "farkas.json").exists()
    assert not (tmp_path / "certificate.json").exists()


def test_paircut_max_n_is_taken_wherever_the_oracle_runs(cli, write):
    small = write(pair_cut_metric(4, ((1, 2), F(1))))
    assert cli("paircut", "--max-n", "4", "--metric", small)[0] == 0
    assert cli("paircut", "--max-n", "3", "--metric", small)[0] == 3
    large = write(truncated_metric(family("Q", 3)))
    assert cli("paircut", "exact", "--max-n", "8", "--metric", large)[0] == 1


@pytest.mark.parametrize("which", sorted(set(_MATRICES) - {"full"}))
def test_matrix_dump_max_n_caps_full_only(cli, tmp_path, which):
    out = tmp_path / "matrix.txt"
    assert_usage_error(*cli("matrix", "dump", which, "--n", "5", "--max-n", "5", "-o", str(out)))
    assert not out.exists()
    assert cli("matrix", "dump", which, "--n", "5")[0] == 0


def test_matrix_dump_full_takes_max_n(cli):
    capped = cli("matrix", "dump", "full", "--n", "5", "--max-n", "5")
    assert capped == cli("matrix", "dump", "full", "--n", "5")
    assert capped[0] == 0


# two inputs of one command that would both read stdin are rejected
# before either is read, naming both options


def test_verify_cert_certificate_and_metric_cannot_both_read_stdin(cli):
    cert = cio.dumps_json(cio.certificate_to_json(path_certificate()))
    for extra in ((), ("--metric", "-")):
        code, out, err = cli("verify-cert", "--cert", "-", *extra, stdin=cert)
        assert_usage_error(code, out, err)
        assert err == "error: --cert and --metric cannot both read stdin\n"


def test_sig_verify_metric_and_graph_cannot_both_read_stdin(cli, figure_eight):
    code, out, err = cli("sig", "verify", "--graph", "-", stdin=cio.dumps_graph(figure_eight))
    assert_usage_error(code, out, err)
    assert err == "error: --metric and --graph cannot both read stdin\n"


def test_embed_l1_certificate_and_metric_cannot_both_read_stdin(cli):
    cert = cio.dumps_json(cio.certificate_to_json(path_certificate()))
    code, out, err = cli("embed", "l1", "--cert", "-", "--metric", "-", stdin=cert)
    assert_usage_error(code, out, err)
    assert err == "error: --cert and --metric cannot both read stdin\n"
    # an omitted --metric means no check, not stdin
    code, out, _ = cli("embed", "l1", "--cert", "-", stdin=cert)
    assert code == 0 and load_points(out).dimension == 6


# ---------------------------------------------------------------------------
# every JSON document, on stdout or in a file, is json.dumps on one line


LAYOUT_COMMANDS = {
    "cutcone-exact-member": (
        "cutcone", "exact", "--format", "json", "--metric", "{member}",
        "--emit-certificate", "{out}",
    ),
    "cutcone-exact-non-member": (
        "cutcone", "exact", "--format", "json", "--metric", "{non_member}",
        "--emit-farkas", "{out}",
    ),
    "cutcone-sufficient-member": (
        "cutcone", "sufficient", "--format", "json", "--metric", "{complete}",
        "--emit-certificate", "{out}",
    ),
    "cutcone-sufficient-inconclusive": (
        "cutcone", "sufficient", "--format", "json", "--metric", "{non_member}",
    ),
    "verify-cert": ("verify-cert", "--format", "json", "--cert", "{cert}", "--metric", "{member}"),
    "paircut": ("paircut", "--format", "json", "--metric", "{non_member}"),
    "paircut-closed-form-farkas": (
        "paircut", "--format", "json", "--metric", "{non_member}", "--emit-farkas", "{out}",
    ),
    "paircut-exact": (
        "paircut", "exact", "--format", "json", "--metric", "{non_member}",
        "--emit-farkas", "{out}",
    ),
    "kernel-basis": ("kernel", "basis", "--n", "5", "--format", "json"),
    "matrix-dump": ("matrix", "dump", "proj-mid", "--n", "5", "--format", "json"),
    "embed-l1": ("embed", "l1", "--cert", "{cert}", "--metric", "{member}"),
    "embed-linf-sig": ("embed", "linf-sig", "--graph", "{graph}"),
    "sig-build": ("sig", "build", "--metric", "{member}"),
    "sig-verify": ("sig", "verify", "--format", "json", "--metric", "{member}", "--graph", "{graph}"),
    "sig-star-obstruction": (
        "sig", "star-obstruction", "--format", "json", "--n", "4", "--a", "1", "2", "1/2", "3",
    ),
    "family-gen-graph": ("family", "gen", "C", "5"),
    "family-gen-metric": ("family", "gen", "C", "5", "--metric", "d1"),
    "validate": ("validate", "--format", "json", "--metric", "{non_member}"),
    "stats": ("stats", "--format", "json", "--metric", "{member}"),
}


def assert_one_line_layout(text):
    assert text == json.dumps(json.loads(text)) + "\n"


@pytest.mark.parametrize("name", list(LAYOUT_COMMANDS))
def test_every_json_document_is_one_line(cli, write, tmp_path, name):
    paths = {
        "member": write(truncated_metric(path_graph(5))),
        "cert": write(path_certificate()),
        "non_member": write(truncated_metric(family("B", 2, 3))),
        "complete": write(graph_metric(family("K", 5))),
        "graph": write(family("C", 5)),
        "out": str(tmp_path / "emitted.json"),
    }
    argv = [arg.format(**paths) for arg in LAYOUT_COMMANDS[name]]
    code, out, err = cli(*argv)
    assert code in (0, 1, 2), err
    assert_one_line_layout(out)
    if "{out}" in LAYOUT_COMMANDS[name]:
        assert_one_line_layout((tmp_path / "emitted.json").read_text())


# ---------------------------------------------------------------------------
# text mode renders the very document JSON mode prints


DRIFT_COMMANDS = {
    "validate": ("validate", "--strict", "--metric", "{non_member}"),
    "stats": ("stats", "--metric", "{member}"),
    "paircut-closed-form": ("paircut", "--metric", "{cube}"),
    "paircut-exact": ("paircut", "exact", "--metric", "{non_member}"),
    "cutcone-sufficient-member": ("cutcone", "sufficient", "--metric", "{complete}"),
    "cutcone-sufficient-inconclusive": ("cutcone", "sufficient", "--metric", "{cube}"),
    "cutcone-exact-member": ("cutcone", "exact", "--metric", "{member}"),
    "cutcone-exact-non-member": ("cutcone", "exact", "--metric", "{non_member}"),
    "verify-cert-valid": ("verify-cert", "--cert", "{cert}", "--metric", "{member}"),
    "verify-cert-invalid": ("verify-cert", "--cert", "{cert}", "--metric", "{non_member}"),
    "sig-verify": ("sig", "verify", "--metric", "{member}", "--graph", "{graph}"),
    "sig-star-obstruction": ("sig", "star-obstruction", "--n", "4", "--a", "1", "2", "1/2", "3"),
    "kernel-basis": ("kernel", "basis", "--n", "5"),
}


@pytest.mark.parametrize("name", list(DRIFT_COMMANDS))
def test_text_output_renders_the_json_document(cli, write, name):
    paths = {
        "member": write(truncated_metric(path_graph(5))),
        "cert": write(path_certificate()),
        "non_member": write(truncated_metric(family("B", 2, 3))),
        "complete": write(graph_metric(family("K", 5))),
        "cube": write(truncated_metric(family("Q", 3))),
        "graph": write(family("C", 5)),
    }
    argv = [arg.format(**paths) for arg in DRIFT_COMMANDS[name]]
    code, text, err = cli(*argv)
    assert code in (0, 1, 2), err
    json_code, out, _ = cli(*argv, "--format", "json")
    assert json_code == code and text == cio.dumps_text(json.loads(out))


# ---------------------------------------------------------------------------
# exit-code matrix across the family catalog


FAMILY_CASES = [
    ("K", (5,)), ("K", (6,)), ("K", (7,)), ("K", (8,)),
    ("C", (5,)), ("C", (6,)), ("C", (7,)), ("C", (8,)),
    ("L", (5,)), ("L", (6,)), ("L", (7,)), ("L", (8,)),
    ("Q", (3,)), ("B", (2, 3)), ("CP", (3,)), ("S", (5,)),
]

CASE_IDS = [f"{name}{'x'.join(map(str, params))}" for name, params in FAMILY_CASES]


def family_metric(name, params, which):
    g = family(name, *params)
    return truncated_metric(g) if which == "d0" else graph_metric(g)


@pytest.mark.parametrize("which", ["d0", "d1"])
@pytest.mark.parametrize("name,params", FAMILY_CASES, ids=CASE_IDS)
def test_paircut_exit_codes_match_library(cli, write, name, params, which):
    d = family_metric(name, params, which)
    expected = 0 if paircut_membership(d).member else 1
    assert cli("paircut", "--metric", write(d))[0] == expected


@pytest.mark.parametrize("which", ["d0", "d1"])
@pytest.mark.parametrize("name,params", FAMILY_CASES, ids=CASE_IDS)
def test_cutcone_sufficient_exit_codes_match_library(cli, write, name, params, which):
    d = family_metric(name, params, which)
    expected = 0 if sufficient_condition(d).status == "member" else 2
    assert cli("cutcone", "sufficient", "--metric", write(d))[0] == expected
