"""Seeded instance lists for the three workloads.

Every input is made here, from the seed, by the benchmark's own code
(not by cutcones' generators, so a change to those cannot change a
workload) and written as JSON into the run's work directory.  Each
operation is one `cutcones` command line plus the independent check its
output must pass.  Instance classes are chosen so that every expected
verdict is known by construction, which keeps the verdict mix, and with
it the work per pass, the same for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import lcm
from pathlib import Path
from typing import Any, Callable, Sequence

import checks
from checks import pairs

Q = Fraction

WORKLOADS = ("cutcone-exact", "cut-enumeration", "paircut-sig")


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv and the check its (exit code, stdout) must pass."""

    id: str
    argv: tuple[str, ...]
    check: Callable[[int, str], None]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    probe: tuple[tuple[str, ...], ...]  # one small call per command, for setup_s


def tok(x: Fraction) -> int | str:
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Inputs:
    """Writes the JSON inputs of one run into its work directory."""

    def __init__(self, workdir: Path) -> None:
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def _write(self, stem: str, doc: dict[str, Any]) -> str:
        self.count += 1
        path = self.dir / f"{self.count:03d}-{stem}.json"
        path.write_text(json.dumps(doc) + "\n")
        return str(path)

    def metric(self, stem: str, n: int, d: Sequence[Fraction]) -> str:
        return self._write(stem, {"n": n, "d": [tok(x) for x in d]})

    def graph(self, stem: str, n: int, edges: set[tuple[int, int]]) -> str:
        return self._write(stem, {"n": n, "edges": [list(e) for e in sorted(edges)]})

    def certificate(self, stem: str, n: int, cuts: Sequence[tuple[int, Fraction]]) -> str:
        items = [
            {"members": [v + 1 for v in range(n) if mask >> v & 1], "weight": tok(w)}
            for mask, w in cuts
        ]
        return self._write(stem, {"n": n, "cuts": items})


# ---------------------------------------------------------------------------
# metrics with known membership


def line_metric(n: int) -> list[Fraction]:
    """Path graph shortest-path metric |i - j|: an l1 (line) metric."""
    return [Q(j - i) for i, j in pairs(n)]


def line_certificate(n: int) -> list[tuple[int, Fraction]]:
    return [((1 << k) - 1, Q(1)) for k in range(1, n)]


def padded_cube(n: int) -> list[Fraction]:
    """Truncated metric of the 3-cube on vertices 1..8 plus isolated
    vertices up to n: a known non-member of the cut cone."""
    def adjacent(i: int, j: int) -> bool:
        return j < 8 and (i ^ j).bit_count() == 1
    return [Q(1) if adjacent(i, j) else Q(2) for i, j in pairs(n)]


def l1_points(rng: random.Random, n: int, dim: int, high: int, den: int = 4) -> list[list[Fraction]]:
    return [[Q(rng.randint(0, high * den), den) for _ in range(dim)] for _ in range(n)]


def l1_metric(pts: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    return [sum(abs(a - b) for a, b in zip(pts[i], pts[j])) for i, j in pairs(len(pts))]


def l1_certificate(pts: Sequence[Sequence[Fraction]]) -> list[tuple[int, Fraction]]:
    """One threshold cut per coordinate gap: {i : x_i >= b}, weight b - a."""
    cuts = []
    for k in range(len(pts[0])):
        values = sorted({p[k] for p in pts})
        for a, b in zip(values, values[1:]):
            mask = sum(1 << i for i, p in enumerate(pts) if p[k] >= b)
            cuts.append((mask, b - a))
    return cuts


def cut_combination(rng: random.Random, n: int) -> list[tuple[int, Fraction]]:
    """Weights p/4, p in 0..12, on every cut holding vertex 1 (zeros dropped)."""
    cuts = []
    for mask in range(1, (1 << n) - 1, 2):
        w = Q(rng.randint(0, 12), 4)
        if w:
            cuts.append((mask, w))
    return cuts


def planted_k23(rng: random.Random, n: int, c: int = 4, den: int = 4) -> list[Fraction]:
    """Random entries in [c, 2c] (always a metric) with the path metric of
    K_{2,3}, scaled by c, on five random vertices.  K_{2,3} violates the
    pentagonal inequality, so the metric is outside the cut cone."""
    d = {p: Q(rng.randint(c * den, 2 * c * den), den) for p in pairs(n)}
    five = rng.sample(range(n), 5)
    side = set(five[:3])
    for i, j in combinations(sorted(five), 2):
        d[i, j] = Q(2 * c if (i in side) == (j in side) else c)
    return [d[p] for p in pairs(n)]


def padded_k23_graph(rng: random.Random, n: int, k: int) -> list[Fraction]:
    """Truncated metric of a random graph on k vertices holding an induced
    K_{2,3}, padded with isolated vertices to n: a non-member, for the
    same reason as planted_k23."""
    order = list(range(k))
    rng.shuffle(order)
    three, two = set(order[:3]), set(order[3:5])
    planted = three | two
    edges = set()
    for i, j in combinations(range(k), 2):
        if i in planted and j in planted:
            if (i in three) != (j in three):
                edges.add((i, j))
        elif rng.random() < 0.5:
            edges.add((i, j))
    return [Q(1) if (i, j) in edges else Q(2) for i, j in pairs(n)]


def near_uniform(rng: random.Random, n: int) -> list[Fraction]:
    """1000 + e with 0 <= e <= 6: since 1000 > m * 6, every slack of the
    sufficient condition is positive, so it certifies membership."""
    return [Q(4000 + rng.randint(0, 24), 4) for _ in pairs(n)]


def planted_near_vertex(rng: random.Random, n: int) -> list[Fraction]:
    """Entries in [4, 8] with vertex 1 at distance 4 from all others and two
    entries at 8: then Tr > (m+1) * 4, so the singleton cut {1} has
    negative slack and the sufficient condition is inconclusive."""
    d = [Q(4) if i == 0 else Q(rng.randint(16, 32), 4) for i, j in pairs(n)]
    for p in rng.sample(range(n - 1, len(d)), 2):
        d[p] = Q(8)
    return d


def candidate_certificate(n: int, d: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """Minimum-norm solution of S w = d on every nontrivial cut:
    w_C = (s_C - |C|(n-|C|) Tr/(m+1)) / 2^(n-2)."""
    den = lcm(*(x.denominator for x in d))
    traces = checks.cut_traces(n, [int(x * den) for x in d])
    m = len(pairs(n))
    trace = sum(d)
    out = []
    for mask in checks.graded_cuts(n):
        k = mask.bit_count()
        w = (Q(traces[mask], den) - trace * k * (n - k) / (m + 1)) / (1 << (n - 2))
        if w:
            out.append((mask, w))
    return out


def first_split_pair(n: int, mask: int) -> tuple[int, int]:
    """First pair (1-based, lexicographic) that the cut separates."""
    return next((i + 1, j + 1) for i, j in pairs(n) if checks.separates(mask, i, j))


# ---------------------------------------------------------------------------
# graphs for the sphere-of-influence workload


def family_graph(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """A cycle, path, complete bipartite or cocktail-party graph on n
    (even) vertices, relabelled by a random permutation; 1-based edges."""
    name = rng.choice(("cycle", "path", "bipartite", "cocktail"))
    if name == "cycle":
        base = [(i, (i + 1) % n) for i in range(n)]
    elif name == "path":
        base = [(i, i + 1) for i in range(n - 1)]
    elif name == "bipartite":
        a = rng.randint(2, n // 2)
        base = [(i, j) for i in range(a) for j in range(a, n)]
    else:
        base = [(i, j) for i, j in pairs(n) if j - i != n // 2]
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return {(min(label[i], label[j]), max(label[i], label[j])) for i, j in base}


def graph_metric(n: int, edges: set[tuple[int, int]], truncated: bool) -> list[Fraction]:
    """Truncated (1 on edges, 2 elsewhere) or shortest-path metric."""
    if truncated:
        return [Q(1) if (i + 1, j + 1) in edges else Q(2) for i, j in pairs(n)]
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a - 1].append(b - 1)
        adj[b - 1].append(a - 1)
    dist = []
    for src in range(n):
        seen = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen[w] = seen[v] + 1
                        nxt.append(w)
            frontier = nxt
        dist.append(seen)
    return [Q(dist[i][j]) for i, j in pairs(n)]


def strict_l1_metric(rng: random.Random, n: int) -> list[Fraction]:
    """l1 distances of n distinct random points in [0, 20]^2 (quarters)."""
    pts: set[tuple[Fraction, ...]] = set()
    while len(pts) < n:
        pts.add(tuple(l1_points(rng, 1, 2, 20)[0]))
    return l1_metric(sorted(pts))


def paircut_combination(rng: random.Random, n: int) -> list[Fraction]:
    """Positive combination of pair-cut metrics: a pair-cut cone member."""
    w = [Q(rng.randint(1, 12), 4) for _ in pairs(n)]
    return checks.paircut_rebuild(n, w)


# ---------------------------------------------------------------------------
# the workloads


def _exact_ops(io: Inputs, rng: random.Random) -> list[Op]:
    ops: list[Op] = []

    def member(tag: str, n: int, d: list[Fraction], cert: list[tuple[int, Fraction]]) -> None:
        mpath = io.metric(tag, n, d)
        cpath = io.certificate(tag + "-cert", n, cert)
        ops.append(Op(f"{tag}-exact", ("cutcone", "exact", "--metric", mpath, "--format", "json"),
                      partial(checks.cutcone_exact, n=n, d=d, member=True)))
        ops.append(Op(f"{tag}-embed", ("embed", "l1", "--cert", cpath, "--metric", mpath),
                      partial(checks.l1_points, n=n, d=d)))

    def nonmember(tag: str, n: int, d: list[Fraction]) -> None:
        mpath = io.metric(tag, n, d)
        ops.append(Op(f"{tag}-exact", ("cutcone", "exact", "--metric", mpath, "--format", "json"),
                      partial(checks.cutcone_exact, n=n, d=d, member=False)))

    def points(tag: str, n: int, dim: int) -> None:
        pts = l1_points(rng, n, dim, 8)
        member(tag, n, l1_metric(pts), l1_certificate(pts))

    def combo(tag: str, n: int) -> None:
        cuts = cut_combination(rng, n)
        member(tag, n, checks.rebuild(n, cuts), cuts)

    # The n = 7 non-members (about 0.02 s a call) and the embeds lie below
    # the n = 8 cut combinations (about 0.05 s), the rest above; the two
    # sides hold 20 calls each, so the median call is an n = 8 cut
    # combination, whose work varies little from seed to seed.
    for k in range(6):
        nonmember(f"n7-k23graph{k}", 7, padded_k23_graph(rng, 7, 7))
    for k in range(3):
        nonmember(f"n7-k23semi{k}", 7, planted_k23(rng, 7))
    for k in range(8):
        combo(f"n8-cutcombo{k}", 8)
    for k in range(6):
        nonmember(f"n8-k23graph{k}", 8, padded_k23_graph(rng, 8, 7))
    for k in range(2):
        nonmember(f"n8-k23semi{k}", 8, planted_k23(rng, 8))
    for k in range(2):
        combo(f"n9-cutcombo{k}", 9)
        points(f"n9-l1points{k}", 9, 2)
        nonmember(f"n9-k23graph{k}", 9, padded_k23_graph(rng, 9, 8))
    member("n10-path", 10, line_metric(10), line_certificate(10))
    for k in range(2):
        combo(f"n10-cutcombo{k}", 10)
    nonmember("n10-paddedcube", 10, padded_cube(10))
    return ops


def _enumeration_ops(io: Inputs, rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    # Two n = 12 metrics put the median call among their verify-cert calls.
    for k, n in enumerate((11, 12, 12, 13)):
        d = near_uniform(rng, n)
        mpath = io.metric(f"n{n}-near{k}", n, d)
        ops.append(Op(f"n{n}-near{k}-sufficient",
                      ("cutcone", "sufficient", "--metric", mpath, "--format", "json"),
                      partial(checks.sufficient, n=n, d=d, member=True)))
        cert = candidate_certificate(n, d)
        cpath = io.certificate(f"n{n}-near{k}-cert", n, cert)
        ops.append(Op(f"n{n}-near{k}-verify", ("verify-cert", "--cert", cpath, "--metric", mpath, "--format", "json"),
                      partial(checks.verify_cert, n=n, mismatch=None)))
        i = rng.randrange(len(cert))
        bad = list(cert)
        bad[i] = (bad[i][0], bad[i][1] + Q(1, 7))
        bpath = io.certificate(f"n{n}-near{k}-badcert", n, bad)
        ops.append(Op(f"n{n}-near{k}-verify-bad", ("verify-cert", "--cert", bpath, "--metric", mpath, "--format", "json"),
                      partial(checks.verify_cert, n=n, mismatch=first_split_pair(n, bad[i][0]))))
    for n in (11, 12, 13):
        d = planted_near_vertex(rng, n)
        mpath = io.metric(f"n{n}-far", n, d)
        ops.append(Op(f"n{n}-far-sufficient",
                      ("cutcone", "sufficient", "--metric", mpath, "--format", "json"),
                      partial(checks.sufficient, n=n, d=d, member=False)))
    for n in (8, 9):
        ops.append(Op(f"n{n}-kernel", ("kernel", "basis", "--n", str(n), "--format", "json"),
                      partial(checks.kernel_basis, n=n)))
    return ops


def _sig_ops(io: Inputs, rng: random.Random) -> list[Op]:
    ops: list[Op] = []

    def common(tag: str, n: int, d: list[Fraction], graph: set[tuple[int, int]]) -> None:
        mpath = io.metric(tag, n, d)
        gpath = io.graph(tag + "-graph", n, graph)
        ops.append(Op(f"{tag}-validate", ("validate", "--strict", "--metric", mpath, "--format", "json"),
                      partial(checks.validate, n=n, d=d)))
        ops.append(Op(f"{tag}-paircut", ("paircut", "--metric", mpath, "--format", "json"),
                      partial(checks.paircut, n=n, d=d)))
        ops.append(Op(f"{tag}-sigbuild", ("sig", "build", "--metric", mpath),
                      partial(checks.sig_build, n=n, d=d)))
        ops.append(Op(f"{tag}-sigverify",
                      ("sig", "verify", "--metric", mpath, "--graph", gpath, "--format", "json"),
                      partial(checks.sig_verify, n=n, d=d, graph=graph)))

    for n in (20, 30, 40, 50, 60):
        edges = family_graph(rng, n)
        common(f"n{n}-family", n, graph_metric(n, edges, rng.random() < 0.5), edges)
        d = strict_l1_metric(rng, n)
        own = checks.sig_edges(n, d)
        dropped = own - {sorted(own)[rng.randrange(len(own))]}
        common(f"n{n}-l1points", n, d, dropped)
    for leaves in (20, 40, 60):
        lengths = [Q(rng.randint(1, 40), 4) for _ in range(leaves)]
        ops.append(Op(f"star{leaves}",
                      ("sig", "star-obstruction", "--n", str(leaves), "--a",
                       *(str(tok(x)) for x in lengths), "--format", "json"),
                      partial(checks.star_obstruction, lengths=lengths)))
    exact = [
        ("n10-paircutcombo", 10, paircut_combination(rng, 10)),
        ("n11-star", 11, checks.star_metric([Q(rng.randint(1, 40), 4) for _ in range(10)])),
        ("n12-l1points", 12, strict_l1_metric(rng, 12)),
    ]
    for tag, n, d in exact:
        mpath = io.metric(tag, n, d)
        ops.append(Op(f"{tag}-paircut-exact", ("paircut", "exact", "--metric", mpath, "--format", "json"),
                      partial(checks.paircut_exact, n=n, d=d)))
    return ops


def _probe(io: Inputs, workload: str) -> tuple[tuple[str, ...], ...]:
    """One small call of each command the workload uses."""
    n = 5
    m = io.metric("probe", n, line_metric(n))
    if workload == "cutcone-exact":
        c = io.certificate("probe-cert", n, line_certificate(n))
        return (("cutcone", "exact", "--metric", m, "--format", "json"),
                ("embed", "l1", "--cert", c, "--metric", m))
    if workload == "cut-enumeration":
        c = io.certificate("probe-cert", n, line_certificate(n))
        return (("cutcone", "sufficient", "--metric", m, "--format", "json"),
                ("verify-cert", "--cert", c, "--metric", m, "--format", "json"),
                ("kernel", "basis", "--n", str(n), "--format", "json"))
    g = io.graph("probe-graph", n, {(i, i + 1) for i in range(1, n)})
    return (("validate", "--strict", "--metric", m, "--format", "json"),
            ("paircut", "--metric", m, "--format", "json"),
            ("sig", "build", "--metric", m),
            ("sig", "verify", "--metric", m, "--graph", g, "--format", "json"),
            ("sig", "star-obstruction", "--n", "4", "--a", "1", "2", "3", "4", "--format", "json"),
            ("paircut", "exact", "--metric", m, "--format", "json"))


_OP_LISTS = {
    "cutcone-exact": _exact_ops,
    "cut-enumeration": _enumeration_ops,
    "paircut-sig": _sig_ops,
}


def build(workload: str, seed: int, workdir: Path) -> Workload:
    """The fixed, seeded operation list of one workload; writes its inputs."""
    io = Inputs(workdir)
    rng = random.Random(f"{workload}/{seed}")
    ops = _OP_LISTS[workload](io, rng)
    return Workload(ops=tuple(ops), probe=_probe(io, workload))
