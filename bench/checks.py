"""Independent checks of cutcones outputs.

Nothing here imports cutcones.  Every check re-derives what the output
claims from the benchmark's own copy of the input, in exact rational
arithmetic, so a fault in the program cannot hide behind the same fault
in its checker.  A check returns nothing when the output is right and
raises CheckFailed when it is not.

Vertices are 0-based here; the program's JSON uses 1-based vertex lists
and lexicographic pair order, which `pairs` reproduces.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Any, Iterable, Sequence

Q = Fraction


class CheckFailed(Exception):
    """An output that contradicts the input it was computed from."""


def need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@lru_cache(maxsize=None)
def pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs (0-based) in the program's lexicographic order."""
    return tuple(combinations(range(n), 2))


def rat(token: Any) -> Fraction:
    """A rational as the program writes it: an int or a "p/q" string."""
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise CheckFailed(f"not a rational token: {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise CheckFailed(f"not a rational token: {token!r}") from exc


def parse(out: str) -> dict[str, Any]:
    try:
        doc = json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc
    need(isinstance(doc, dict), "output is not a JSON object")
    return doc


def verdict_code(code: int, want: int) -> None:
    need(code == want, f"exit code {code}, expected {want}")


def mask_of(members: Iterable[int], n: int) -> int:
    mask = 0
    for v in members:
        need(isinstance(v, int) and 1 <= v <= n, f"vertex {v!r} out of range 1..{n}")
        mask |= 1 << (v - 1)
    return mask


def separates(mask: int, i: int, j: int) -> bool:
    return bool((mask >> i ^ mask >> j) & 1)


def cut_traces(n: int, w: Sequence[Any]) -> list[Any]:
    """t[mask] = sum of w over the pairs the cut `mask` separates, for all
    2^n masks, by a subset recursion: adding the lowest vertex v of a
    mask to the rest splits v from the vertices outside and joins it to
    those inside, so t[mask] = t[rest] + star(v) - 2 w(v, rest).
    """
    mat = [[0] * n for _ in range(n)]
    for (i, j), x in zip(pairs(n), w):
        mat[i][j] = mat[j][i] = x
    star = [sum(row) for row in mat]
    full = 1 << n
    t = [0] * full
    inside = [[0] * full for _ in range(n)]  # inside[v][mask] = w(v, mask)
    for mask in range(1, full):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        for u in range(n):
            inside[u][mask] = inside[u][rest] + mat[u][v]
        t[mask] = t[rest] + star[v] - 2 * inside[v][rest]
    return t


def rebuild(n: int, weighted_masks: Iterable[tuple[int, Fraction]]) -> list[Fraction]:
    """Pair-indexed sum of weight * cut metric."""
    total = [Q(0)] * len(pairs(n))
    for mask, w in weighted_masks:
        for p, (i, j) in enumerate(pairs(n)):
            if separates(mask, i, j):
                total[p] += w
    return total


def graded_cuts(n: int) -> list[int]:
    """Nontrivial cuts as masks, by size then lexicographic (the
    program's enumerate_cuts order)."""
    return [
        sum(1 << v for v in sub)
        for size in range(1, n)
        for sub in combinations(range(n), size)
    ]


# ---------------------------------------------------------------------------
# cut cone


def cut_decomposition(n: int, cuts: Any, d: Sequence[Fraction]) -> None:
    """Certificate weights are >= 0 and rebuild d exactly from the masks."""
    need(isinstance(cuts, list) and cuts, "certificate has no cuts")
    terms = []
    for item in cuts:
        need(isinstance(item, dict), f"certificate entry {item!r} is not an object")
        if "members" in item:
            mask = mask_of(item["members"], n)
        else:
            mask = item.get("mask")
            need(isinstance(mask, int), f"certificate entry {item!r} has no cut")
        need(0 < mask < (1 << n) - 1, f"trivial cut {mask:#x} in certificate")
        w = rat(item.get("weight"))
        need(w >= 0, f"negative weight {w} on cut {mask:#x}")
        terms.append((mask, w))
    got = rebuild(n, terms)
    for p, (a, b) in enumerate(zip(got, d)):
        need(a == b, f"certificate rebuilds {a} at pair {pairs(n)[p]}, metric has {b}")


def farkas(n: int, y: Sequence[Fraction], d: Sequence[Fraction]) -> None:
    """y.delta(S) <= 0 on all 2^(n-1)-1 cuts and y.d > 0."""
    need(len(y) == len(d), f"Farkas vector has {len(y)} entries, metric {len(d)}")
    need(sum(a * b for a, b in zip(y, d)) > 0, "Farkas vector is not positive on d")
    traces = cut_traces(n, y)
    full = (1 << n) - 1
    for mask in range(1, full, 2):  # one side of each cut: the side holding vertex 1
        need(traces[mask] <= 0, f"Farkas vector is positive on cut {mask:#x}")


def cutcone_exact(code: int, out: str, *, n: int, d: Sequence[Fraction], member: bool) -> None:
    doc = parse(out)
    need(doc.get("member") is member, f"verdict member={doc.get('member')}, expected {member}")
    verdict_code(code, 0 if member else 1)
    if member:
        cut_decomposition(n, doc.get("certificate", {}).get("cuts"), d)
    else:
        y = doc.get("farkas")
        need(isinstance(y, list), "non-member without a Farkas vector")
        farkas(n, [rat(x) for x in y], d)


def l1_points(code: int, out: str, *, n: int, d: Sequence[Fraction]) -> None:
    """The embedded points give d under the l1 norm."""
    verdict_code(code, 0)
    doc = parse(out)
    need(doc.get("norm") == "l1", f"norm {doc.get('norm')!r}, expected l1")
    pts = [[rat(x) for x in p] for p in doc.get("points", [])]
    need(len(pts) == n, f"{len(pts)} points for a metric on {n} vertices")
    for (i, j), want in zip(pairs(n), d):
        got = sum(abs(a - b) for a, b in zip(pts[i], pts[j]))
        need(got == want, f"l1 distance {got} at pair {(i, j)}, metric has {want}")


# ---------------------------------------------------------------------------
# the sufficient condition and the kernel


def sufficient(code: int, out: str, *, n: int, d: Sequence[Fraction], member: bool) -> None:
    """Member: the certificate rebuilds d.  Inconclusive: every reported
    failing cut has slack s_C - |C|(n-|C|) Tr/(m+1) < 0, recomputed."""
    doc = parse(out)
    want = "member" if member else "inconclusive"
    need(doc.get("status") == want, f"status {doc.get('status')!r}, expected {want}")
    verdict_code(code, 0 if member else 2)
    failing = doc.get("failing_cuts")
    need(isinstance(failing, list), "no failing_cuts list")
    if member:
        need(not failing, "member with failing cuts")
        cut_decomposition(n, doc.get("certificate", {}).get("cuts"), d)
        return
    need(bool(failing), "inconclusive without a failing cut")
    m = len(pairs(n))
    trace = sum(d)
    for members in failing:
        mask = mask_of(members, n)
        k = mask.bit_count()
        s = sum(x for (i, j), x in zip(pairs(n), d) if separates(mask, i, j))
        slack = s - Q(trace * k * (n - k), m + 1)
        need(slack < 0, f"failing cut {members} has slack {slack} >= 0")


def verify_cert(code: int, out: str, *, n: int, mismatch: tuple[int, int] | None) -> None:
    """verify-cert accepts a valid certificate; on one whose weight on a
    single cut was perturbed it reports the first pair that cut splits."""
    doc = parse(out)
    valid = mismatch is None
    need(doc.get("valid") is valid, f"valid={doc.get('valid')}, expected {valid}")
    verdict_code(code, 0 if valid else 1)
    if not valid:
        got = doc.get("mismatch") or {}
        need((got.get("i"), got.get("j")) == mismatch,
             f"first mismatch at {got}, expected pair {mismatch}")


# Largest n whose kernel basis also gets the rank check (about 1 s at n = 8).
RANK_CHECK_MAX_N = 8
PRIME = (1 << 61) - 1


def kernel_basis(code: int, out: str, *, n: int) -> None:
    """Dimension 2^n - 2 - n(n-1)/2, distinct labels and vectors, and the
    cut matrix annihilates every vector (evaluated on masks in graded
    order).  For n <= RANK_CHECK_MAX_N the vectors must also have full
    rank modulo a large prime, which proves them independent over Q."""
    verdict_code(code, 0)
    doc = parse(out)
    dim = (1 << n) - 2 - len(pairs(n))
    vectors = doc.get("vectors")
    need(isinstance(vectors, list), "no vectors")
    need(doc.get("dimension") == dim == len(vectors),
         f"dimension {doc.get('dimension')} with {len(vectors)} vectors, expected {dim}")
    labels = [vec.get("label") for vec in vectors]
    need(len(set(labels)) == len(labels), "repeated vector labels")
    masks = graded_cuts(n)
    rows: list[tuple[Fraction, ...]] = []
    for vec in vectors:
        entries = vec.get("entries")
        need(isinstance(entries, list) and len(entries) == len(masks),
             f"{vec.get('label')}: {len(entries or [])} entries, expected {len(masks)}")
        row = tuple(rat(tok) for tok in entries)
        image = [Q(0)] * len(pairs(n))
        for mask, c in zip(masks, row):
            if not c:
                continue
            inside = [v for v in range(n) if mask >> v & 1]
            outside = [v for v in range(n) if not mask >> v & 1]
            for i in inside:
                for j in outside:
                    image[_pair_index(n, min(i, j), max(i, j))] += c
        need(any(row), f"{vec.get('label')} is the zero vector")
        need(not any(image), f"{vec.get('label')} is not in the kernel")
        rows.append(row)
    need(len(set(rows)) == len(rows), "repeated vectors")
    if n <= RANK_CHECK_MAX_N:
        need(rank_mod_prime(rows) == len(rows), "the vectors are linearly dependent")


def rank_mod_prime(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of rational rows over GF(PRIME), a lower bound on their rank
    over Q (a primitive integer dependency stays nonzero mod PRIME)."""
    def residue(x: Fraction) -> int:
        need(x.denominator % PRIME != 0, f"denominator {x.denominator} divisible by the prime")
        return x.numerator * pow(x.denominator, -1, PRIME) % PRIME

    work = [[residue(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((k for k in range(rank, len(work)) if work[k][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, PRIME)
        top = work[rank] = [x * inv % PRIME for x in work[rank]]
        for k in range(rank + 1, len(work)):
            f = work[k][col]
            if f:
                work[k] = [(a - f * b) % PRIME for a, b in zip(work[k], top)]
        rank += 1
    return rank


def _pair_index(n: int, i: int, j: int) -> int:
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


# ---------------------------------------------------------------------------
# pair-cut cone and sphere-of-influence graphs


def paircut_weights(n: int, d: Sequence[Fraction]) -> list[Fraction]:
    """Closed-form weights w(i,j) = -d/2 - Tr/((n-2)(n-4)) + (s_i+s_j)/(2(n-4))."""
    star = [Q(0)] * n
    for (i, j), x in zip(pairs(n), d):
        star[i] += x
        star[j] += x
    trace = sum(d, Q(0))
    return [
        -x / 2 - trace / ((n - 2) * (n - 4)) + (star[i] + star[j]) / (2 * (n - 4))
        for (i, j), x in zip(pairs(n), d)
    ]


def paircut_rebuild(n: int, w: Sequence[Fraction]) -> list[Fraction]:
    """Sum of w(i,j) * delta({i,j}): the pair cut {a,b} splits pair {i,j}
    iff exactly one of i, j is in {a,b}, so the value at {i,j} is
    W_i + W_j - 2 w(i,j) with W_v the weight on pair cuts holding v."""
    total = [Q(0)] * n
    for (i, j), x in zip(pairs(n), w):
        total[i] += x
        total[j] += x
    return [total[i] + total[j] - 2 * x for (i, j), x in zip(pairs(n), w)]


def paircut(code: int, out: str, *, n: int, d: Sequence[Fraction]) -> None:
    """The closed-form weights rebuild d, and member <=> all weights >= 0.
    Since the pair-cut matrix is invertible for n >= 5, this is a proof."""
    doc = parse(out)
    w = [rat(x) for x in doc.get("weights", [])]
    need(len(w) == len(d), f"{len(w)} weights for {len(d)} pairs")
    need(paircut_rebuild(n, w) == list(d), "pair-cut weights do not rebuild d")
    member = all(x >= 0 for x in w)
    need(doc.get("member") is member, f"member={doc.get('member')} but weights say {member}")
    verdict_code(code, 0 if member else 1)
    got = {(v["i"], v["j"]): rat(v["slack"]) for v in doc.get("violations", [])}
    want = {(i + 1, j + 1): 2 * (n - 4) * x for (i, j), x in zip(pairs(n), w) if x < 0}
    need(got == want, "violated pairs or slacks disagree with the weights")


def paircut_exact(code: int, out: str, *, n: int, d: Sequence[Fraction]) -> None:
    """The LP verdict matches the closed form; on members the witness is
    the closed-form weights, on non-members the Farkas vector refutes."""
    doc = parse(out)
    w = paircut_weights(n, d)
    member = all(x >= 0 for x in w)
    need(doc.get("member") is member, f"member={doc.get('member')}, closed form says {member}")
    verdict_code(code, 0 if member else 1)
    if member:
        need([rat(x) for x in doc.get("weights", [])] == w, "witness differs from the closed form")
        return
    y = [rat(x) for x in doc.get("farkas", [])]
    need(len(y) == len(d), "Farkas vector has the wrong length")
    need(sum(a * b for a, b in zip(y, d)) > 0, "Farkas vector is not positive on d")
    pair_cut_values = paircut_rebuild(n, y)  # y . delta({a,b}) uses the same sums
    need(all(v <= 0 for v in pair_cut_values), "Farkas vector is positive on a pair cut")


def validate(code: int, out: str, *, n: int, d: Sequence[Fraction]) -> None:
    """Strict validation: the reported violations are exactly the
    recomputed ones."""
    doc = parse(out)
    dist = _matrix(n, d)
    triangles = {
        (i + 1, j + 1, k + 1): dist[i][k] + dist[k][j] - dist[i][j]
        for i, j in pairs(n)
        for k in range(n)
        if k not in (i, j) and dist[i][k] + dist[k][j] < dist[i][j]
    }
    got = {(t["i"], t["j"], t["k"]): rat(t["slack"]) for t in doc.get("triangle_violations", [])}
    need(got == triangles, f"{len(got)} triangle violations reported, {len(triangles)} exist")
    bad = [x for x in d if x <= 0]
    valid = not triangles and not bad
    need(doc.get("valid") is valid, f"valid={doc.get('valid')}, expected {valid}")
    verdict_code(code, 0 if valid else 1)


def _matrix(n: int, d: Sequence[Fraction]) -> list[list[Fraction]]:
    dist = [[Q(0)] * n for _ in range(n)]
    for (i, j), x in zip(pairs(n), d):
        dist[i][j] = dist[j][i] = x
    return dist


def sig_radii(n: int, d: Sequence[Fraction]) -> list[Fraction]:
    dist = _matrix(n, d)
    return [min(dist[i][j] for j in range(n) if j != i) for i in range(n)]


def sig_edges(n: int, d: Sequence[Fraction]) -> set[tuple[int, int]]:
    """SIG edges (1-based): d(i,j) < r_i + r_j."""
    r = sig_radii(n, d)
    return {(i + 1, j + 1) for (i, j), x in zip(pairs(n), d) if x < r[i] + r[j]}


def _edge_set(edges: Any) -> set[tuple[int, int]]:
    need(isinstance(edges, list), "edges is not a list")
    out = set()
    for e in edges:
        need(isinstance(e, list) and len(e) == 2, f"bad edge {e!r}")
        out.add((min(e), max(e)))
    return out


def sig_build(code: int, out: str, *, n: int, d: Sequence[Fraction]) -> None:
    verdict_code(code, 0)
    doc = parse(out)
    need(doc.get("n") == n, f"graph on {doc.get('n')} vertices, expected {n}")
    need(_edge_set(doc.get("edges")) == sig_edges(n, d), "SIG edges differ from the recomputed SIG")


def sig_verify(code: int, out: str, *, n: int, d: Sequence[Fraction],
               graph: set[tuple[int, int]]) -> None:
    doc = parse(out)
    own = sig_edges(n, d)
    missing, extra = graph - own, own - graph
    need([rat(x) for x in doc.get("radii", [])] == sig_radii(n, d), "radii differ")
    need(_edge_set(doc.get("missing_edges")) == missing, "missing edges differ")
    need(_edge_set(doc.get("extra_edges")) == extra, "extra edges differ")
    matches = not missing and not extra
    need(doc.get("matches") is matches, f"matches={doc.get('matches')}, expected {matches}")
    verdict_code(code, 0 if matches else 1)


def star_metric(lengths: Sequence[Fraction]) -> list[Fraction]:
    """Center 0 at distance a_i from leaf i; leaves a_i + a_j apart."""
    a = list(lengths)
    n = len(a) + 1
    return [a[j - 1] if i == 0 else a[i - 1] + a[j - 1] for i, j in pairs(n)]


def star_obstruction(code: int, out: str, *, lengths: Sequence[Fraction]) -> None:
    """For >= 4 leaves the star SIG-metric is a SIG realization and lies
    outside the pair-cut cone (the paper's theorem)."""
    verdict_code(code, 0)
    doc = parse(out)
    d = star_metric(lengths)
    n = len(lengths) + 1
    need(doc.get("sig_ok") is True, "star metric not reported as a SIG realization")
    need(doc.get("member") is False, "star metric reported inside the pair-cut cone")
    need(doc.get("confirmed") is True, "obstruction not confirmed")
    metric = doc.get("metric") or {}
    need([rat(x) for x in metric.get("d", [])] == d, "reported metric is not the star metric")
    need(sig_edges(n, d) == {(1, v) for v in range(2, n + 1)}, "recomputed SIG is not the star")
    need(any(x < 0 for x in paircut_weights(n, d)), "recomputed weights are all nonnegative")
