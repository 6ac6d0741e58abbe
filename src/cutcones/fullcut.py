"""The full cut cone: candidate decompositions, a sufficient
membership condition, certificates, and the kernel of the cut-matrix.

The full cut-matrix S has one 0/1 column per nontrivial cut.  Because
S S^T = 2^{n-2} (I + J) is invertible, the minimum-norm solution of
S w = d is w = S^T (S S^T)^{-1} d, which evaluates cut by cut to

    w_C = (s_C - Tr(d) |C|(n-|C|) / (m+1)) / 2^{n-2},    m = n(n-1)/2,

with s_C the cut trace.  Nonnegativity of every w_C is therefore a
sufficient condition for membership in the cut cone (never a proof of
non-membership: other nonnegative solutions may exist when this one
fails).  By complement symmetry only one representative per
complement pair {C, V - C} needs checking.

A CutCertificate stores what its consumers compute with: the cut
bitmasks, and the weights as integer numerators over their least
common denominator t.  sufficient_condition builds it from its integer
slacks over (m+1) q 2^{n-2} (q the lcm of d's denominators), reduced
by one gcd; io reads a document straight into it.  Verification sums
the cut metrics in integers (cut_algebra._cut_sum) and compares the
sum s over t with d's entries b over q as s q = b t, so a valid
certificate costs no Cut and no Fraction per cut.

The kernel of S (dimension 2^n - 2 - m) is spanned by

    phi_k  = e_{C_k} - e_{complement of C_k}      for singletons C_k,
    psi_T  = sum over nonempty proper C <= T of (-1)^{|C|} e_C
                                                  for 3 <= |T| <= n,

where e_C is the standard basis vector at the enumeration index of C.
For n in {3, 4} the same construction is emitted but flagged
non-normative (the count degenerates there).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd
from typing import Iterable, Sequence

from cutcones.cut_algebra import DEFAULT_MAX_N, Cut, _cut_sum, _table_cut_sum, cut_masks, cut_traces
from cutcones.metric import (
    Metric, RationalLike, _over_one_denominator, as_fraction, integer_entries, num_pairs, vertex_pairs,
)

_ZERO = Fraction(0)

# kernel_basis writes 4^n dense entries, so its cap sits below DEFAULT_MAX_N
DEFAULT_KERNEL_MAX_N = 12


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True, init=False)
class CutCertificate:
    """Weighted list of cuts asserting d = sum of weight * cut metric.

    Stored as the cut bitmasks and the weights as integer numerators
    over their least common denominator, so equal certificates store
    equal integers and compare and hash by value.  cuts (Cut objects)
    and weights (Fractions) are views built on first use.  The
    constructor takes cuts and int or Fraction weights; it raises
    ValueError on a count mismatch, a cut on another n, a common
    denominator of more than MAX_TOKEN_DIGITS digits, or n < 2.
    """

    n: int
    _masks: tuple[int, ...]
    _numerators: tuple[int, ...]
    _denominator: int

    def __init__(self, n: int, cuts: Sequence[Cut], weights: Sequence[RationalLike]) -> None:
        if len(cuts) != len(weights):
            raise ValueError(f"{len(cuts)} cuts vs {len(weights)} weights")
        for c in cuts:
            if c.n != n:
                raise ValueError(f"cut on {c.n} vertices in certificate for n={n}")
        weights = [as_fraction(w) for w in weights]
        numerators, den = _over_one_denominator(
            [w.numerator for w in weights], [w.denominator for w in weights]
        )
        self._fill(n, [c.members for c in cuts], numerators, den)

    def _fill(self, n: int, masks: Sequence[int], numerators: Sequence[int], den: int) -> None:
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got n={n}")
        # frozen: the fields go straight into the instance dict
        self.__dict__.update(
            n=n, _masks=tuple(masks), _numerators=tuple(numerators), _denominator=den
        )

    @cached_property
    def cuts(self) -> tuple[Cut, ...]:
        return tuple(Cut(self.n, mask) for mask in self._masks)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self._denominator) for k in self._numerators)


def _certificate(
    n: int, masks: Sequence[int], numerators: Sequence[int], den: int
) -> CutCertificate:
    """The certificate of weights numerators[k] / den, with den > 0 the
    least common denominator (gcd(den, *numerators) = 1)."""
    cert = object.__new__(CutCertificate)
    cert._fill(n, masks, numerators, den)
    return cert


def certificate_metric(cert: CutCertificate) -> Metric:
    """Reconstruct the metric a certificate claims to decompose."""
    den = cert._denominator
    total = _cut_sum(cert.n, cert._masks, cert._numerators)
    return Metric(cert.n, tuple(Fraction(x, den) for x in total))


def certificate_from_weights(n: int, weights: Sequence[Fraction]) -> CutCertificate:
    """Package a full weight vector (enumerate_cuts order), dropping zeros.

    No size cap: the 2^n - 2 weights already pay for enumerating the
    cuts.  Their count is checked before any cut is built, and by bit
    length first, so an n the weights cannot match never costs an
    n-bit int.
    """
    count = len(weights) + 2
    if count.bit_length() != n + 1 or count != 1 << n:
        raise ValueError(f"expected 2^{n} - 2 weights, got {len(weights)}")
    kept = [(mask, w) for mask, w in zip(cut_masks(n), weights) if w]
    numerators, den = _over_one_denominator(
        [w.numerator for _, w in kept], [w.denominator for _, w in kept]
    )
    return _certificate(n, [mask for mask, _ in kept], numerators, den)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of verifying a certificate against a metric.

    negative_weights lists (cut, weight) entries below zero; mismatch
    holds the first pair (lexicographic) where the reconstruction
    differs, as ((i, j), reconstructed, expected), or None.
    """

    valid: bool
    negative_weights: tuple[tuple[Cut, Fraction], ...]
    mismatch: tuple[tuple[int, int], Fraction, Fraction] | None


def verify_cut_certificate(cert: CutCertificate, d: Metric) -> CertificateReport:
    """Exactly recompute the weighted sum and compare with d.

    The sum comes in integers over the certificate's denominator t, and
    d's entries over theirs, q: s / t = b / q is checked as s q = b t.
    Fractions are built only for the report's negative weights and
    mismatch.
    """
    n, den = cert.n, cert._denominator
    if n != d.n:
        raise ValueError(f"certificate for n={n} vs metric on n={d.n}")
    negatives = tuple(
        (Cut(n, mask), Fraction(k, den))
        for mask, k in zip(cert._masks, cert._numerators) if k < 0
    )
    scale, dd = integer_entries(d.d)
    mismatch = None
    total = _cut_sum(n, cert._masks, cert._numerators)
    for p, (s, b) in enumerate(zip(total, dd)):
        if s * scale != b * den:
            mismatch = (vertex_pairs(n)[p], Fraction(s, den), d.d[p])
            break
    return CertificateReport(
        valid=not negatives and mismatch is None,
        negative_weights=negatives,
        mismatch=mismatch,
    )


# ---------------------------------------------------------------------------
# the minimum-norm candidate and the sufficient condition


def _cleared_slacks(
    n: int, scale: int, dd: Sequence[int], max_n: int
) -> tuple[list[int], list[int], int]:
    """The cut masks in enumerate_cuts order, each cut's slack
    s_C - |C|(n-|C|) Tr(d)/(m+1) as an integer numerator, and the
    slacks' common denominator, for the metric d = dd / scale given
    cleared of denominators, n <= max_n.

    Every cut trace s_C is read off one cut_traces table of dd.
    Complements sit at mirrored ranks and have equal slack, so only
    the first half of the cuts is evaluated.  The slacks' common
    denominator is (m+1) scale.
    """
    if n > max_n:
        raise ValueError(f"n={n} exceeds the configured maximum {max_n}")
    masks = cut_masks(n)
    m1 = num_pairs(n) + 1
    trace = sum(dd)
    traces = cut_traces(n, dd)
    full = (1 << n) - 1
    half = [
        m1 * traces[min(mask, full ^ mask)]
        - trace * mask.bit_count() * (n - mask.bit_count())
        for mask in masks[: len(masks) // 2]
    ]
    return masks, half + half[::-1], m1 * scale


def candidate_solution(
    d: Metric, *, max_n: int = DEFAULT_MAX_N
) -> tuple[Fraction, ...]:
    """Minimum-norm solution of S w = d, in enumerate_cuts order.

    Always satisfies the linear system exactly (checked property, not
    assumption); entries may be negative.  Linear in d.
    """
    _, slacks, den = _cleared_slacks(d.n, *integer_entries(d.d), max_n)
    den <<= d.n - 2
    return tuple(Fraction(s, den) for s in slacks)


@dataclass(frozen=True)
class SufficiencyVerdict:
    """Result of the sufficient condition for cut-cone membership.

    status is "member" or "inconclusive"; the condition can never
    prove non-membership.  failing lists, in enumerate_cuts order, the
    complement-class representatives (cuts containing vertex 1) with
    negative slack s_C - |C|(n-|C|) Tr/(m+1).  On "member",
    certificate carries the nonnegative candidate decomposition.
    """

    n: int
    status: str
    certificate: CutCertificate | None
    failing: tuple[Cut, ...]


def sufficient_condition(
    d: Metric, *, max_n: int = DEFAULT_MAX_N
) -> SufficiencyVerdict:
    """Test whether the minimum-norm candidate is nonnegative.

    Checks s_C >= |C|(n-|C|) Tr(d)/(m+1) over the 2^{n-1} - 1
    complement-class representatives (cuts containing vertex 1); the
    slack is invariant under complementation.  If all pass, d is in
    the cut cone and the candidate weights form a certificate.  It is
    re-checked in integers first, RuntimeError if it fails: sum of
    slack_C delta(C) must be (m+1) 2^{n-2} d, cleared as in _cleared_slacks.
    """
    n = d.n
    scale, dd = integer_entries(d.d)
    masks, slacks, den = _cleared_slacks(n, scale, dd, max_n)
    failing = tuple(Cut(n, mask) for mask, s in zip(masks, slacks) if s < 0 and mask & 1)
    cert = None
    if not failing:
        factor = (num_pairs(n) + 1) << (n - 2)
        if any(s < 0 for s in slacks) or _table_cut_sum(n, masks, slacks) != [x * factor for x in dd]:
            raise RuntimeError("sufficient-condition certificate fails its re-check")
        den <<= n - 2
        g = gcd(den, *slacks)
        kept = [(mask, s // g) for mask, s in zip(masks, slacks) if s]
        cert = _certificate(n, [mask for mask, _ in kept], [k for _, k in kept], den // g)
    return SufficiencyVerdict(
        n=n,
        status="inconclusive" if failing else "member",
        certificate=cert,
        failing=failing,
    )


# ---------------------------------------------------------------------------
# kernel of the full cut-matrix


@dataclass(frozen=True)
class KernelVector:
    """Sparse kernel vector: (cut index, coefficient) pairs, index-sorted."""

    label: str
    kind: str  # "phi" | "psi"
    entries: tuple[tuple[int, Fraction], ...]

    def dense(self, length: int) -> tuple[Fraction, ...]:
        out = [_ZERO] * length
        for idx, coeff in self.entries:
            out[idx] = coeff
        return tuple(out)


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the kernel of the full cut-matrix.

    Vectors are ordered phi_1 .. phi_{n-1} then psi_T by (|T|, lex).
    normative is False for n in {3, 4}, where the generic count
    2^n - 2 - m degenerates (0 at n=4, 1 at n=3) while the same
    construction is still emitted for inspection.
    """

    n: int
    vectors: tuple[KernelVector, ...]
    normative: bool

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _cut_rank(n: int, members: Sequence[int]) -> int:
    """Index in enumerate_cuts order of the cut with these sorted members.

    Combinatorial number system: the cuts of smaller size come first,
    and C(n, k) - 1 - sum_i C(n - v_i, k - i + 1) k-subsets come
    lexicographically before {v_1 < ... < v_k}.
    """
    k = len(members)
    below = sum(comb(n, size) for size in range(1, k + 1)) - 1
    return below - sum(comb(n - v, k - i) for i, v in enumerate(members))


def phi_vector(n: int, k: int) -> KernelVector:
    """phi_k = e at cut rank k minus e at rank 2^n - 1 - k (1-based).

    Since the enumeration pairs complements at mirrored ranks, this is
    the singleton {k} minus its complement; complements induce the
    same cut metric, so S phi_k = 0.  Two entries whatever n is, so
    there is no size cap.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}")
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got n={n}")
    total = (1 << n) - 2
    return KernelVector(
        label=f"phi_{k}",
        kind="phi",
        entries=((k - 1, Fraction(1)), (total - k, Fraction(-1))),
    )


def psi_vector(
    n: int, subset: Iterable[int], *, max_n: int = DEFAULT_MAX_N
) -> KernelVector:
    """psi_T = sum over nonempty proper cuts C <= T of (-1)^{|C|} e_C.

    Defined for any nonempty T <= {1,...,n}; the kernel basis uses
    |T| >= 3, but smaller T are useful for identity checks
    (S psi_{T} telescopes by inclusion-exclusion).
    """
    members = tuple(sorted(set(subset)))
    if not members:
        raise ValueError("subset must be nonempty")
    if members[0] < 1 or members[-1] > n:
        raise ValueError(f"subset {members} out of range 1..{n}")
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got n={n}")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the configured maximum {max_n}")
    # Subsets by size, then lexicographic, come out in rank order.
    entries = []
    for size in range(1, min(len(members), n - 1) + 1):
        sign = Fraction(-1) if size % 2 else Fraction(1)
        for sub in combinations(members, size):
            entries.append((_cut_rank(n, sub), sign))
    label = "psi_{" + ",".join(map(str, members)) + "}"
    return KernelVector(label=label, kind="psi", entries=tuple(entries))


def kernel_basis(n: int, *, max_n: int = DEFAULT_KERNEL_MAX_N) -> KernelBasis:
    """Kernel basis of the full cut-matrix: the phi and psi vectors.

    For n >= 5 the 2^n - 2 - m vectors are linearly independent and
    span the kernel exactly.  For n in {3, 4} the emitted family is
    flagged non-normative.
    """
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got n={n}")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the configured maximum {max_n}")
    vectors = [phi_vector(n, k) for k in range(1, n)]
    for size in range(3, n + 1):
        for subset in combinations(range(1, n + 1), size):
            vectors.append(psi_vector(n, subset, max_n=max_n))
    return KernelBasis(n=n, vectors=tuple(vectors), normative=n >= 5)

