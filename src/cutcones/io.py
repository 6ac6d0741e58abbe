"""JSON file formats and exact-rational text serialization.

Rationals in files are integers, decimal literals (parsed exactly,
never through binary floating point), or strings "p/q" with q > 0.
Written files use integers where possible and "p/q" strings
otherwise, so every value round-trips bit for bit.

A rational token (a string, or a JSON number with a fraction or an
exponent) may hold at most MAX_TOKEN_DIGITS digits and a decimal
exponent of magnitude at most MAX_DECIMAL_EXPONENT; larger tokens are
rejected before any value is built, since "1e1000000" alone would cost
a million-digit integer.  Plain JSON integers are left to Python's own
limit on integer string conversion (4300 digits by default).

Formats:
  metric       {"n": 5, "d": [1, "1/2", ...]}         (lex pair order)
  graph        {"n": 4, "edges": [[1, 2], ...]}
               or {"n": 4, "adjacency": [[0, 1, ...], ...]}
  certificate  {"n": 5, "cuts": [{"members": [1, 3], "weight": "1/2"},
                                 {"mask": 5, "weight": 2}, ...]}
  farkas       {"n": 5, "farkas": ["1", "-1/2", ...]}  (string tokens)
  points       {"norm": "l1", "points": [["0", "1/2"], ...]}

A certificate is read straight into the integer form CutCertificate
stores: members (integer vertices in 1..n) or mask (0 .. 2^n - 1)
become a bitmask, and "p/q" and "p" weight tokens become ints, any
other weight going through parse_rational.  The lcm of the weights'
denominators may hold at most MAX_TOKEN_DIGITS digits, like one token;
it is checked before any weight is scaled to it.  certificate_to_json
writes each weight's reduced token from its numerator by one gcd.

Every JSON document, in a file or on stdout, is written by dumps_json:
json.dumps(doc) on one line.  dumps_text renders the same document as
`key: value` lines for reading (the text mode of the verdict commands).
Matrices dump to plain text, one row per line, entries as
space-separated rational tokens.  Metrics, graphs and
certificates are read back; Farkas vectors, points and matrices are
only written.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Any, Iterable, Iterator

from cutcones.cut_algebra import RationalMatrix
from cutcones.embeddings import PointSet
from cutcones.fullcut import CutCertificate, _certificate, _over_one_denominator
from cutcones.metric import MAX_TOKEN_DIGITS, Metric, RationalLike, num_pairs
from cutcones.sig import SimpleGraph

MAX_DECIMAL_EXPONENT = 4300


def _check_token_size(token: str) -> None:
    """Reject a number token too large to build, before building it."""
    if len(token) > MAX_TOKEN_DIGITS and sum(map(str.isdigit, token)) > MAX_TOKEN_DIGITS:
        raise ValueError(f"number token has more than {MAX_TOKEN_DIGITS} digits")
    e = max(token.find("e"), token.find("E"))
    if e < 0:
        return
    try:
        exponent = int(token[e + 1:])
    except ValueError:
        return  # malformed; Fraction rejects it
    if abs(exponent) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"decimal exponent {exponent} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
        )


def _int_ratio(value: Any) -> tuple[int, int] | None:
    """(p, q), q > 0 and not necessarily coprime, for an exact int or an
    ASCII "p/q" or "p" string (p an optional "-" and digits, q digits
    and nonzero) of at most MAX_TOKEN_DIGITS characters, built with
    int(); None for any other value."""
    if type(value) is int:
        return value, 1
    if type(value) is str and len(value) <= MAX_TOKEN_DIGITS and value.isascii():
        num, slash, den = value.partition("/")
        if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            q = int(den) if slash else 1
            if q:
                return int(num), q
    return None


def parse_rational(value: Any) -> Fraction:
    """Exact rational from an int, Fraction, or string token.

    Strings may be "p/q", an integer literal, or a decimal literal;
    all are parsed exactly, within the token size limits.  Floats are
    rejected: they have already lost the value.

    An exact int, and an ASCII "p/q" or "p" string (p an optional "-"
    and digits, q digits and nonzero) of at most MAX_TOKEN_DIGITS
    characters, are built with int() (_int_ratio), to the value
    Fraction(str) gives; every other string goes through Fraction(str).
    """
    ratio = _int_ratio(value)
    if ratio is not None:
        return Fraction(*ratio)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        _check_token_size(value)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r} ({type(value).__name__})")


def format_rational(q: Fraction) -> str:
    """Canonical token: "p" when integral, else "p/q" in lowest terms."""
    return str(q if isinstance(q, Fraction) else Fraction(q))


def rational_to_json(q: Fraction) -> int | str:
    """JSON value: a plain int when integral, else a "p/q" string."""
    q = q if isinstance(q, Fraction) else Fraction(q)
    return q.numerator if q.denominator == 1 else str(q)


def _reject_constant(token: str) -> Any:
    raise ValueError(f"non-finite number {token!r} is not a rational")


def loads_json(text: str) -> Any:
    """json.loads with decimals size-checked and parsed exactly, and
    NaN/Infinity rejected.  Nesting deeper than the parser's recursion
    limit is an input error (ValueError), not an internal one."""
    try:
        return json.loads(
            text, parse_float=parse_rational, parse_constant=_reject_constant
        )
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def dumps_json(doc: Any) -> str:
    """json.dumps(doc) + "\n": the stdlib default layout, on one line."""
    return json.dumps(doc) + "\n"


def _flat(x: Any) -> str:
    """A value on one line: a scalar as its JSON token without quotes, a
    list as its items' tokens and an object as k=v pairs, space-separated."""
    if type(x) is str:
        return x
    if isinstance(x, list):
        return " ".join(map(_flat, x))
    if isinstance(x, dict):
        return " ".join(f"{k}={_flat(v)}" for k, v in x.items())
    return json.dumps(x)


def _text_lines(doc: dict[str, Any], indent: str) -> Iterator[str]:
    for key, value in doc.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _text_lines(value, indent + "  ")
        elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
            yield f"{indent}{key}:"
            for item in value:
                yield f"{indent}  {_flat(item)}"
        else:
            flat = _flat(value)
            yield f"{indent}{key}: {flat}" if flat else f"{indent}{key}:"


def dumps_text(doc: dict[str, Any]) -> str:
    """doc as text: one `key: value` line per field, in document order.

    A scalar prints as its JSON token without quotes (true, null, 7/30)
    and a list of scalars as its tokens, space-separated (`key:` alone
    when empty).  An object, or a list of containers, prints as `key:`
    then one line per field or item, indented two more spaces; an object
    item prints as k=v pairs and a list item as its tokens.
    """
    return "\n".join(_text_lines(doc, "")) + "\n"


def _as_int(v: Any, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def _require_int(obj: Any, key: str) -> int:
    return _as_int(obj.get(key), f"field {key!r}")


# ---------------------------------------------------------------------------
# metrics


def metric_to_json(d: Metric) -> dict[str, Any]:
    return {"n": d.n, "d": [rational_to_json(x) for x in d.d]}


def metric_from_json(obj: Any) -> Metric:
    if not isinstance(obj, dict):
        raise ValueError("metric document must be a JSON object")
    n = _require_int(obj, "n")
    entries = obj.get("d")
    if not isinstance(entries, list):
        raise ValueError("field 'd' must be a list of rationals")
    if n >= 2 and len(entries) != num_pairs(n):
        raise ValueError(
            f"metric on {n} vertices needs {num_pairs(n)} entries, got {len(entries)}"
        )
    return Metric(n, tuple(map(parse_rational, entries)))


def dumps_metric(d: Metric) -> str:
    return dumps_json(metric_to_json(d))


def loads_metric(text: str) -> Metric:
    return metric_from_json(loads_json(text))


# ---------------------------------------------------------------------------
# graphs


def dumps_graph(g: SimpleGraph) -> str:
    return dumps_json({"n": g.n, "edges": [[i, j] for i, j in g.edges]})


def graph_from_json(obj: Any) -> SimpleGraph:
    if not isinstance(obj, dict):
        raise ValueError("graph document must be a JSON object")
    n = _require_int(obj, "n")
    if "edges" in obj:
        edges = obj["edges"]
        if not isinstance(edges, list):
            raise ValueError("field 'edges' must be a list of pairs")
        parsed = []
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2):
                raise ValueError(f"edge entries must be pairs, got {e!r}")
            parsed.append((_as_int(e[0], "edge endpoint"), _as_int(e[1], "edge endpoint")))
        return SimpleGraph.from_edges(n, parsed)
    if "adjacency" in obj:
        adj = obj["adjacency"]
        if not (isinstance(adj, list) and len(adj) == n):
            raise ValueError(f"adjacency must be an {n}x{n} 0/1 matrix")
        rows = []
        for row in adj:
            if not (isinstance(row, list) and len(row) == n):
                raise ValueError(f"adjacency must be an {n}x{n} 0/1 matrix")
            for v in row:
                if type(v) is not int or v not in (0, 1):
                    raise ValueError(f"adjacency entries must be 0 or 1, got {v!r}")
            rows.append(sum(1 << j for j, v in enumerate(row) if v))
        return SimpleGraph(n, tuple(rows))
    raise ValueError("graph document needs an 'edges' or 'adjacency' field")


def loads_graph(text: str) -> SimpleGraph:
    return graph_from_json(loads_json(text))


# ---------------------------------------------------------------------------
# cone certificates: cut decompositions (members), Farkas vectors


class _Bits(dict):
    """Vertex v in 1..n -> its bit 1 << (v - 1), filled on first use;
    ValueError for a vertex out of range."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        bit = self[v] = 1 << (v - 1)
        return bit


class _Members(dict):
    """Bits b -> the vertices offset + k with bit k - 1 of b set, in
    ascending order, filled on first use: a certificate pays only for
    the bit patterns it holds, whatever its n."""

    def __init__(self, offset: int) -> None:
        super().__init__()
        self.offset = offset

    def __missing__(self, bits: int) -> list[int]:
        members = self[bits] = [
            self.offset + k for k in range(1, bits.bit_length() + 1) if bits >> (k - 1) & 1
        ]
        return members


def certificate_to_json(cert: CutCertificate) -> dict[str, Any]:
    # a cut's members are those of its low half bits then of its high
    # half; the sum is a new list, so the document shares no table entry
    half, den = cert.n // 2, cert._denominator
    low, high, low_bits = _Members(0).__getitem__, _Members(half).__getitem__, (1 << half) - 1
    return {
        "n": cert.n,
        "cuts": [
            {"members": low(mask & low_bits) + high(mask >> half), "weight": _weight_token(k, den)}
            for mask, k in zip(cert._masks, cert._numerators)
        ],
    }


def _weight_token(k: int, den: int) -> int | str:
    """rational_to_json(Fraction(k, den)), by one gcd."""
    g = gcd(k, den)
    return k // g if g == den else f"{k // g}/{den // g}"


_INT_TYPE = frozenset({int})


def certificate_from_json(obj: Any, n_metric: int | None = None) -> CutCertificate:
    """A certificate document, read as cut bitmasks and weight ratios
    p / q: "p/q" and "p" tokens by _int_ratio, any other weight by
    parse_rational.

    Given n_metric, the vertex count of the metric it is checked
    against, a document on any other n is rejected before any cut is
    read: a hostile n must not cost a bitmask or a point per vertex.
    """
    if not isinstance(obj, dict):
        raise ValueError("certificate document must be a JSON object")
    n = _require_int(obj, "n")
    if n_metric is not None and n != n_metric:
        raise ValueError(f"certificate for n={n} vs metric on n={n_metric}")
    items = obj.get("cuts")
    if not isinstance(items, list):
        raise ValueError("field 'cuts' must be a list")
    bit = _Bits(n).__getitem__
    masks = []
    nums = []
    dens = []
    for item in items:
        if not isinstance(item, dict):
            raise ValueError(f"certificate entries must be objects, got {item!r}")
        if "members" in item:
            members = item["members"]
            # exact ints only: True and 1.0 would pass a lookup as vertex 1
            if not (isinstance(members, list) and _INT_TYPE.issuperset(map(type, members))):
                raise ValueError(f"'members' must be a list of integer vertices, got {members!r}")
            mask = sum(map(bit, members))
            if mask.bit_count() != len(members):  # a vertex listed twice
                mask = sum(set(map(bit, members)))
        elif "mask" in item:
            mask = _require_int(item, "mask")
        else:
            raise ValueError("certificate entry needs a 'members' or 'mask' field")
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got n={n}")
        # bit_length, not 1 << n: a hostile n must not cost an n-bit int
        if not (mask >= 0 and mask.bit_length() <= n):
            raise ValueError(f"bitmask {mask:#x} out of range for n={n}")
        if "weight" not in item:
            raise ValueError("certificate entry needs a 'weight' field")
        ratio = _int_ratio(item["weight"])
        if ratio is None:
            w = parse_rational(item["weight"])
            p, q = w.numerator, w.denominator
        else:
            p, q = ratio
        masks.append(mask)
        nums.append(p)
        dens.append(q)
    return _certificate(n, masks, *_over_one_denominator(nums, dens))


def loads_certificate(text: str, n_metric: int | None = None) -> CutCertificate:
    return certificate_from_json(loads_json(text), n_metric)


def farkas_to_json(n: int, y: Iterable[RationalLike]) -> dict[str, Any]:
    """A Farkas vector over the pairs of n vertices, as string tokens."""
    return {"n": n, "farkas": [format_rational(x) for x in y]}


# ---------------------------------------------------------------------------
# point sets


def dumps_points(points: PointSet) -> str:
    return dumps_json({
        "norm": points.norm,
        "points": [[rational_to_json(x) for x in p] for p in points.points],
    })


# ---------------------------------------------------------------------------
# matrix text dump


def matrix_to_text(matrix: RationalMatrix) -> str:
    """One row per line, entries as space-separated rational tokens."""
    return "\n".join(
        " ".join(format_rational(x) for x in row) for row in matrix.entries
    ) + "\n"
