"""Exact-rational JSON formats and matrix text serialization."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cutcones import io as cio
from cutcones.cut_algebra import Cut, RationalMatrix, square_cut_matrix
from cutcones.embeddings import linf_sig_embedding
from cutcones.fullcut import CutCertificate
from cutcones.io import (
    MAX_DECIMAL_EXPONENT,
    MAX_TOKEN_DIGITS,
    certificate_from_json,
    certificate_to_json,
    dumps_graph,
    dumps_json,
    dumps_metric,
    dumps_points,
    dumps_text,
    farkas_to_json,
    format_rational,
    graph_from_json,
    loads_certificate,
    loads_graph,
    loads_json,
    loads_metric,
    matrix_to_text,
    metric_from_json,
    parse_rational,
    rational_to_json,
)
from cutcones.metric import Metric
from cutcones.sig import SimpleGraph, cycle_graph, star_graph

from conftest import metric_of_ints

F = Fraction


# ---------------------------------------------------------------------------
# rational tokens


def test_parse_rational_accepted_forms():
    class Count(int):
        pass

    assert parse_rational(5) == F(5)
    assert parse_rational(Count(3)) == F(3)
    assert parse_rational(-3) == F(-3)
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("  -7/2  ") == F(-7, 2)
    assert parse_rational("2.5") == F(5, 2)
    assert parse_rational("10") == F(10)
    assert parse_rational(F(1, 3)) == F(1, 3)


def test_parse_rational_rejections():
    for bad in (1.5, True, False, None, [1], "nan", "inf", "1/0", "abc", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)
    # an exponent that is not an int passes the size check; Fraction rejects it
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational("1.5eX")


def test_parse_rational_token_size_limits():
    # tokens at the limits still parse exactly
    assert parse_rational("1e%d" % MAX_DECIMAL_EXPONENT) == 10**MAX_DECIMAL_EXPONENT
    assert parse_rational("1E-%d" % MAX_DECIMAL_EXPONENT) == F(1, 10**MAX_DECIMAL_EXPONENT)
    assert parse_rational("7" * MAX_TOKEN_DIGITS) == int("7" * MAX_TOKEN_DIGITS)
    for bad in (
        "1e%d" % (MAX_DECIMAL_EXPONENT + 1),
        "2.5E-%d" % (MAX_DECIMAL_EXPONENT + 1),
        "1e1000000",
        "7" * (MAX_TOKEN_DIGITS + 1),
        "1/" + "3" * MAX_TOKEN_DIGITS,
    ):
        with pytest.raises(ValueError):
            parse_rational(bad)


def _parse_by_fraction_str(value):
    """Reference parser: every string token through Fraction(str)."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    cio._check_token_size(value)
    try:
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


def _outcome(parse, value):
    try:
        return parse(value)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize(
    "token",
    [
        "\u00b2/3", "\u0663/4", "+1/2", " 1/2", "1/2 ", "1 / 2", "1_0/3", "-0/5", "01/2",
        "1/0", "1/00", "1/-2", "-1/2", "--1/2", "-", "/", "1/", "/2", "1//2", "7", "-7",
        "1.5", "1e3", True, False, 0, -5, 10**30,
        "9" * MAX_TOKEN_DIGITS, "9" * (MAX_TOKEN_DIGITS + 1),
        "-" + "9" * (MAX_TOKEN_DIGITS - 1), "1/" + "3" * (MAX_TOKEN_DIGITS - 2),
    ],
)
def test_parse_rational_matches_the_fraction_str_path(token):
    # "\u00b2" (superscript two) passes str.isdigit() but is no decimal
    # digit: Fraction(str) rejects it, while "\u0663" (Arabic-Indic three)
    # is a decimal digit and parses as 3
    assert _outcome(parse_rational, token) == _outcome(_parse_by_fraction_str, token)


TOKENS = st.one_of(
    st.integers(),
    st.integers(-10**50, 10**50).map(str),
    st.tuples(st.integers(-10**6, 10**6), st.integers(-3, 10**6)).map(lambda pq: "%d/%d" % pq),
    st.fractions(),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.text(alphabet="0123456789-+/ .eE_x\u0663\u00b2", max_size=10),
    st.sampled_from([
        True, False, None, 1.5, [1], {"p": 1},
        "9" * MAX_TOKEN_DIGITS, "9" * (MAX_TOKEN_DIGITS + 1), "1/" + "3" * (MAX_TOKEN_DIGITS - 2),
        "1e%d" % MAX_DECIMAL_EXPONENT, "1e%d" % (MAX_DECIMAL_EXPONENT + 1),
    ]),
)


@settings(max_examples=300, deadline=None, database=None)
@given(TOKENS)
def test_documents_read_every_token_as_parse_rational_does(token):
    """A metric entry and a certificate weight read through the same
    token function: parse_rational's value, or its error text."""
    metric = _outcome(lambda t: metric_from_json({"n": 2, "d": [t]}).d[0], token)
    weight = _outcome(
        lambda t: certificate_from_json({"n": 2, "cuts": [{"mask": 1, "weight": t}]}).weights[0],
        token,
    )
    assert metric == weight == _outcome(parse_rational, token)


def test_parse_rational_non_ascii_digits():
    assert parse_rational("\u0663/4") == F(3, 4)
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational("\u00b2/3")


def test_int_and_ascii_tokens_never_reach_fraction_of_str(monkeypatch):
    def no_str(numerator=0, denominator=None):
        assert not isinstance(numerator, str), numerator
        return Fraction(numerator, denominator)

    monkeypatch.setattr(cio, "Fraction", no_str)
    for token, value in ((5, 5), (-3, -3), ("3/4", F(3, 4)), ("-6/4", F(-3, 2)), ("12", 12)):
        assert parse_rational(token) == value


def test_json_numbers_obey_the_token_size_limits():
    assert loads_json('[2.5e3, -1, 0.125]') == [F(2500), -1, F(1, 8)]
    for bad in ("[1e1000000]", "[0.%s]" % ("9" * MAX_TOKEN_DIGITS)):
        with pytest.raises(ValueError):
            loads_json(bad)


def test_format_rational_canonical():
    assert format_rational(F(6, 3)) == "2"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert format_rational(F(0)) == "0"


def test_rational_to_json_types():
    assert rational_to_json(F(4, 2)) == 2
    assert isinstance(rational_to_json(F(4, 2)), int)
    assert rational_to_json(F(1, 3)) == "1/3"


def test_loads_json_parses_decimals_exactly():
    doc = loads_json('{"x": 0.1, "y": 3, "z": "1/7"}')
    assert doc["x"] == F(1, 10)
    assert isinstance(doc["x"], Fraction)
    assert doc["y"] == 3


def test_loads_json_rejects_non_finite():
    for text in ("NaN", "Infinity", "-Infinity", '{"x": NaN}'):
        with pytest.raises(ValueError):
            loads_json(text)


# ---------------------------------------------------------------------------
# metrics


def test_metric_round_trip_bit_exact(figure_eight_d0):
    assert loads_metric(dumps_metric(figure_eight_d0)).d == figure_eight_d0.d


def test_metric_round_trip_huge_rationals():
    big = F(10**40 + 1, 3)
    d = Metric(3, (big, big, F(10**50)))
    again = loads_metric(dumps_metric(d))
    assert again.d == d.d


def test_metric_json_uses_ints_and_fraction_strings():
    d = Metric(3, (F(1), F(1, 2), F(3, 2)))
    doc = json.loads(dumps_metric(d))
    assert doc["d"] == [1, "1/2", "3/2"]


def test_metric_from_json_errors():
    with pytest.raises(ValueError):
        metric_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        metric_from_json({"n": "5", "d": [1]})
    with pytest.raises(ValueError):
        metric_from_json({"n": 4, "d": [1, 1, 1]})
    with pytest.raises(ValueError):
        metric_from_json({"n": 3, "d": "111"})


def test_loads_metric_scientific_notation_is_exact():
    d = loads_metric('{"n": 3, "d": [1, 1, 1.0e400]}')
    assert d.distance(2, 3) == F(10) ** 400


def test_metric_file_round_trip(tmp_path):
    d = metric_of_ints(4, [1, 2, 1, 1, 2, 1])
    path = tmp_path / "metric.json"
    path.write_text(dumps_metric(d))
    assert loads_metric(path.read_text()).d == d.d


# ---------------------------------------------------------------------------
# graphs


def test_graph_round_trip_edges(figure_eight):
    g = loads_graph(dumps_graph(figure_eight))
    assert g.n == figure_eight.n
    assert g.edges == figure_eight.edges


def test_graph_from_adjacency_matrix():
    g = graph_from_json(
        {
            "n": 4,
            "adjacency": [
                [0, 1, 0, 1],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, 1, 0],
            ],
        }
    )
    assert g.edges == cycle_graph(4).edges


def test_graph_adjacency_rejections():
    base = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    asym = [row[:] for row in base]
    asym[0][2] = 1
    with pytest.raises(ValueError):
        graph_from_json({"n": 3, "adjacency": asym})
    loop = [row[:] for row in base]
    loop[1][1] = 1
    with pytest.raises(ValueError):
        graph_from_json({"n": 3, "adjacency": loop})
    two = [row[:] for row in base]
    two[0][1] = 2
    with pytest.raises(ValueError):
        graph_from_json({"n": 3, "adjacency": two})
    with pytest.raises(ValueError):
        graph_from_json({"n": 3, "adjacency": base[:2]})
    with pytest.raises(ValueError, match="adjacency must be an 2x2"):
        graph_from_json({"n": 2, "adjacency": [[0, 1], [1]]})
    # entries must be JSON ints, as edge endpoints are: 1.0 reads as Fraction(1)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        loads_graph('{"n": 2, "adjacency": [[0, 1.0], [1.0, 0]]}')


def test_graph_document_errors():
    with pytest.raises(ValueError, match="graph document must be a JSON object"):
        loads_graph("[]")
    with pytest.raises(ValueError, match="field 'edges' must be a list of pairs"):
        graph_from_json({"n": 3, "edges": 5})
    with pytest.raises(ValueError, match="need at least 1 vertex"):
        graph_from_json({"n": 0, "edges": []})
    with pytest.raises(ValueError):
        graph_from_json({"n": 3})
    with pytest.raises(ValueError):
        graph_from_json({"n": 3, "edges": [[1, 2, 3]]})
    with pytest.raises(ValueError):
        graph_from_json({"n": 3, "edges": [[1, 4]]})


def test_graph_file_round_trip(tmp_path):
    g = star_graph(4)
    path = tmp_path / "graph.json"
    path.write_text(dumps_graph(g))
    assert loads_graph(path.read_text()).edges == g.edges


# ---------------------------------------------------------------------------
# certificates


def test_certificate_round_trip():
    cert = CutCertificate(
        n=4,
        cuts=(Cut.from_members(4, (1,)), Cut.from_members(4, (2, 3))),
        weights=(F(1, 2), F(7)),
    )
    again = loads_certificate(dumps_json(certificate_to_json(cert)))
    assert again == cert


def test_certificate_mask_and_members_forms_agree():
    by_members = certificate_from_json(
        {"n": 4, "cuts": [{"members": [1, 3], "weight": "1/2"}]}
    )
    by_mask = certificate_from_json(
        {"n": 4, "cuts": [{"mask": 5, "weight": "1/2"}]}
    )
    assert by_members == by_mask


@pytest.mark.parametrize(
    "members", ['["1"]', "[1.5]", "[true]", "[1.0]", "[null]", '[[1]]'],
)
def test_certificate_members_must_be_integers(members):
    text = '{"n": 4, "cuts": [{"members": %s, "weight": 1}]}' % members
    with pytest.raises(ValueError, match="integer vertices"):
        loads_certificate(text)


def test_certificate_duplicate_members_are_one_vertex():
    twice = loads_certificate('{"n": 4, "cuts": [{"members": [3, 1, 3], "weight": 1}]}')
    assert twice.cuts == (Cut.from_members(4, (1, 3)),)


@pytest.mark.parametrize("n", [2, 3, 7, 8])
def test_certificate_to_json_lists_every_cut_member(n):
    cuts = tuple(Cut(n, mask) for mask in range(1 << n))
    cert = CutCertificate(n=n, cuts=cuts, weights=(F(1),) * len(cuts))
    doc = certificate_to_json(cert)
    assert [c["members"] for c in doc["cuts"]] == [list(c.member_list) for c in cuts]
    # every members list is the document's own
    doc["cuts"][0]["members"].append(99)
    assert certificate_to_json(cert)["cuts"][0]["members"] == list(cuts[0].member_list)


def test_certificate_document_errors():
    with pytest.raises(ValueError, match="certificate document must be a JSON object"):
        loads_certificate("[]")
    with pytest.raises(ValueError):
        certificate_from_json({"n": 4, "cuts": [{"members": [1, 3]}]})
    with pytest.raises(ValueError):
        certificate_from_json({"n": 4, "cuts": [5]})
    with pytest.raises(ValueError):
        certificate_from_json({"n": 4, "cuts": [{"weight": 1}]})
    with pytest.raises(ValueError):
        certificate_from_json({"n": 4, "cuts": [{"mask": 16, "weight": 1}]})
    with pytest.raises(ValueError):
        certificate_from_json({"n": 4, "cuts": [{"members": [5], "weight": 1}]})
    with pytest.raises(ValueError):
        certificate_from_json({"n": 4, "cuts": [{"members": [0], "weight": 1}]})
    with pytest.raises(ValueError):
        certificate_from_json({"n": 4, "cuts": [{"mask": -1, "weight": 1}]})
    with pytest.raises(ValueError):
        certificate_from_json({"n": 4, "cuts": {"mask": 1}})


@pytest.mark.parametrize(
    "cuts, n, message",
    [
        ('[{"members": [1, 5, 0], "weight": 1}]', 4, "vertex 5 out of range 1..4"),
        ('[{"members": [1], "weight": 1}]', 0, "need at least 2 vertices, got n=0"),
        ("[]", 1, "need at least 2 vertices, got n=1"),
        ("[]", -3, "need at least 2 vertices, got n=-3"),
        ('[{"members": [], "weight": 1}]', 1, "need at least 2 vertices, got n=1"),
        ('[{"mask": 5, "weight": 1}]', 1, "need at least 2 vertices, got n=1"),
        ('[{"mask": 16, "weight": 1}]', 4, "bitmask 0x10 out of range for n=4"),
        ('[{"mask": -1, "weight": 1}]', 4, "bitmask -0x1 out of range for n=4"),
        ('[{"members": [9], "weight": "x"}]', 4, "vertex 9 out of range"),
        ('[{"members": [2, 2], "weight": "x"}]', 4, "not a rational: 'x'"),
        ('[{"members": [2], "weight": "1/0"}]', 4, "not a rational: '1/0'"),
        ('[{"members": [2], "weight": true}]', 4, "not a rational: True"),
    ],
)
def test_certificate_entry_errors_name_the_first_fault(cuts, n, message):
    """n is checked first, then each entry in turn: its cut (vertices
    in order, then the mask's range), then its weight."""
    with pytest.raises(ValueError, match=re.escape(message)):
        loads_certificate('{"n": %d, "cuts": %s}' % (n, cuts))


def test_certificate_on_another_n_is_rejected_before_its_cuts():
    """Given the metric's n, a certificate on any other n is refused
    before its first entry is read, whatever that entry holds."""
    text = '{"n": 1000000000, "cuts": [{"members": [1000000000], "weight": "x"}]}'
    with pytest.raises(ValueError, match=re.escape("certificate for n=1000000000 vs metric on n=3")):
        loads_certificate(text, 3)
    with pytest.raises(ValueError, match="certificate for n=4 vs metric on n=5"):
        certificate_from_json({"n": 4, "cuts": 5}, 5)
    doc = {"n": 4, "cuts": [{"members": [1, 3], "weight": "1/2"}]}
    assert certificate_from_json(doc, 4) == certificate_from_json(doc)


# ---------------------------------------------------------------------------
# Farkas vectors


def test_farkas_document_uses_string_tokens():
    want = {"n": 3, "farkas": ["1", "-1/2", "0"]}
    assert farkas_to_json(3, [1, F(-1, 2), 0]) == want
    assert farkas_to_json(3, [F(1), F(-1, 2), F(0)]) == want


# ---------------------------------------------------------------------------
# point sets


def test_points_round_trip_bit_exact():
    ps = linf_sig_embedding(star_graph(3))
    doc = loads_json(dumps_points(ps))
    assert doc["norm"] == ps.norm
    assert [[parse_rational(x) for x in p] for p in doc["points"]] == [list(p) for p in ps.points]


# ---------------------------------------------------------------------------
# matrix text


def test_matrix_text_round_trip():
    m = square_cut_matrix(4)
    rows = [[parse_rational(tok) for tok in line.split()] for line in matrix_to_text(m).splitlines()]
    assert rows == [list(row) for row in m.entries]


def test_matrix_text_fractional_entries():
    m = RationalMatrix.from_rows([[F(1, 2), F(-3)], [F(0), F(1, 6)]])
    assert matrix_to_text(m) == "1/2 -3\n0 1/6\n"


# ---------------------------------------------------------------------------
# the JSON writer


def test_dumps_json_layout_examples():
    # json.dumps on one line: ", " and ": " separators, ASCII escapes
    cert = CutCertificate(5, (Cut(5, 1), Cut(5, 6)), (F(1, 2), F(3)))
    examples = [
        ([], "[]"),
        ({}, "{}"),
        ([[], {}, [[]]], "[[], {}, [[]]]"),
        ({"a": {}, "b": [1, [2, [3, []]], {"k": ()}]}, '{"a": {}, "b": [1, [2, [3, []]], {"k": []}]}'),
        ((1, "1/2"), '[1, "1/2"]'),
        ({"x": [1, "2"], "y": None, "z": True}, '{"x": [1, "2"], "y": null, "z": true}'),
        (["caf\u00e9", "\u2603", "\U0001f600"], '["caf\\u00e9", "\\u2603", "\\ud83d\\ude00"]'),
        (
            certificate_to_json(cert),
            '{"n": 5, "cuts": [{"members": [1], "weight": "1/2"}, {"members": [2, 3], "weight": 3}]}',
        ),
    ]
    for doc, line in examples:
        assert dumps_json(doc) == line + "\n"


def test_dumps_text_renders_one_line_per_field():
    doc = {
        "command": "demo",
        "member": True,
        "bound": None,
        "weights": ["7/30", 2],
        "empty": [],
        "nested": {"n": 3, "d": [1, "1/2", 1], "none": []},
        "items": [{"members": [1, 2], "weight": "-1/2"}, {"members": [], "weight": 0}],
        "pairs": [[1, 3], [2]],
    }
    assert dumps_text(doc) == (
        "command: demo\n"
        "member: true\n"
        "bound: null\n"
        "weights: 7/30 2\n"
        "empty:\n"
        "nested:\n"
        "  n: 3\n"
        "  d: 1 1/2 1\n"
        "  none:\n"
        "items:\n"
        "  members=1 2 weight=-1/2\n"
        "  members= weight=0\n"
        "pairs:\n"
        "  1 3\n"
        "  2\n"
    )
