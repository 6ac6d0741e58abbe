"""Command-line interface.

Exit codes: 0 member/valid/success, 1 non-member/invalid, 2
inconclusive, 3 usage or input error, 4 internal error (for example a
certificate that fails its re-check, which must never read as a
verdict).  Object-valued outputs (metrics, graphs, point sets,
certificates) are always emitted in their canonical JSON file formats
so commands can be piped; verdict output honors --format text|json.
Inputs default to stdin ("-"); two inputs of one command cannot both
read it.  Options follow the command, and an option given where it
cannot act (a size cap on a step with no cap, a file that can never be
written) is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json  # bench/spans.py's Tracer.installed() swaps out cli.json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from cutcones import cut_algebra, embeddings, fullcut, io as cio, metric as cm
from cutcones import oracle, paircut, sig
from cutcones.cut_algebra import RationalMatrix

EXIT_MEMBER = 0
EXIT_NON_MEMBER = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


def _q(x: Fraction) -> str:
    return cio.format_rational(x)


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _print_payload(payload: str, out: str | None) -> None:
    if out and out != "-":
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _emit_verdict(args: argparse.Namespace, doc: dict[str, Any], lines: Iterable[str]) -> None:
    """Print doc as JSON or lines as text; lines is read in text mode
    only, so it may be a generator that formats nothing under json."""
    if args.format == "json":
        sys.stdout.write(cio.dumps_json(doc))
    else:
        sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verdict commands


def _cmd_validate(args: argparse.Namespace) -> int:
    d = cio.loads_metric(_read_text(args.metric))
    report = cm.validate_metric(d, strict=args.strict)
    doc = {
        "command": "validate",
        "n": d.n,
        "strict": args.strict,
        "valid": report.valid,
        "triangle_violations": [
            {"i": i, "j": j, "k": k, "slack": _q(s)}
            for i, j, k, s in report.triangle_violations
        ],
        "negative_entries": [
            {"i": i, "j": j, "value": _q(v)} for i, j, v in report.negative_entries
        ],
        "zero_entries": [{"i": i, "j": j} for i, j in report.zero_entries],
    }
    kind = "strict metric" if args.strict else "semi-metric"
    lines = [f"{'valid' if report.valid else 'INVALID'} {kind} on {d.n} vertices"]
    for i, j, k, s in report.triangle_violations:
        lines.append(f"  triangle ({i},{j};{k}) violated, slack {_q(s)}")
    for i, j, v in report.negative_entries:
        lines.append(f"  negative entry d({i},{j}) = {_q(v)}")
    for i, j in report.zero_entries:
        lines.append(f"  zero entry d({i},{j})")
    _emit_verdict(args, doc, lines)
    return EXIT_MEMBER if report.valid else EXIT_NON_MEMBER


def _cmd_stats(args: argparse.Namespace) -> int:
    d = cio.loads_metric(_read_text(args.metric))
    s = cm.summarize(d)
    doc = {
        "command": "stats",
        "n": d.n,
        "trace": _q(s.trace),
        "star_traces": [_q(x) for x in s.star_traces],
    }
    lines = [f"n = {d.n}", f"trace = {_q(s.trace)}"]
    lines += [
        f"star trace s_{i} = {_q(x)}" for i, x in enumerate(s.star_traces, start=1)
    ]
    _emit_verdict(args, doc, lines)
    return EXIT_MEMBER


def _stdin_once(args: argparse.Namespace, *inputs: str) -> None:
    """Reject two inputs that would both read stdin, before either is
    read: the second would find it empty.  An omitted input reads stdin."""
    on_stdin = [f"--{name}" for name in inputs if getattr(args, name) in (None, "-")]
    if len(on_stdin) > 1:
        raise ValueError(" and ".join(on_stdin) + " cannot both read stdin")


def _max_n(args: argparse.Namespace) -> dict[str, int]:
    """max_n as a keyword argument when --max-n is given, else nothing."""
    return {} if args.max_n is None else {"max_n": args.max_n}


def _farkas_verdict(
    args: argparse.Namespace, n: int, farkas: tuple[Fraction, ...], cone: str,
    doc: dict[str, Any],
) -> list[str]:
    """Report a non-member's Farkas vector in doc and --emit-farkas, and
    return its two text lines."""
    doc["farkas"] = tokens = _emit_farkas(args, n, farkas)
    return [f"NOT a member of the {cone}", "farkas: " + " ".join(tokens)]


def _emit_farkas(args: argparse.Namespace, n: int, farkas: Iterable[cm.RationalLike]) -> list[str]:
    """Write farkas to the --emit-farkas file, if given; return its tokens."""
    doc = cio.farkas_to_json(n, farkas)
    if args.emit_farkas:
        Path(args.emit_farkas).write_text(cio.dumps_json(doc))
    return doc["farkas"]


def _cmd_paircut(args: argparse.Namespace) -> int:
    d = cio.loads_metric(_read_text(args.metric))
    use_oracle = args.mode == "exact" or d.n < 5
    if not use_oracle and args.max_n is not None:
        raise ValueError(f"--max-n caps the exact oracle, and n = {d.n} goes to the closed form")
    if use_oracle:
        result = oracle.paircut_membership_exact(d, **_max_n(args))
        doc: dict[str, Any] = {
            "command": "paircut",
            "mode": "exact",
            "n": d.n,
            "member": result.feasible,
        }
        lines = []
        if args.mode != "exact":
            lines.append(f"n = {d.n} < 5: routed to the exact oracle")
        if result.feasible:
            doc["weights"] = [_q(x) for x in result.witness]
            lines.append("member of the pair-cut cone")
            lines.append("weights: " + " ".join(_q(x) for x in result.witness))
        else:
            lines += _farkas_verdict(args, d.n, result.farkas, "pair-cut cone", doc)
        _emit_verdict(args, doc, lines)
        return EXIT_MEMBER if result.feasible else EXIT_NON_MEMBER
    verdict = paircut.paircut_membership(d)
    doc = {
        "command": "paircut",
        "mode": "closed-form",
        "n": d.n,
        "member": verdict.member,
        "weights": [_q(x) for x in verdict.weights],
        "violations": [
            {"i": i, "j": j, "slack": _q(s)} for (i, j), s in verdict.violations
        ],
    }
    lines = [
        "member of the pair-cut cone"
        if verdict.member
        else "NOT a member of the pair-cut cone"
    ]
    for (i, j), s in verdict.violations:
        lines.append(f"  pair ({i},{j}) violated, slack {_q(s)}")
    if verdict.violations and args.emit_farkas:
        _emit_farkas(args, d.n, oracle.paircut_farkas(d, verdict.violations[0][0]))
    if verdict.member:
        lines.append("weights: " + " ".join(_q(x) for x in verdict.weights))
    _emit_verdict(args, doc, lines)
    return EXIT_MEMBER if verdict.member else EXIT_NON_MEMBER


def _member_lines(head: str, cert: fullcut.CutCertificate) -> Iterator[str]:
    yield head
    for c, w in zip(cert.cuts, cert.weights):
        yield f"  cut {{{','.join(map(str, c.member_list))}}} weight {_q(w)}"


def _certificate_verdict(
    args: argparse.Namespace, cert: fullcut.CutCertificate, head: str, doc: dict[str, Any]
) -> Iterator[str]:
    """Report a member's certificate in doc (JSON mode only) and
    --emit-certificate, converting it once, and return its text lines."""
    json_mode = args.format == "json"
    if json_mode or args.emit_certificate:
        cert_doc = cio.certificate_to_json(cert)
        if json_mode:
            doc["certificate"] = cert_doc
        if args.emit_certificate:
            Path(args.emit_certificate).write_text(cio.dumps_json(cert_doc))
    return _member_lines(head, cert)


def _inconclusive_lines(failing: tuple[cut_algebra.Cut, ...]) -> Iterator[str]:
    yield "inconclusive: candidate decomposition has negative weights"
    for c in failing:
        yield f"  failing cut {{{','.join(map(str, c.member_list))}}}"


def _cmd_cutcone(args: argparse.Namespace) -> int:
    if args.mode == "sufficient" and args.emit_farkas is not None:
        raise ValueError("--emit-farkas needs cutcone exact: sufficient never refutes membership")
    d = cio.loads_metric(_read_text(args.metric))
    if args.mode == "sufficient":
        verdict = fullcut.sufficient_condition(d, **_max_n(args))
        member = verdict.status == "member"
        doc: dict[str, Any] = {
            "command": "cutcone",
            "mode": "sufficient",
            "n": d.n,
            "status": verdict.status,
            "failing_cuts": [list(c.member_list) for c in verdict.failing],
        }
        if member:
            lines = _certificate_verdict(
                args, verdict.certificate,
                "member of the cut cone (candidate decomposition is nonnegative)", doc,
            )
        else:
            lines = _inconclusive_lines(verdict.failing)
        _emit_verdict(args, doc, lines)
        return EXIT_MEMBER if member else EXIT_INCONCLUSIVE
    result = oracle.cutcone_membership(d, **_max_n(args))
    doc = {
        "command": "cutcone",
        "mode": "exact",
        "n": d.n,
        "member": result.feasible,
    }
    if result.feasible:
        cert = fullcut.certificate_from_weights(d.n, result.witness)
        lines = _certificate_verdict(args, cert, "member of the cut cone", doc)
    else:
        lines = _farkas_verdict(args, d.n, result.farkas, "cut cone", doc)
    _emit_verdict(args, doc, lines)
    return EXIT_MEMBER if result.feasible else EXIT_NON_MEMBER


def _cmd_verify_cert(args: argparse.Namespace) -> int:
    _stdin_once(args, "cert", "metric")
    cert = cio.loads_certificate(_read_text(args.cert))
    d = cio.loads_metric(_read_text(args.metric))
    report = fullcut.verify_cut_certificate(cert, d)
    doc: dict[str, Any] = {
        "command": "verify-cert",
        "n": d.n,
        "valid": report.valid,
        "negative_weights": [
            {"members": list(c.member_list), "weight": _q(w)}
            for c, w in report.negative_weights
        ],
    }
    if report.mismatch is not None:
        (i, j), got, want = report.mismatch
        doc["mismatch"] = {"i": i, "j": j, "reconstructed": _q(got), "expected": _q(want)}
    _emit_verdict(args, doc, _verify_lines(report))
    return EXIT_MEMBER if report.valid else EXIT_NON_MEMBER


def _verify_lines(report: fullcut.CertificateReport) -> Iterator[str]:
    yield "certificate valid" if report.valid else "certificate INVALID"
    for c, w in report.negative_weights:
        yield f"  negative weight {_q(w)} on cut {{{','.join(map(str, c.member_list))}}}"
    if report.mismatch is not None:
        (i, j), got, want = report.mismatch
        yield f"  first mismatch at ({i},{j}): reconstructed {_q(got)}, expected {_q(want)}"


def _cmd_sig_verify(args: argparse.Namespace) -> int:
    _stdin_once(args, "metric", "graph")
    d = cio.loads_metric(_read_text(args.metric))
    g = cio.loads_graph(_read_text(args.graph))
    report = sig.verify_sig_metric(d, g)
    doc = {
        "command": "sig-verify",
        "n": d.n,
        "matches": report.matches,
        "radii": [_q(x) for x in report.radii],
        "missing_edges": [list(e) for e in report.missing_edges],
        "extra_edges": [list(e) for e in report.extra_edges],
    }
    lines = [
        "metric realizes the graph as its sphere-of-influence graph"
        if report.matches
        else "metric does NOT realize the graph"
    ]
    for i, j in report.missing_edges:
        lines.append(f"  missing edge ({i},{j})")
    for i, j in report.extra_edges:
        lines.append(f"  extra edge ({i},{j})")
    _emit_verdict(args, doc, lines)
    return EXIT_MEMBER if report.matches else EXIT_NON_MEMBER


def _cmd_sig_star(args: argparse.Namespace) -> int:
    lengths = [cio.parse_rational(tok) for tok in args.lengths]
    report = sig.star_graph_obstruction(args.n, lengths)
    doc = {
        "command": "sig-star-obstruction",
        "leaves": report.leaves,
        "n": report.metric.n,
        "sig_ok": report.sig_ok,
        "member": report.verdict.member,
        "confirmed": report.confirmed,
        "violations": [
            {"i": i, "j": j, "slack": _q(s)}
            for (i, j), s in report.verdict.violations
        ],
        "metric": cio.metric_to_json(report.metric),
    }
    lines = [
        f"star with {report.leaves} leaves: metric is "
        f"{'a valid' if report.sig_ok else 'NOT a'} sphere-of-influence realization",
        "pair-cut cone: "
        + ("member (unexpected)" if report.verdict.member else "non-member (as forced)"),
    ]
    _emit_verdict(args, doc, lines)
    return EXIT_MEMBER if report.confirmed else EXIT_NON_MEMBER


# ---------------------------------------------------------------------------
# object-producing commands


def _dense_tokens(v: fullcut.KernelVector, length: int) -> list[str]:
    """Tokens of v.dense(length), formatting only the stored entries."""
    out = ["0"] * length
    for idx, coeff in v.entries:
        out[idx] = _q(coeff)
    return out


def _cmd_kernel(args: argparse.Namespace) -> int:
    basis = fullcut.kernel_basis(args.n, **_max_n(args))
    length = (1 << args.n) - 2
    if args.format == "json":
        doc = {
            "command": "kernel-basis",
            "n": basis.n,
            "dimension": basis.dimension,
            "normative": basis.normative,
            "vectors": [
                {"label": v.label, "entries": _dense_tokens(v, length)}
                for v in basis.vectors
            ],
        }
        payload = cio.dumps_json(doc)
    else:
        lines = [
            f"kernel basis for n={basis.n}: {basis.dimension} vectors"
            + ("" if basis.normative else " (non-normative below n=5)")
        ]
        for v in basis.vectors:
            lines.append(v.label + ": " + " ".join(_dense_tokens(v, length)))
        payload = "\n".join(lines) + "\n"
    _print_payload(payload, args.output)
    return EXIT_MEMBER


def _cmd_embed(args: argparse.Namespace) -> int:
    if args.kind == "l1":
        if args.metric:  # omitted, it means no check, not stdin
            _stdin_once(args, "cert", "metric")
        cert = cio.loads_certificate(_read_text(args.cert))
        points = embeddings.l1_embedding(cert)
        if args.metric:
            d = cio.loads_metric(_read_text(args.metric))
            report = embeddings.verify_isometry(points, d)
            if not report.ok:
                for (i, j), got, want in report.mismatches:
                    print(
                        f"mismatch at ({i},{j}): embedded {_q(got)}, metric {_q(want)}",
                        file=sys.stderr,
                    )
                return EXIT_NON_MEMBER
    else:
        g = cio.loads_graph(_read_text(args.graph))
        points = embeddings.linf_sig_embedding(g)
    _print_payload(cio.dumps_points(points), args.output)
    return EXIT_MEMBER


def _cmd_sig_build(args: argparse.Namespace) -> int:
    d = cio.loads_metric(_read_text(args.metric))
    g = sig.sig_graph(d)
    _print_payload(cio.dumps_graph(g), args.output)
    return EXIT_MEMBER


def _cmd_family(args: argparse.Namespace) -> int:
    g = sig.family(args.name, *args.params)
    if args.metric is None:
        _print_payload(cio.dumps_graph(g), args.output)
        return EXIT_MEMBER
    d = sig.truncated_metric(g) if args.metric == "d0" else sig.graph_metric(g)
    _print_payload(cio.dumps_metric(d), args.output)
    return EXIT_MEMBER


_MATRICES = {
    "square": cut_algebra.square_cut_matrix,
    "incidence": cut_algebra.incidence_matrix,
    "inverse": cut_algebra.inverse_square_cut_matrix,
    "full": cut_algebra.full_cut_matrix,
    "proj-low": lambda n: cut_algebra.projectors(n)[0],
    "proj-mid": lambda n: cut_algebra.projectors(n)[1],
    "proj-top": lambda n: cut_algebra.projectors(n)[2],
}


def _cmd_matrix(args: argparse.Namespace) -> int:
    if args.max_n is not None and args.which != "full":
        raise ValueError(f"--max-n caps matrix dump full only; {args.which} has no cap")
    matrix: RationalMatrix = _MATRICES[args.which](args.n, **_max_n(args))
    if args.format == "json":
        doc = {
            "command": "matrix-dump",
            "which": args.which,
            "n": args.n,
            "rows": matrix.rows,
            "cols": matrix.cols,
            "entries": [[_q(x) for x in row] for row in matrix.entries],
        }
        payload = cio.dumps_json(doc)
    else:
        payload = cio.matrix_to_text(matrix)
    _print_payload(payload, args.output)
    return EXIT_MEMBER


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutcones",
        description="Exact cut-cone membership, decompositions, embeddings, "
        "and sphere-of-influence graphs.",
    )
    # each option shared by several commands is declared once, in a parent
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="verdict output format (object outputs are always canonical JSON)",
    )
    metric_in = argparse.ArgumentParser(add_help=False)
    metric_in.add_argument("--metric", help="metric JSON file (default stdin)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", help="write to file instead of stdout")
    farkas = argparse.ArgumentParser(add_help=False)
    farkas.add_argument("--emit-farkas", metavar="PATH", help="write the Farkas vector on non-membership")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--max-n", type=int, help="size cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the (semi-)metric axioms", parents=[fmt, metric_in])
    p.add_argument("--strict", action="store_true", help="also reject zero distances")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("stats", help="trace and star traces of a metric", parents=[fmt, metric_in])
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("paircut", help="pair-cut cone membership", parents=[fmt, metric_in, cap, farkas])
    p.add_argument(
        "mode", nargs="?", choices=("exact",),
        help="force the LP oracle instead of the closed form",
    )
    p.set_defaults(handler=_cmd_paircut)

    p = sub.add_parser("cutcone", help="cut cone membership", parents=[fmt, metric_in, cap, farkas])
    p.add_argument("mode", choices=("sufficient", "exact"))
    p.add_argument("--emit-certificate", metavar="PATH", help="write the certificate on membership")
    p.set_defaults(handler=_cmd_cutcone)

    p = sub.add_parser("kernel", help="kernel of the full cut-matrix", parents=[fmt, cap, out])
    p.add_argument("what", choices=("basis",))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser(
        "verify-cert", help="check a cut decomposition against a metric", parents=[fmt, metric_in]
    )
    p.add_argument("--cert", required=True, help="certificate JSON file")
    p.set_defaults(handler=_cmd_verify_cert)

    p = sub.add_parser("embed", help="exact coordinate embeddings")
    esub = p.add_subparsers(dest="kind", required=True)
    e1 = esub.add_parser("l1", help="l1 points from a cut certificate", parents=[out])
    e1.add_argument("--cert", required=True, help="certificate JSON file")
    e1.add_argument("--metric", help="optional metric to verify the isometry against")
    e1.set_defaults(handler=_cmd_embed)
    e2 = esub.add_parser("linf-sig", help="max-norm points realizing a connected graph", parents=[out])
    e2.add_argument("--graph", help="graph JSON file (default stdin)")
    e2.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("sig", help="sphere-of-influence graphs")
    ssub = p.add_subparsers(dest="action", required=True)
    s1 = ssub.add_parser("build", help="SIG of a strict metric", parents=[metric_in, out])
    s1.set_defaults(handler=_cmd_sig_build)
    s2 = ssub.add_parser("verify", help="check that a metric realizes a graph", parents=[fmt, metric_in])
    s2.add_argument("--graph", required=True, help="graph JSON file")
    s2.set_defaults(handler=_cmd_sig_verify)
    s3 = ssub.add_parser(
        "star-obstruction", help="star SIG-metric forced outside the pair-cut cone", parents=[fmt]
    )
    s3.add_argument("--n", type=int, required=True, help="number of leaves (>= 4)")
    s3.add_argument(
        "--a", dest="lengths", nargs="+", required=True,
        help="leaf lengths (n positive rationals)",
    )
    s3.set_defaults(handler=_cmd_sig_star)

    p = sub.add_parser("family", help="graph family catalog", parents=[out])
    p.add_argument("what", choices=("gen",))
    p.add_argument("name", help="K, C, L, Q, B, CP, or S")
    p.add_argument("params", nargs="+", type=int)
    p.add_argument(
        "--metric", choices=("d0", "d1"),
        help="emit the truncated (d0) or shortest-path (d1) metric instead of the graph",
    )
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("matrix", help="dump exact matrices", parents=[fmt, cap, out])
    p.add_argument("what", choices=("dump",))
    p.add_argument("which", choices=tuple(_MATRICES))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_matrix)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_MEMBER if exc.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only on this path: it costs start-up time

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
