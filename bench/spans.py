"""Spans for the traced run.

The traced run calls the same `cli.main` as the timed run, with span
wrappers installed around the public layer functions that `main` and
its handlers call.  A wrapper replaces every reference to the function
in the `cutcones` modules (`from x import f` copies included) for the
duration of the run, records one span per call (name, start, end,
parent span, operation id) in memory, and restores the originals
afterwards.  Nothing is logged while a span is open.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import types
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

# (metric name, module, function).  The first entry of a name is the
# span name; `oracle.cutcone_s` gets `.member` / `.nonmember` appended
# from its result.
LAYERS = (
    ("io.loads_metric_s", "io", "loads_metric"),
    ("io.dumps_s", "io", "dumps_graph"),
    ("io.dumps_s", "io", "dumps_points"),
    ("metric.validate_s", "metric", "validate_metric"),
    ("metric.summarize_s", "metric", "summarize"),
    ("cut_algebra.full_cut_matrix_s", "cut_algebra", "full_cut_matrix"),
    ("cut_algebra.enumerate_cuts_s", "cut_algebra", "enumerate_cuts"),
    ("oracle.cutcone_s", "oracle", "cutcone_membership"),
    ("oracle.lp_s", "oracle", "lp_feasibility"),
    ("oracle.paircut_exact_s", "oracle", "paircut_membership_exact"),
    ("fullcut.sufficient_s", "fullcut", "sufficient_condition"),
    ("fullcut.kernel_basis_s", "fullcut", "kernel_basis"),
    ("fullcut.certificate_from_weights_s", "fullcut", "certificate_from_weights"),
    ("fullcut.verify_cut_certificate_s", "fullcut", "verify_cut_certificate"),
    ("paircut.membership_s", "paircut", "paircut_membership"),
    ("sig.sig_graph_s", "sig", "sig_graph"),
    ("sig.verify_sig_metric_s", "sig", "verify_sig_metric"),
    ("sig.star_obstruction_s", "sig", "star_graph_obstruction"),
    ("embeddings.l1_embedding_s", "embeddings", "l1_embedding"),
    ("embeddings.verify_isometry_s", "embeddings", "verify_isometry"),
)

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("io.loads_metric_s", "s"),
    ("io.dumps_s", "s"),
    ("io.out_bytes", "bytes"),
    ("metric.validate_s", "s"),
    ("metric.summarize_s", "s"),
    ("cut_algebra.full_cut_matrix_s", "s"),
    ("cut_algebra.enumerate_cuts_s", "s"),
    ("oracle.cutcone_s.member", "s"),
    ("oracle.cutcone_s.nonmember", "s"),
    ("oracle.lp_s", "s"),
    ("oracle.paircut_exact_s", "s"),
    ("oracle.witness_support", "count"),
    ("oracle.cert_bits_max", "bits"),
    ("fullcut.sufficient_s", "s"),
    ("fullcut.kernel_basis_s", "s"),
    ("fullcut.certificate_from_weights_s", "s"),
    ("fullcut.verify_cut_certificate_s", "s"),
    ("paircut.membership_s", "s"),
    ("sig.sig_graph_s", "s"),
    ("sig.verify_sig_metric_s", "s"),
    ("sig.star_obstruction_s", "s"),
    ("embeddings.l1_embedding_s", "s"),
    ("embeddings.verify_isometry_s", "s"),
    ("trace.overhead_s", "s"),
)

ROOT = "cli.main"


def _bits(values: Any) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values), default=0)


def _cutcone_attrs(result: Any) -> tuple[str, dict[str, int]]:
    """Span name suffix and counts from a FeasibilityResult."""
    if result.feasible:
        return ".member", {
            "witness_support": sum(1 for w in result.witness if w),
            "cert_bits": _bits(result.witness),
        }
    return ".nonmember", {"cert_bits": _bits(result.farkas)}


class MissingLayer(Exception):
    """A layer function of LAYERS is not in the cutcones sources."""


class Tracer:
    """Span recorder; `op` tags every span with the operation it serves.

    Raises MissingLayer if a function of LAYERS is gone: a layer that
    read 0 would look like one the workload never enters.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.op = ""
        self.layers: list[tuple[str, Callable[..., Any]]] = []
        missing = []
        for name, mod, fn_name in LAYERS:
            original = getattr(importlib.import_module(f"cutcones.{mod}"), fn_name, None)
            if original is None:
                missing.append(f"cutcones.{mod}.{fn_name}")
            else:
                self.layers.append((name, original))
        if missing:
            raise MissingLayer("layer functions not found: " + ", ".join(missing))

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        rec: dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if name == "oracle.cutcone_s":
                    suffix, rec["counts"] = _cutcone_attrs(result)
                    rec["name"] = name + suffix
                return result
        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the layer functions in every cutcones module, and the
        `json.dumps` that `cli` serializes verdicts and kernels with."""
        from cutcones import cli

        modules = [m for k, m in sys.modules.items() if k.startswith("cutcones") and m]
        saved: list[tuple[Any, str, Any]] = []
        for name, original in self.layers:
            wrapper = self.wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        saved.append((m, attr, value))
                        setattr(m, attr, wrapper)
        proxy = types.ModuleType("json")
        proxy.__dict__.update(json.__dict__)
        proxy.dumps = self.wrap("io.dumps_s", json.dumps)
        saved.append((cli, "json", cli.json))
        cli.json = proxy
        try:
            yield
        finally:
            for m, attr, value in reversed(saved):
                setattr(m, attr, value)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[dict[str, Any]], out_bytes: list[int],
                  overheads: list[float]) -> dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    A layer's time in one call of `cli.main` is the summed duration of
    its outermost spans there (a span nested in one of the same name is
    not counted twice); the metric is the median over the calls that
    enter the layer, and 0 for a layer the workload never enters.
    `cli.self_s` is the root span minus its direct children.  Counts are
    medians per oracle call; `io.out_bytes` is the mean stdout size per
    call.
    """
    by_id = {s["id"]: s for s in spans}
    per_call: dict[str, dict[int, float]] = {}
    counts: dict[str, list[int]] = {"witness_support": [], "cert_bits": []}
    child_time: dict[int, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur
        for key, value in s.get("counts", {}).items():
            counts[key].append(value)
        if s["name"] == ROOT:
            continue
        root, outer = s, True
        while root["parent"] is not None:
            root = by_id[root["parent"]]
            outer = outer and root["name"] != s["name"]
        if outer:
            calls = per_call.setdefault(s["name"], {})
            calls[root["id"]] = calls.get(root["id"], 0.0) + dur
    per_call["cli.self_s"] = {
        s["id"]: (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
        for s in spans if s["name"] == ROOT
    }

    def med(values: Any) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    out = {name: med(per_call.get(name, {}).values()) for name, unit in PER_LAYER if unit == "s"}
    out["oracle.witness_support"] = med(counts["witness_support"])
    out["oracle.cert_bits_max"] = med(counts["cert_bits"])
    out["io.out_bytes"] = statistics.fmean(out_bytes) if out_bytes else 0.0
    out["trace.overhead_s"] = med(overheads)
    return out
