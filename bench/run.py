"""Benchmark of the cutcones command line, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: cutcones is imported from
./src.  The run

  1. writes the workload's seeded inputs under .bench_out/;
  2. times set-up: fresh processes that import cutcones and make one
     small call of each command the workload uses (bench/probe.py);
  3. warms up in process, then calls `cutcones.cli.main(argv)` on each
     operation of the fixed list, one call at a time (a closed loop from
     one thread), repeating whole passes over the list while another
     pass still fits in S seconds;
  4. checks every output of the first pass with the benchmark's own code
     (bench/checks.py) outside the timed window; the first pass writes
     its outputs to files, later passes keep only a digest of theirs;
  5. prints one JSON object as the last line of stdout:
     {"correct", "attempted", "failed", "metrics"}.

With --trace 1 each operation runs twice per pass, untraced and traced
(bench/spans.py), the spans are written to .bench_out/, and the metrics
are the per-layer ones instead of the end-to-end ones.

An operation fails when it raises, exits with a code other than 0, 1
or 2, prints output that differs between passes, or gives output that
fails its check.  `correct` is false if any output failed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7


class Abort(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli() -> Any:
    if not (SRC / "cutcones" / "cli.py").is_file():
        raise Abort(f"no cutcones sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from cutcones import cli

    where = Path(cli.__file__).resolve().parent
    if where != (SRC / "cutcones").resolve():
        raise Abort(f"cutcones was imported from {where}, not from {SRC}")
    return cli


def setup_seconds(probe: tuple[tuple[str, ...], ...]) -> float:
    """Median set-up time of SETUP_PROBES fresh processes, after one
    discarded warm-up process (which also writes the bytecode cache)."""
    times = []
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(probe)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise Abort(f"set-up probe failed: {proc.stderr.strip()}")
        if k:
            times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def call(cli: Any, argv: tuple[str, ...]) -> tuple[float, int | None, str, str]:
    """One in-process CLI call: (seconds, exit code or None if it raised,
    stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a raising operation is a failed one; keep running
            code = None
            traceback.print_exc(file=err)
        seconds = perf_counter() - t0
    return seconds, code, out.getvalue(), err.getvalue()


class Run:
    """Timed passes over one workload's operation list."""

    def __init__(self, cli: Any, ops: tuple[workloads.Op, ...], tracer: spans.Tracer | None,
                 outdir: Path) -> None:
        self.cli = cli
        self.ops = ops
        self.tracer = tracer
        self.outdir = outdir  # stdout of each first-pass call, one file per operation
        outdir.mkdir(parents=True, exist_ok=True)
        self.first: list[tuple[int | None, bytes]] = []  # (code, stdout digest) of pass 1
        self.call_seconds: list[float] = []
        self.timed_s = 0.0  # wall time of the timed phase
        self.out_bytes: list[int] = []
        self.overheads: list[float] = []
        self.pass_seconds: list[float] = []
        self.failures: dict[tuple[int, int], str] = {}  # (pass, op index) -> reason
        self.attempted = 0

    def _fail(self, number: int, k: int, reason: str) -> None:
        self.failures.setdefault((number, k), reason)

    def _traced(self, op: workloads.Op) -> tuple[float, int | None, str, str]:
        self.tracer.op = op.id
        with self.tracer.installed(), self.tracer.span(spans.ROOT):
            return call(self.cli, op.argv)

    def one_pass(self, number: int) -> None:
        t0 = perf_counter()
        for k, op in enumerate(self.ops):
            self.attempted += 1
            if self.tracer is None:
                seconds, code, out, err = call(self.cli, op.argv)
            elif number % 2 == 0:
                seconds, code, out, err = call(self.cli, op.argv)
                traced = self._traced(op)
            else:
                traced = self._traced(op)
                seconds, code, out, err = call(self.cli, op.argv)
            self.call_seconds.append(seconds)
            data = out.encode()
            self.out_bytes.append(len(data))
            digest = hashlib.sha256(data).digest()
            if number == 0:
                self.first.append((code, digest))
                (self.outdir / f"{k:03d}.out").write_bytes(data)
            if code not in (0, 1, 2):
                self._fail(number, k, f"exit {code}: {err.strip()[-500:]}")
            elif (code, digest) != self.first[k]:
                self._fail(number, k, "output differs from the first pass")
            elif self.tracer is not None:
                self.overheads.append(traced[0] - seconds)
                if traced[1:3] != (code, out):
                    self._fail(number, k, "traced output differs from the untraced one")
        self.pass_seconds.append(perf_counter() - t0)

    def measure(self, seconds: float) -> None:
        """Whole passes: start another only if it is expected to end
        within `seconds` of the start, judged by the last pass."""
        start = perf_counter()
        while True:
            self.one_pass(len(self.pass_seconds))
            self.timed_s = perf_counter() - start
            if self.timed_s + self.pass_seconds[-1] > seconds:
                return

    def check(self) -> int:
        """Independent checks on the first pass; returns how many failed."""
        bad = 0
        for k, (op, (code, _)) in enumerate(zip(self.ops, self.first)):
            if code not in (0, 1, 2):
                continue
            try:
                op.check(code, (self.outdir / f"{k:03d}.out").read_text())
            except checks.CheckFailed as exc:
                bad += 1
                for number in range(len(self.pass_seconds)):
                    self._fail(number, k, f"check: {exc}")
        return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
    except Abort as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    phases = {"inputs": perf_counter()}
    workdir = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return measure(cli, args, workdir, phases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli: Any, args: argparse.Namespace, workdir: Path, phases: dict[str, float]) -> int:
    load = workloads.build(args.workload, args.seed, workdir)
    phases["setup"] = perf_counter()
    try:
        setup_s = setup_seconds(load.probe)
    except (Abort, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for argv_ in load.probe:  # first-call work happens before timing
        call(cli, argv_)

    try:
        tracer = spans.Tracer() if args.trace else None
    except spans.MissingLayer as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    run = Run(cli, load.ops, tracer, workdir / "out")
    phases["timed"] = perf_counter()
    run.measure(args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    phases["checks"] = perf_counter()
    bad_checks = run.check()
    phases["end"] = perf_counter()

    reported = set()
    for (_, k), reason in sorted(run.failures.items()):
        if k not in reported:
            reported.add(k)
            print(f"bench: FAILED {load.ops[k].id}: {reason}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {len(load.ops)} operations x "
          f"{len(run.pass_seconds)} passes, {len(run.failures)} failed", file=sys.stderr)
    print("bench: seconds by pass: "
          + " ".join(f"{x:.3f}" for x in run.pass_seconds), file=sys.stderr)
    marks = list(phases.items())
    print("bench: phase seconds: " + ", ".join(
        f"{name} {t1 - t0:.2f}" for (name, t0), (_, t1) in zip(marks, marks[1:])), file=sys.stderr)

    if tracer is not None:
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.write(spans_path)
        values = spans.layer_metrics(tracer.spans, run.out_bytes, run.overheads)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "verdict_s_p50": {"value": statistics.median(run.call_seconds), "unit": "s"},
            "verdicts_per_s": {"value": len(run.call_seconds) / run.timed_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"bench: {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)

    print(json.dumps({
        "correct": bad_checks == 0,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
