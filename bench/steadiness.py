"""Steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steadiness.py

Runs the command of BENCHMARK.json once per seed on each of its
workloads, for its run_seconds (set A: seeds 1..10), waits 60 seconds,
then runs set B (seeds 101..110).  For every
end-to-end metric of BENCHMARK.json it prints, per workload and set, the
median and quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, then the shift of B's median against A's in the
metric's worse direction.  A metric is flagged when a spread exceeds a
third of its bound (setup_s is exempt from the spread rule), when the
shift exceeds its bound, or when the two sets differ in their share of
failed operations.  All results are also written to
.bench_out/steadiness.json.  Exits 1 if anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # runs per workload and set
GAP_S = 60  # pause between the two sets


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    print(f"  {workload} seed {seed}: " + ", ".join(
        f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
        + f" ({result['attempted']} ops, {result['failed']} failed, "
          f"correct={result['correct']}, {result['wall_s']:.0f} s wall)", flush=True)
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    sets: dict[str, dict[str, list[dict]]] = {}
    for label, base in (("A", 1), ("B", 101)):
        if label == "B":
            print(f"waiting {GAP_S} s before set B", flush=True)
            time.sleep(GAP_S)
        print(f"set {label}", flush=True)
        for w in names:
            sets.setdefault(w, {})[label] = [
                run_once(bench["command"], w, base + k, bench["run_seconds"]) for k in range(RUNS)
            ]

    flagged = []
    report: dict[str, dict] = {}
    for w in names:
        report[w] = {}
        runs = sets[w]
        shares = {
            label: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            for label, rs in runs.items()
        }
        if shares["A"] != shares["B"]:
            flagged.append(f"{w}: failed share {shares['A']} vs {shares['B']}")
        if not all(r["correct"] for rs in runs.values() for r in rs):
            flagged.append(f"{w}: a run reported correct=false")
        print(f"\n{w}  (failed share A {shares['A']:.4g}, B {shares['B']:.4g})")
        print(f"  {'metric':<16}{'set':<4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = {}
            for label, rs in runs.items():
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in rs])
                stats[label] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
                print(f"  {name:<16}{label:<4}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}")
                if name != "setup_s" and spread > bound / 3:
                    flagged.append(f"{w} {name} set {label}: spread {spread:.3f} > bound/3 {bound / 3:.3f}")
            a, b = stats["A"]["median"], stats["B"]["median"]
            worse = (b - a) / a if lower else (a - b) / a
            print(f"  {name:<16}B vs A: {worse:+.3f} worse (bound {bound})")
            if worse > bound:
                flagged.append(f"{w} {name}: B worse than A by {worse:.3f} > bound {bound}")
            report[w][name] = {**stats, "worse_B_vs_A": worse, "bound": bound}
        report[w]["failed_share"] = shares
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps({"runs": sets, "report": report}, indent=1))
    print("\n" + ("\n".join("FLAG " + f for f in flagged) if flagged else "steady: nothing flagged"))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
