#!/usr/bin/env python3
"""Run-to-run spread and A/B comparison for the control-period benchmark.

    python3 perfbench/spread.py --workload paper_week --runs 10
    python3 perfbench/spread.py --compare base.jsonl change.jsonl

The first form runs perfbench/run.py once per seed (first-seed, first-seed+1,
...), saves each full report to a JSONL file under .bench_build/results/, and
prints, per metric, the median and the quartile spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json. The second form compares the
medians of two such files metric by metric.

Reports are pooled or compared only when they measured the same thing: equal
workload shape (the spec hash with the seed zeroed), SIMD tier, lane count
and trace mode. Anything else is refused.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_build" / "results"


def identity(report):
    """What must match for two reports to be pooled or compared."""
    return (report["workload"], report["shape_hash"], report["manifest"]["simd"],
            report["lanes"], report["trace"])


def check_poolable(reports, what):
    identities = {identity(r) for r in reports}
    if len(identities) != 1:
        sys.exit(f"spread: refusing to {what} reports of different workload shape, "
                 f"SIMD tier, lane count or trace mode: {sorted(identities)}")


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def contract_metrics(report):
    """The metric names the run's result line carries for its trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if report["trace"] else "end_to_end"]]


def run_series(args):
    reports = []
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-trace{args.trace}.jsonl"
    with out.open("w") as sink:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                sys.exit(f"spread: run with seed {seed} failed")
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"spread: seed {seed} produced an incorrect result")
            sink.write(json.dumps(report) + "\n")
            reports.append(report)
            print(f"seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    check_poolable(reports, "pool")
    print(f"# {args.workload} trace={args.trace}: {len(reports)} runs -> {out}")
    limits = bounds()
    for name in contract_metrics(reports[0]):
        med, spread = quartile_spread([r["metrics"][name]["value"] for r in reports])
        bound = limits[name].get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
        bound_text = f"bound {bound:g}" if bound is not None else ""
        print(f"  {name:38s} median {med:>14.6g}  spread {spread:7.4f}  {bound_text}{flag}")
    return 0


def compare(base_path, new_path):
    base, new = load(base_path), load(new_path)
    check_poolable(base, "pool")
    check_poolable(new, "pool")
    check_poolable(base[:1] + new[:1], "compare")
    limits = bounds()
    print(f"# {base[0]['workload']} trace={base[0]['trace']}: {len(base)} base vs {len(new)} new runs")
    verdict = 0
    for name in contract_metrics(base[0]):
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        spec = limits[name]
        change = (n - b) / b if b else 0.0
        worse = change if spec["better"] == "lower" else -change
        flag = ""
        if "bound" in spec and worse > spec["bound"]:
            flag, verdict = "  WORSE THAN BOUND", 1
        print(f"  {name:38s} {b:>14.6g} -> {n:>14.6g}  {change:+8.2%}{flag}")
    return verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    return run_series(args)


if __name__ == "__main__":
    sys.exit(main())
