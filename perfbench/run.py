#!/usr/bin/env python3
"""Control-period benchmark of the geoplace library.

Builds the library and the benchmark binary geobench from source into
.bench_build/ (CMake, Release), runs one workload in its own process with a
fixed GEOPLACE_THREADS (LANES below), checks the outputs, prints every metric
by name and unit, and ends with one JSON result line:

    python3 perfbench/run.py --workload request_week --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes
    python3 perfbench/run.py --self-test         # the benchmark's own tests

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The line before the result is geobench's full,
manifest-headed report (every metric and check), which perfbench/spread.py
pools and compares. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
GEOBENCH = BUILD / "geobench"
TESTS = BUILD / "geobench_tests"
WORKLOADS = ["paper_week", "request_week", "tenant_day"]
DEADLINE_S = 175.0  # every run must end within 180 s


class BenchError(Exception):
    pass


# Pool lanes per workload (capped at nproc). Every parallel region waits for
# its slowest lane, and on a shared 4-vCPU machine a lane on every vCPU
# exposes each region to whichever vCPU is slowest at the time: two lanes
# roughly halved tenant_day's run-to-run spread and that of request_week's
# replay. paper_week runs no parallel region.
LANES = {"paper_week": 4, "request_week": 2, "tenant_day": 2}


def lanes(workload=None):
    return max(1, min(LANES.get(workload, 4), os.cpu_count() or 1))


def bench_env(workload=None):
    """A clean environment: no GEOPLACE_* knob but the lane count."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEOPLACE_")}
    env["GEOPLACE_THREADS"] = str(lanes(workload))
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources missing under {ROOT / 'src'}")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = bench_env()
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(lanes()), "--target", *targets])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(step))


def run_geobench(workload, seed, seconds, trace, deadline):
    cmd = [str(GEOBENCH), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    timeout = None if deadline is None else deadline - time.monotonic()
    if timeout is not None and timeout <= 0:
        raise BenchError("no time left to run " + workload)
    try:
        done = subprocess.run(cmd, env=bench_env(workload), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {timeout:.0f} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"geobench exited with {done.returncode} on {workload}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("geobench printed no report")
    return json.loads(lines[-1])


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def result_line(report, trace):
    """The contract result: the mode's metric set, every check passed."""
    end_to_end, per_layer = metric_specs()
    wanted = per_layer if trace else end_to_end
    metrics, problems = {}, []
    for spec in wanted:
        entry = report["metrics"].get(spec["name"])
        if entry is None or entry["value"] is None or not math.isfinite(entry["value"]):
            problems.append(f"metric {spec['name']} missing or not finite")
            continue
        if entry["unit"] != spec["unit"]:
            problems.append(f"metric {spec['name']} in {entry['unit']}, expected {spec['unit']}")
        metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    problems += [f"check {name} failed" for name, ok in report["checks"].items() if not ok]
    result = {"correct": not problems, "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    return result, problems


def print_table(report):
    m = report["manifest"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"lanes={report['lanes']} simd={m['simd']} sha={m['git_sha']} "
          f"spec={m['spec_hash']} episodes={report['episodes']}+{report['traced_episodes']} "
          f"warm_periods={report['warm_periods']} tail=p{report['tail_level']:g} "
          f"({report['tail_beyond']:g} beyond)")
    for name, entry in report["metrics"].items():
        print(f"  {name:38s} {entry['value']:>16.6g} {entry['unit']}")
    for name, ok in report["checks"].items():
        print(f"  check {name:32s} {'ok' if ok else 'FAILED'}")


def run_one(workload, seed, seconds, trace, deadline):
    report = run_geobench(workload, seed, seconds, trace, deadline)
    print_table(report)
    result, problems = result_line(report, trace)
    for problem in problems:
        print("  problem:", problem)
    return report, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.self_test:
            build(["geobench_tests"])
            return subprocess.run([str(TESTS)], env=bench_env()).returncode
        build(["geobench"])
        if args.workload != "all":
            # The first run in a fresh checkout also builds; the run itself
            # gets the full deadline.
            deadline = max(deadline, time.monotonic() + args.seconds + 60.0)
            report, result = run_one(args.workload, args.seed, args.seconds, args.trace, deadline)
            print(json.dumps(report, separators=(",", ":")))
            print(json.dumps(result, separators=(",", ":")))
            return 0
        summary = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                _, result = run_one(workload, args.seed, args.seconds, trace, None)
                summary[f"{workload}/trace{trace}"] = result["correct"]
        print(json.dumps({"correct": all(summary.values()), "runs": summary}))
        return 0 if all(summary.values()) else 1
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
