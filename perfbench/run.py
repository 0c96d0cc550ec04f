#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve-hot --seed 3 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which includes the repository's own CMake build) into
.bench_build/perfbench; later runs only rebuild what changed. The
opprox_bench binary writes a result file under .bench_build/results/;
this script then prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Exits non-zero, without that line, when the build or the run fails.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures on first use, then builds only the benchmark target."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "opprox_bench",
                    "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return BUILD / "opprox_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload '{args.workload}'")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as error:
        log(f"build failed: {error}")
        return 2

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    out = RESULTS / f"{stem}.json"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", str(out)]
    if args.trace:
        command += ["--trace", str(RESULTS / f"{stem}.spans.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"opprox_bench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 2
    sys.stdout.write(run.stdout)
    if not out.exists():
        log(f"opprox_bench exited with {run.returncode} and wrote no result")
        return 2

    result = json.loads(out.read_text())
    metrics = {}
    for entry in wanted:
        measured = result["metrics"].get(entry["name"])
        if measured is None or not isinstance(measured["value"], (int, float)) \
                or not math.isfinite(measured["value"]):
            log(f"metric {entry['name']} missing or not finite")
            return 2
        if measured["unit"] != entry["unit"]:
            log(f"metric {entry['name']} has unit {measured['unit']}, "
                f"BENCHMARK.json says {entry['unit']}")
            return 2
        metrics[entry["name"]] = {"value": measured["value"],
                                  "unit": entry["unit"]}
    correct = bool(result["correct"]) and run.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
