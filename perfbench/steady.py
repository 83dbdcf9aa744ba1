#!/usr/bin/env python3
"""Steadiness check: run each workload several times and compare the spread.

    python3 perfbench/steady.py [--first-seed 1]

Each workload of BENCHMARK.json runs ``RUNS`` times, each run
``perfbench/run.py`` in its own process with its own seed, at
the ``run_seconds`` of BENCHMARK.json. For every end-to-end metric the
spread is the distance between the first and third quartile of the runs'
values, as a share of their median; it is printed next to the metric's
bound. A summary is also written to ``perfbench/out/steady.json``, with
each run's raw times, reference-loop slices and scale from its stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            elapsed = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["run_s"] = elapsed
            # The raw times, slices and scale the run printed last.
            result["stderr"] = proc.stderr.strip().splitlines()[-6:]
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} run_s={elapsed:.1f} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        rows = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            rows[metric["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": metric["bound"],
                "values": values,
            }
            ok = "ok" if rows[metric["name"]]["spread"] <= metric["bound"] / 3 else "WIDE"
            print(f"  {workload:15s} {metric['name']:12s} median={statistics.median(values):.4g} "
                  f"spread={rows[metric['name']]['spread']:.4f} bound={metric['bound']} {ok}")
        summary[workload] = {
            "metrics": rows,
            "all_correct": all(r["correct"] for r in runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "run_s": [r["run_s"] for r in runs],
            "stderr": [r["stderr"] for r in runs],
        }
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
