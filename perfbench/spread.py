"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10 [--workloads desk,paper-slice] [--trace 0] [--out FILE]

For each workload it runs ``BENCHMARK.json``'s command once per seed,
one run at a time, and prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, i.e.
the distance between the quartiles as a share of the median. A run that
fails or reports a failed check stops the script. ``--out`` writes every
run's result with the summary and the machine facts as JSON; the
committed ``perfbench/baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import machine_facts


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    record = {"run_seconds": bench["run_seconds"], "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if done.returncode != 0 or result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed} failed (exit {done.returncode}):\n{done.stdout[-3000:]}\n{done.stderr[-3000:]}", file=sys.stderr)
                return 1
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.1f} s): {values}", flush=True)
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
        for name, s in metrics.items():
            print(f"{workload} {name}: median {s['median']:.4f} quartiles {s['q1']:.4f} {s['q3']:.4f} spread {s['spread']}")
        record["workloads"][workload] = {"runs": runs, "summary": metrics}
    record["machine"] = machine_facts()
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
