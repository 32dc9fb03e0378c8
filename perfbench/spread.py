"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10                   # every workload
    python3 perfbench/spread.py --workload exhaustive --seeds 1,2
    python3 perfbench/spread.py --seeds 7 --repeat              # same seed twice

For each workload and end-to-end metric it prints the median over seeds and
the distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``.  A spread under a third of the bound marks the metric
steady.  Two seeds are enough to show that a workload's figures are not
tuned to one draw of its inputs.  ``--repeat`` runs each seed twice and
checks that the input and output digests, the F1 scores and the exhaustive
counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, report


def repeatable(report: dict) -> dict:
    """The parts of a report that must be identical for the same seed."""
    figures = report["figures"]
    detail = report["detail"]
    return {
        "inputs": detail["input_digests"],
        "outputs": detail["output_digests"],
        "f1": {k: v for k, v in figures.items() if k.endswith("_f1")},
        "counts": detail["exhaustive_counts"],
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()

    steady = True
    for workload in args.workload or names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in parse_seeds(args.seeds):
            result, report = run_once(workload, seed, spec["run_seconds"])
            line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
            steady &= result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            if args.repeat:
                _, again = run_once(workload, seed, spec["run_seconds"])
                same = repeatable(again) == repeatable(report)
                print(f"{workload} seed {seed}: repeat identical={same}", flush=True)
                steady &= same
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            median = statistics.median(vals)
            if len(vals) < 2:
                print(f"{workload:18} {metric['name']:14} median={median:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
            ok = share < metric["bound"] / 3
            steady &= ok
            print(f"{workload:18} {metric['name']:14} median={median:.6g} "
                  f"spread={share:.4f} bound={metric['bound']} "
                  f"{'steady' if ok else 'NOT steady'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
