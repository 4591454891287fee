"""Run one workload on several seeds and summarize each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 35] [--trace 0|1]

Each seed runs ``run.py`` in its own process, one after another.  For every
metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread: the
distance between the quartiles as a share of the median.  The last line
of standard output is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list] = {}
    info_values: dict[str, list] = {}
    failures = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True, text=True, cwd=BENCH_DIR.parent,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failures += 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: not correct\n{proc.stderr}", file=sys.stderr)
            failures += 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in lines:
            if line.startswith("info "):
                for name, value in json.loads(line[5:]).items():
                    info_values.setdefault(name, []).append(value)
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), file=sys.stderr)

    summary = {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "failures": failures,
        "metrics": {name: summarize(v) for name, v in values.items()},
        "info": {name: summarize(v) for name, v in info_values.items()},
    }
    for group in ("metrics", "info"):
        for name, s in summary[group].items():
            print(f"{name:40s} median {s['median']:<12.5g} spread {s['spread']:.3f}")
    print(json.dumps(summary))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
