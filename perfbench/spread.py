"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 0-9] [--seconds 20] [--trace 0|1]

For each workload and end-to-end metric prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (third minus first quartile)
as a share of the median, next to the metric's bound in BENCHMARK.json.
With ``--trace 1`` each seed runs untraced and then traced, and the tracing
overhead is the traced median round time over the untraced one, per pair
(the host's speed drifts over minutes, so only adjacent runs compare).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares, overheads = [], []
        for seed in seed_list(args.seeds):
            res = {}
            for trace in sorted({0, args.trace}):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    return 1
                res[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
                if not res[trace]["correct"] or proc.stderr.strip():
                    print(f"{name} seed {seed}: correct={res[trace]['correct']}\n{proc.stderr}")
                shares.append(res[trace]["failed"] / res[trace]["attempted"])
            for key, metric in res[0]["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            if args.trace:
                rounds = [
                    json.load(open(os.path.join(HERE, "results", f"{name}-seed{seed}-trace{t}.json")))["rounds"]
                    for t in (0, 1)
                ]
                overheads.append(statistics.median(rounds[1]) / statistics.median(rounds[0]) - 1.0)
        print(f"{name}: seeds {args.seeds}, failed share {sorted(set(shares))}")
        for key, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {key:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med:6.3f}  bound {bounds.get(key, float('nan')):.2f}")
        if overheads:
            print(f"  tracing overhead on the median round: {statistics.median(overheads):+.1%} "
                  f"(range {min(overheads):+.1%} .. {max(overheads):+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
