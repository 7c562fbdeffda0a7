"""convexlab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the package is imported from ``src/``.  Each
run starts ``SETUP_ONLY`` processes that only set up, one that sets up and
runs the workload (worker.py), and ``SETUP_ONLY`` more that only set up, every
one with BLAS pinned to one thread.  ``setup_s`` is the median over all of
them of the time from spawning the process to its first timed operation.
``wall_s`` is the median time of one round of the workload's operations,
``peak_rss_mb`` the peak resident set of the workload process.  With ``--trace 1`` the per-layer
metrics are printed instead.  The last line of standard output is the result
object; details of the run go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact-geometry", "moment-oracle", "equipartition", "kt-stability")
# set-up times swing with the machine's load; samples on both sides of the
# timed rounds keep their median steady
SETUP_ONLY = 3
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py; return its spawn time (monotonic) and its result object."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    result_path = argv[argv.index("--result") + 1]
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("workload process exceeded the run's time budget") from None
    if proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}:\n{out}{err}")
    with open(result_path) as fh:
        return started, json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(HERE, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setups, res = [], {}
        for k in range(2 * SETUP_ONLY + 1):
            argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--workdir", os.path.join(work, f"p{k}"),
                    "--result", os.path.join(work, f"p{k}.json")]
            timed = k == SETUP_ONLY
            started, out = spawn(argv if timed else argv + ["--setup-only"], deadline)
            setups.append(out["ready_monotonic"] - started)
            if timed:
                res = out
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res["setup_samples"] = setups
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    for line in res["failures"] + res["problems"]:
        print(f"{name}: {line}", file=sys.stderr)
    if trace and res["silent_layers"]:
        raise RunError(f"{name}: traced layers recorded no calls: {', '.join(res['silent_layers'])}")
    if trace:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": not res["problems"],
        "attempted": res["ops_per_round"] * len(res["rounds"]),
        "failed": len(res["failures"]),
        "metrics": metrics,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "convexlab", "__init__.py")):
        print(f"error: no convexlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, r in results.items():
        shown = "" if args.trace else "  ".join(
            f"{k}={m['value']:.6g} {m['unit']}" for k, m in r["metrics"].items())
        print(f"{name:15s} {shown}  attempted={r['attempted']} failed={r['failed']} "
              f"correct={r['correct']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
