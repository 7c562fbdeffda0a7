"""One workload run in a fresh process, started by run.py.

Set-up is everything from process start to the first timed operation: the
interpreter, ``import convexlab`` with all its modules, and writing the input
files.  Then whole rounds of the workload's operations run back to back until
the run's time is spent (at least ``MIN_ROUNDS``), each round timed alone.
Then the outputs of the last round are checked.  With ``--trace 1`` the
public functions are wrapped first and the span totals are written too.

Writes one JSON object to ``--result``; exits 0 unless the run could not be
made at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_ROUNDS = 3


def digest(paths) -> dict:
    out = {}
    for path in paths:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import convexlab
    import convexlab.cli  # noqa: F401  (imports every module of the package)

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(convexlab.__file__)) != os.path.join(SRC, "convexlab"):
        raise SystemExit(f"convexlab imported from {convexlab.__file__}, not from {SRC}")
    import checks
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "import_s": import_s}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(workloads)
    rounds, failures, digests = [], [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + rounds[-1] <= args.seconds:
        for path in wl.files:
            if os.path.exists(path):
                os.remove(path)
        if tracer:
            tracer.begin_round()
        t = time.perf_counter()
        for op in wl.ops:
            try:
                op.run()
            except Exception as exc:  # an operation the program failed; counted, not fatal
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        rounds.append(time.perf_counter() - t)
        digests.append(digest(wl.files))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    problems = []
    if any(d != digests[0] for d in digests):
        problems.append("outputs differ between rounds of the same seed")
    try:
        wl.check(wl.collect())
    except Exception as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
        if not isinstance(exc, checks.CheckFailed):
            problems.append(traceback.format_exc())
    result.update(
        rounds=rounds,
        ops_per_round=len(wl.ops),
        failures=failures,
        problems=problems,
        peak_rss_mb=peak_rss_mb,
    )
    if tracer:
        result["silent_layers"] = [name for name in wl.layers if tracer.calls.get(name, 0) == 0]
        result["layers"] = tracing.layer_metrics(tracer, len(rounds), import_s)
        result["spans"] = {
            name: {"s": tracer.total[name], "self_s": tracer.self_time[name],
                   "calls": tracer.calls[name]}
            for name in sorted(tracer.total)
        }
        result["counts"] = dict(tracer.counts)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
