"""One measuring process: set up a workload, time whole rounds of it, check every output.

Started by run.py with the BLAS thread pools pinned; prints one JSON
line. Not meant to be run by hand (use run.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def _setup(args):
    """Import the package and build the inputs; return the workload and set-up time."""
    import ioncrystal  # noqa: F401  (the import is part of set-up)
    from workloads import ROOT, WORKLOADS

    if not ioncrystal.__file__.startswith(str(ROOT / "src")):
        raise SystemExit(f"ioncrystal imported from {ioncrystal.__file__}, not {ROOT / 'src'}")
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.warm()
    return workload, time.monotonic() - args.launched_at


def _round(workload, run, recorder=None):
    """One pass over the case list: per-op latencies, failures and check failures.

    With a recorder, spans are recorded for the operations but not for the checks.
    """
    latencies, failed, wrong = [], 0, []
    for case in workload.cases:
        t0 = time.perf_counter()
        try:
            out = run(case)
        except Exception:  # an operation that raises counts as failed, the run goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        latencies.append(time.perf_counter() - t0)
        if recorder:
            recorder.active = False
        try:
            workload.check(case, out)
        except AssertionError as exc:
            wrong.append(str(exc))
        finally:
            if recorder:
                recorder.active = True
    return latencies, failed, wrong


def _tail(values):
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    return s[max(len(s) - 11, 0)]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--launched-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    workload, setup_s = _setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        if args.trace:
            result = _traced(workload)
        else:
            result = _timed(workload, args.seconds, one_round=args.smoke)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    import oracle

    try:
        oracle.analytic_self_check()
    except AssertionError as exc:
        result["wrong"].append(str(exc))
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def _timed(workload, seconds, one_round):
    """Whole rounds until another would overrun the run time (at least one)."""
    import statistics

    latencies, failed, wrong, rounds = [], 0, [], 0
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        lat, f, w = _round(workload, workload.run)
        latencies += lat
        failed += f
        wrong += w
        rounds += 1
        took = time.perf_counter() - t
        if one_round or time.perf_counter() - start + took > seconds:
            break
    if hasattr(workload, "peak_rss_kb"):
        rss_kb = workload.peak_rss_kb           # the largest child process
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(latencies)
    return {
        "attempted": n + failed,
        "failed": failed,
        "wrong": wrong,
        "rounds": rounds,
        "samples": n,
        "metrics": {
            "op_p50_s": statistics.median(latencies) if n else float("nan"),
            "op_tail_s": _tail(latencies) if n else float("nan"),
            "ops_per_s": n / sum(latencies) if n else 0.0,
            "peak_rss_mb": rss_kb / 1024.0,
        },
    }


def _traced(workload):
    """One untraced round, then the same round with spans on every layer boundary."""
    from tracing import Recorder, layer_metrics

    plain, f0, w0 = _round(workload, workload.run_traced)
    rec = Recorder()
    rec.install()
    try:
        traced, f1, w1 = _round(workload, workload.run_traced, rec)
    finally:
        rec.uninstall()
    metrics = layer_metrics(rec)
    metrics["trace.overhead_s"] = sum(traced) - sum(plain)
    return {
        "attempted": len(plain) + len(traced) + f0 + f1,
        "failed": f0 + f1,
        "wrong": w0 + w1,
        "rounds": 2,
        "samples": len(traced),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
