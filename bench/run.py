"""Benchmark of ioncrystal: four workloads, end-to-end metrics or per-layer traces.

    python3 bench/run.py --workload {cli-cold,chain-solve,transition-scan,measure-pipeline}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a
value and a unit). With ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones. ``--smoke`` runs one round
of the smallest cases. See bench/README.md.

This file uses the standard library only: it pins the BLAS thread pools
and starts every measuring process itself, so that each one starts cold.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-cold", "chain-solve", "transition-scan", "measure-pipeline")

SETUP_PROBES = 4          # extra cold set-ups per run; set-up is their median with the main one
IMPORT_PROBES = 3         # `python -X importtime` runs per traced run
CHILD_TIMEOUT_S = 170.0

# One thread per BLAS/OpenMP pool: on two cores OpenBLAS's default
# threads make small solves 3-4x slower and scatter them.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
         "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run(cmd: list[str], deadline: float) -> tuple[str, str]:
    """Run one process (and whatever it starts) to its end; return stdout, stderr.

    Each process gets its own session, so that on a timeout the whole group
    is killed and reaped, CLI commands started by a worker included.
    """
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return out, err


def _child(argv: list[str], deadline: float) -> dict:
    """Run one measuring process and return its JSON line."""
    launched = time.monotonic()
    out, err = _run([sys.executable, str(BENCH / "worker.py"), *argv,
                     "--launched-at", repr(launched)], deadline)
    sys.stderr.write(err)
    return json.loads(out.strip().splitlines()[-1])


def _import_times(deadline: float) -> dict[str, float]:
    """Cumulative import times (s) of ioncrystal and scipy.optimize, median of cold runs."""
    found = {"ioncrystal": [], "scipy.optimize": []}
    for _ in range(IMPORT_PROBES):
        _, err = _run([sys.executable, "-X", "importtime", "-c", "import ioncrystal"],
                      deadline)
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {f"import.{name.replace('.', '_')}_s": statistics.median(v)
            for name, v in found.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="one round of the smallest cases (N <= 6)")
    args = p.parse_args()

    if not (ROOT / "src" / "ioncrystal" / "__init__.py").is_file():
        print(f"no ioncrystal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "scenarios").is_dir():
        print(f"no scenarios under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    if args.trace:
        metrics = _import_times(deadline)
        result = _child(common + ["--trace"], deadline)
        metrics.update(result["metrics"])
        units = {k: ("count" if k.endswith(("_calls", "_solves", "_fitted", "_pixels"))
                     else "s") for k in metrics}
    else:
        setups = [_child(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(1 if args.smoke else SETUP_PROBES)]
        result = _child(common + ["--seconds", str(args.seconds)], deadline)
        setups.append(result["setup_s"])
        metrics = dict(result["metrics"], setup_s=statistics.median(setups))
        units = UNITS

    for problem in result["wrong"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not result["wrong"]
    print(f"{args.workload}: {result['samples']} ops in {result['rounds']} round(s), "
          f"tail = sample {max(result['samples'] - 10, 1)} of {result['samples']}, "
          f"{result['failed']} failed, checks {'passed' if correct else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
