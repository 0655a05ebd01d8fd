#!/usr/bin/env python3
"""Benchmark of the gburgers certification engine (see README.md here).

    python3 bench/run.py --workload certify_catalog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The launcher pins BLAS/OpenMP pools to one
thread, fixes the string-hash seed, puts ``src`` on the path of every process
it starts, runs the workload in a fresh interpreter (``worker.py``), takes
set-up time from several fresh interpreters, and prints one JSON object as
the last line of its output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  It exits non-zero
without a result when the program is missing or a run fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("certify_catalog", "solution_families", "cross_validate", "cli_export")

#: fresh interpreters timed for setup_s (the worker itself is one of them)
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150
SAMPLE_TIMEOUT_S = 10


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # one string-hash layout in every process, so dict and set layouts do not
    # differ from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out-dir", OUT_DIR, *extra]


def run_worker(cmd: list[str], env: dict, timeout: float) -> dict:
    spawned_at = time.monotonic()
    r = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                       capture_output=True, text=True, timeout=timeout)
    if r.returncode != 0:
        raise RuntimeError(f"worker exited {r.returncode}:\n{r.stderr[-3000:]}")
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def import_seconds(env: dict) -> float:
    """Wall time of a process that only imports the CLI module."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import gburgers.cli"], env=env, check=True,
                   timeout=SAMPLE_TIMEOUT_S)
    return time.monotonic() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "gburgers", "__init__.py")):
        print(f"error: no gburgers package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # compile once up front, so the first run in a checkout does not time it
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    env = child_env()

    try:
        result = run_worker(worker_cmd(args), env, WORKER_TIMEOUT_S)
        if args.trace:
            # cli.import_s is a layer figure; it is measured in every traced run
            imports = [import_seconds(env) for _ in range(SETUP_SAMPLES)]
            result["metrics"]["cli.import_s"] = {"value": statistics.median(imports),
                                                 "unit": "s"}
        elif args.workload == "cli_export":
            setups = [import_seconds(env) for _ in range(SETUP_SAMPLES)]
        else:
            setups = [result["setup_s"]] + [
                run_worker(worker_cmd(args, "--setup-only"), env, SAMPLE_TIMEOUT_S)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"setup_s is the median of {[round(s, 4) for s in setups]}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": dict(sorted(metrics.items()))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
