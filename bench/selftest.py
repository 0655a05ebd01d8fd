"""Self-test of the benchmark.

Runs every workload's operations and checks on tiny inputs, shows that each
check rejects a wrong output and that every negative control is rejected,
shows that the metric names and units the benchmark prints are those of
``BENCHMARK.json``, and that the benchmark fails without a result when the
program is missing.  Run from the root of a checkout (about 30 s):

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)

import workloads as W  # noqa: E402
from gburgers import catalog as C  # noqa: E402
from gburgers.verify import SweepReport  # noqa: E402
from gburgers.jets import Point  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    if not ok:
        FAILURES.append(name)


def tiny(name: str, **sizes):
    wl = W.WORKLOADS[name]()
    for k, v in sizes.items():
        setattr(wl, k, v)
    wl.setup(1)
    return wl


def run_pass(name: str, wl, limit: int | None = None) -> None:
    ops = wl.build_pass(traced=False)[:limit]
    bad = []
    for op in ops:
        outcome = op.check(op.call())
        if not outcome.ok:
            bad.append(f"{op.label}: {outcome.detail}")
    expect(f"{name}: {len(ops)} tiny operations pass their checks", not bad, "; ".join(bad))
    for check, ok, detail in wl.run_checks():
        expect(f"{name}: {check}", ok, detail)


def report(max_abs: float, checked: int, skipped: int) -> SweepReport:
    return SweepReport(max_abs, Point(0.0, 0.0), checked, skipped)


def workload_checks() -> None:
    wl = tiny("certify_catalog", N=6, N_DET=4, POINTS_PER_CASE=1)
    run_pass("certify_catalog", wl)
    e = C.get_case(7)
    op = W.sweep_op("bad", "sweep", lambda p: 0.0, e.sample_region, 6, e.valid, 1e-10)
    expect("certify_catalog: a sweep above its tolerance fails",
           not op.check(report(2e-10, 36, 0)).ok)
    expect("certify_catalog: a sweep that loses grid points fails",
           not op.check(report(0.0, 30, 5)).ok)

    wl = tiny("solution_families", N=8, MIN_CHECKED=1)
    run_pass("solution_families", wl)
    op = W.sweep_op("few", "sweep", lambda p: 0.0, e.sample_region, 50, e.valid, 1e-9, 1000)
    expect("solution_families: a sweep checking under 1000 points fails",
           not op.check(report(0.0, 999, 1501)).ok)

    wl = tiny("cross_validate")
    run_pass("cross_validate", wl, limit=2)
    expect("cross_validate: errors that do not decrease fail",
           not W.study_ok((16, 32, 64), [1e-3, 1e-3, 2.5e-4])[0])
    expect("cross_validate: first-order convergence fails",
           not W.study_ok((16, 32, 64), [4e-3, 2e-3, 1e-3])[0])
    expect("cross_validate: a final error above 5e-4 fails",
           not W.study_ok((16, 32, 64), [1.6e-2, 4e-3, 1e-3])[0])

    wl = tiny("cli_export", EVAL_N=21, TRANSFORM_RES=6, VERIFY_RES=10)
    run_pass("cli_export", wl)
    proc = SimpleNamespace(returncode=1, stdout="", stderr="boom")
    expect("cli_export: a non-zero exit code fails", not wl._check("list", proc, 0).ok)
    kind, _, points = wl.invocations[3]
    good = wl.build_pass(traced=False)[3].call()
    altered = SimpleNamespace(returncode=0, stdout=good.stdout.replace("13", "13 "),
                              stderr=good.stderr)
    expect("cli_export: output differing from an identical invocation fails",
           not wl._check(kind, altered, points).ok)
    short = SimpleNamespace(returncode=0, stdout="t,x,u\n0,0,0\n", stderr="")
    expect("cli_export: an eval grid with missing rows fails",
           not wl._check("eval", short, wl.invocations[1][2]).ok)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def printed_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    run = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cross_validate",
           "--seed", "1", "--seconds", "1"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        r = subprocess.run(run + ["--trace", str(trace)], capture_output=True, text=True,
                           cwd=ROOT, timeout=170)
        out = last_json(r.stdout) or {}
        printed = {k: v["unit"] for k, v in out.get("metrics", {}).items()}
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        expect(f"--trace {trace} prints exactly the {key} metrics of BENCHMARK.json",
               r.returncode == 0 and printed == wanted,
               f"missing {sorted(set(wanted) - set(printed))}, "
               f"extra {sorted(set(printed) - set(wanted))}")
        expect(f"--trace {trace} result has the required keys",
               sorted(out) == ["attempted", "correct", "failed", "metrics"]
               and out["attempted"] >= 1 and out["failed"] == 0 and out["correct"] is True)


def fails_without_program() -> None:
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_export", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                       cwd=bare, env=env, timeout=170)
    expect("without src/ the benchmark exits non-zero and prints no result",
           r.returncode != 0 and last_json(r.stdout) is None, r.stderr.strip()[-120:])
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    workload_checks()
    printed_metrics()
    fails_without_program()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
