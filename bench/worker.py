"""One benchmark process: a workload run in a fresh interpreter.

Spawned by ``run.py``, which passes the monotonic time at which it started
this process, so ``setup_s`` runs from interpreter start to the first timed
operation.  With ``--setup-only`` the process builds the workload's inputs,
prints its set-up time and exits (``run.py`` takes the median of several).

The load is a closed loop: one thread, each operation starting when the
previous one returns.  A run attempts whole passes: it stops at the
first pass boundary at or after ``--seconds``.  Only the program's calls are timed:
checks of each output run between operations, outside the timed phase.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402  (imports gburgers)
from tracer import Tracer  # noqa: E402


@dataclass
class Phase:
    passes: int = 0
    program_s: float = 0.0           # pass builds + operations
    op_s: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def points(self) -> int:
        return sum(o.points for o in self.outcomes)

    @property
    def points_per_s(self) -> float:
        return self.points / self.program_s


def run_passes(wl, target_s: float | None, passes: int | None = None,
               tracer: Tracer | None = None) -> Phase:
    ph = Phase()
    clock = time.perf_counter
    start = clock()
    while True:
        t0 = clock()
        ops = wl.build_pass(traced=tracer is not None)
        ph.program_s += clock() - t0
        for op in ops:
            ph.attempted += 1
            t0 = clock()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    with tracer.span(f"op.{op.kind}"):
                        result = op.call()
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            d = clock() - t0
            ph.program_s += d
            ph.op_s.append(d)
            ph.kinds.append(op.kind)
            ph.labels.append(op.label)
            if error is None:
                outcome = op.check(result)
            else:
                outcome = W.Outcome(False, op.points_hint, detail=error)
            ph.outcomes.append(outcome)
            if not outcome.ok:
                ph.failed += 1
                ph.failures.append(f"{op.label}: {outcome.detail}")
        ph.passes += 1
        if passes is not None:
            if ph.passes >= passes:
                break
            continue
        if clock() - start >= target_s:
            break
    return ph


def nearest_rank(sorted_xs: list[float], p: int) -> float:
    return sorted_xs[max(0, math.ceil(p * len(sorted_xs) / 100) - 1)]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), never below the median."""
    return max(50, math.floor(100 * (n - 10) / n))


def end_to_end(ph: Phase, cli: bool) -> tuple[dict, str]:
    ms = sorted(s * 1e3 for s in ph.op_s)
    p = tail_percentile(len(ms))
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    metrics = {
        "points_per_s": {"value": ph.points_per_s, "unit": "1/s"},
        "op_p50_ms": {"value": nearest_rank(ms, 50), "unit": "ms"},
        "op_tail_ms": {"value": nearest_rank(ms, p), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    note = (f"op_tail_ms is p{p} of {len(ms)} operations in {ph.passes} passes; "
            f"{ph.points} points in {ph.program_s:.3f} s of program time")
    return metrics, note


def per_layer(plain: Phase, traced: Phase, tracer: Tracer) -> dict:
    P = traced.passes
    st = tracer.stats

    def calls(name):
        return st.get(name, [0, 0.0, 0.0])[0] / P

    def mean_us(name):
        c, total, _ = st.get(name, [0, 0.0, 0.0])
        return total / c * 1e6 if c else 0.0

    def per_pass_ms(name, idx=1):
        return st.get(name, [0, 0.0, 0.0])[idx] / P * 1e3

    sweeps = [o for o, k in zip(traced.outcomes, traced.kinds) if k in ("sweep", "push", "verify")]
    checked = sum(o.checked for o in sweeps)
    skipped = sum(o.skipped for o in sweeps)
    steps = sum(o.steps for o in traced.outcomes)
    solve_s = st.get("numsolve.solve", [0, 0.0, 0.0])[1]

    def cli_ms(kind):
        d = [s for s, k in zip(plain.op_s, plain.kinds) if k == kind]
        return statistics.mean(d) * 1e3 if d else 0.0

    m = {
        "jets.jet_calls": (calls("jets.jet"), "count"),
        "jets.jet_us": (mean_us("jets.jet"), "us"),
        "jets.mul_calls": (calls("jets.mul"), "count"),
        "jets.antiderivative_calls": (calls("jets.antiderivative"), "count"),
        "jets.antiderivative_us": (mean_us("jets.antiderivative"), "us"),
        "jets.value_calls": (calls("jets.value"), "count"),
        "jets.value_us": (mean_us("jets.value"), "us"),
        "jets.sample_calls": (calls("jets.sample"), "count"),
        "jets.sample_us": (mean_us("jets.sample"), "us"),
        "catalog.build_ms": (per_pass_ms("catalog.build"), "ms"),
        "catalog.valid_calls": (calls("catalog.valid"), "count"),
        "catalog.valid_us": (mean_us("catalog.valid"), "us"),
        "ansatz.phi_calls": (calls("ansatz.phi"), "count"),
        "ansatz.phi_us": (mean_us("ansatz.phi"), "us"),
        "ansatz.valid_calls": (calls("ansatz.valid"), "count"),
        "ansatz.valid_us": (mean_us("ansatz.valid"), "us"),
        "equivalence.transform_calls": (calls("equivalence.transform"), "count"),
        "equivalence.apply_point_calls": (calls("equivalence.apply_point"), "count"),
        "equivalence.apply_point_us": (mean_us("equivalence.apply_point"), "us"),
        "equivalence.push_sweep_ms": (sum(s for s, k in zip(traced.op_s, traced.kinds)
                                          if k == "push") / P * 1e3, "ms"),
        "verify.sweep_calls": (calls("verify.sweep"), "count"),
        "verify.sweep_ms": (per_pass_ms("verify.sweep"), "ms"),
        "verify.self_ms": (per_pass_ms("verify.sweep", idx=2), "ms"),
        "verify.gbe_us": (mean_us("verify.gbe"), "us"),
        "verify.pfde_us": (mean_us("verify.pfde"), "us"),
        "verify.potential_us": (mean_us("verify.potential"), "us"),
        "verify.reduced_us": (mean_us("verify.reduced"), "us"),
        "verify.determining_us": (mean_us("verify.determining"), "us"),
        "verify.points_checked": (checked / P, "count"),
        "verify.points_skipped": (skipped / P, "count"),
        "verify.useful_ratio": (checked / (checked + skipped) if sweeps else 0.0, "ratio"),
        "numsolve.solve_calls": (calls("numsolve.solve"), "count"),
        "numsolve.steps": (steps / P, "count"),
        "numsolve.step_us": (solve_s / steps * 1e6 if steps else 0.0, "us"),
        "numsolve.boundary_calls": (calls("numsolve.boundary"), "count"),
        "numsolve.boundary_us": (mean_us("numsolve.boundary"), "us"),
        "numsolve.compare_ms": (per_pass_ms("numsolve.compare"), "ms"),
        "numsolve.history_mb": (max((o.history_mb for o in traced.outcomes), default=0.0), "MB"),
        "cli.list_ms": (cli_ms("list"), "ms"),
        "cli.eval_ms": (cli_ms("eval"), "ms"),
        "cli.transform_ms": (cli_ms("transform"), "ms"),
        "cli.verify_ms": (cli_ms("verify"), "ms"),
        "cli.out_bytes": (sum(o.out_bytes for o in plain.outcomes) / plain.passes, "count"),
        "trace.overhead_pct": ((plain.points_per_s / traced.points_per_s - 1.0) * 100, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    wl = W.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cli = args.workload == "cli_export"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(args.out_dir, exist_ok=True)
    if not args.trace:
        ph = run_passes(wl, args.seconds)
        metrics, note = end_to_end(ph, cli)
        phases = [ph]
    else:
        plain = run_passes(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        if cli:
            wl.trace_dir = os.path.join(args.out_dir, f"{tag}-children")
            os.makedirs(wl.trace_dir, exist_ok=True)
        try:
            with tracer.span("bench.traced_phase"):
                traced = run_passes(wl, None, passes=plain.passes, tracer=tracer)
        finally:
            tracer.unpatch()
        for path in getattr(wl, "trace_files", []):
            with open(path) as fh:
                tracer.merge(json.load(fh)["stats"])
        metrics = per_layer(plain, traced, tracer)
        note = (f"traced {traced.passes} passes at {traced.points_per_s:.1f} points/s against "
                f"{plain.points_per_s:.1f} untraced")
        tracer.dump(os.path.join(args.out_dir, f"spans-{tag}.json"))
        phases = [plain, traced]

    checks = wl.run_checks()
    failures = [f for ph in phases for f in ph.failures]
    with open(os.path.join(args.out_dir, f"{tag}.json"), "w") as fh:
        json.dump({"setup_s": setup_s, "note": note,
                   "checks": checks, "failures": failures,
                   "ops": [[label, s, o.points, o.ok, o.detail] for ph in phases
                           for label, s, o in zip(ph.labels, ph.op_s, ph.outcomes)]},
                  fh, indent=1)
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    for f in failures[:10]:
        print(f"failed op: {f}")
    print(note)
    print(json.dumps({
        "correct": all(ok for _, ok, _ in checks),
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": metrics,
        "setup_s": setup_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
