"""The four benchmark workloads: their inputs, operations and correctness checks.

A workload object has three methods:

``setup(seed)``
    Builds the workload's inputs.  Runs before the first timed operation, so
    its cost is part of ``setup_s``.
``build_pass(traced)``
    Makes the program calls that start one pass (catalog entries are built
    anew every pass, so the case-5 quadrature memo starts empty, as in a CLI
    run) and returns the pass's list of :class:`Op`.  Every pass holds the
    same operations, so a run always attempts whole rounds of them.
``run_checks()``
    Checks made once per run outside the timed phase: checks against
    computations made apart from the jets, and the negative controls, each of
    which must be rejected.  Returns a list of ``(name, ok, detail)``.

Only the benchmark calls into ``gburgers``; the program receives only the
generated inputs.  Residual functions look their target up on the module at
call time (``V.gbe_residual_scaled``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Callable

from gburgers import ansatz as A
from gburgers import catalog as C
from gburgers import equivalence as E
from gburgers import numsolve as N
from gburgers import verify as V
from gburgers.jets import Point, Region

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    """What the benchmark read from one operation's output."""

    ok: bool
    points: int             # grid points processed (see README, "units of work")
    checked: int = 0        # sweep points checked, where the op reports them
    skipped: int = 0
    steps: int = 0          # RK4 steps, summed over the op's solves
    history_mb: float = 0.0  # largest (steps+1)*(n_x+1)*8 B of one solve
    out_bytes: int = 0
    detail: str = ""


@dataclass
class Op:
    label: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    points_hint: int = 0    # points counted when the call raises


# -- sweeps ------------------------------------------------------------------

def sweep_op(label: str, kind: str, fn, region: Region, n: int, valid, tol: float,
             min_checked: int = 1) -> Op:
    def call():
        return V.sweep(fn, region, n, n, valid=valid)

    def check(rep) -> Outcome:
        total = rep.points_checked + rep.points_skipped
        ok = (rep.max_abs_residual <= tol and total == n * n
              and rep.points_checked >= min_checked)
        return Outcome(ok, n * n, rep.points_checked, rep.points_skipped,
                       detail=f"max {rep.max_abs_residual:.3e} checked {rep.points_checked}")

    return Op(label, kind, call, check, n * n)


def relation_fn(entry, relation: str):
    if relation == "pfde":
        return lambda p: V.pfde_residual_scaled(entry.theta, p)
    if relation == "potential":
        return lambda p: V.potential_residual_scaled(entry.theta, entry.f, entry.xi, p)
    if relation == "reduced":
        return lambda p: V.reduced_system_residual_scaled(entry.f, entry.xi, p)
    if relation == "xi_gbe":
        return lambda p: V.gbe_residual_scaled(entry.xi, entry.f, p)
    raise ValueError(relation)


def central_jet(value, p: Point, h: float) -> tuple[float, ...]:
    """(v, d_t, d_x, d_tt, d_tx, d_xx) by second-order central differences
    of pointwise values; shares nothing with the jet engine."""
    t, x = p

    def F(a, b):
        return value(t + a * h, x + b * h)

    f00 = F(0, 0)
    fp0, fm0, f0p, f0m = F(1, 0), F(-1, 0), F(0, 1), F(0, -1)
    fpp, fpm, fmp, fmm = F(1, 1), F(1, -1), F(-1, 1), F(-1, -1)
    return (f00, (fp0 - fm0) / (2 * h), (f0p - f0m) / (2 * h),
            (fp0 - 2 * f00 + fm0) / (h * h), (fpp - fpm - fmp + fmm) / (4 * h * h),
            (f0p - 2 * f00 + f0m) / (h * h))


def fd_gbe_residual(u, f, t: float, x: float, h: float) -> float:
    """Scaled u_t + u*u_x + f*u_xx from central differences of values."""
    v, ut, ux, _, _, uxx = central_jet(u, Point(t, x), h)
    fv = f(t, x)
    terms = (ut, v * ux, fv * uxx)
    return abs(sum(terms)) / (1.0 + sum(abs(s) for s in terms))


def fd_check(r_h: float, r_2h: float, floor: float) -> bool:
    """A consistent second-order stencil applied to an exact solution gives
    r(h) ~ c*h^2, so r(2h) ~ 4*r(h): accept r(h) within twice the Richardson
    error estimate |r(2h) - r(h)|/3, or on the roundoff floor.  A residual
    that does not shrink with h (a wrong equation) fails."""
    return r_h <= floor or r_h <= 2.0 * abs(r_2h - r_h) / 3.0


# -- inputs shared by several workloads --------------------------------------

def theta_range(entry, region: Region, n: int = 25) -> tuple[float, float]:
    ts, xs = region.grid(n, n)
    vals = [entry.theta.value(float(t), float(x)) for t in ts for x in xs
            if entry.valid(Point(float(t), float(x)))]
    return min(vals), max(vals)


def shrink_for_theta_width(entry, region: Region, max_width: float):
    """Halve the region alternately in x and t until theta's range fits
    (the oscillatory branch's poles repeat with period pi)."""
    reg = region
    for i in range(10):
        lo, hi = theta_range(entry, reg)
        if hi - lo <= max_width:
            return reg, (lo, hi)
        tc, xc = (reg.t0 + reg.t1) / 2, (reg.x0 + reg.x1) / 2
        if i % 2 == 0:
            reg = Region(reg.t0, reg.t1, xc - (reg.x1 - reg.x0) / 4, xc + (reg.x1 - reg.x0) / 4)
        else:
            reg = Region(tc - (reg.t1 - reg.t0) / 4, tc + (reg.t1 - reg.t0) / 4, reg.x0, reg.x1)
    return reg, theta_range(entry, reg)


def pole_free_branches(entry) -> list[tuple[tuple[float, float, float], Region]]:
    """One (nu, c1, c2) per branch sign with its poles off the sweep region,
    chosen as the acceptance suite's criterion 2 chooses its first constants."""
    region = entry.sample_region
    _, hi = theta_range(entry, region)
    reg1, (lo1, hi1) = shrink_for_theta_width(entry, region, math.pi - 0.6)
    mid = (lo1 + hi1) / 2
    return [((-1.0, 1.0, 1.0), region),
            ((0.0, -(hi + 1.0), 1.0), region),
            ((1.0, math.cos(mid), math.sin(mid)), reg1)]


def seeded_element(rng: random.Random, source: Region):
    """A group element near the identity and an axis-aligned target region
    whose preimage lies inside ``source``.

    The action is projective in (t, x), so the image of the source rectangle
    is a quadrilateral whose x-edges are straight; the largest target
    rectangle spanning its whole t-range is bounded by the corner images.
    Keeping the preimages inside the source keeps every sweep count
    independent of the seed.
    """
    while True:
        a, d = rng.uniform(0.8, 1.25), rng.uniform(0.8, 1.25)
        b, g = rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1)
        k = rng.choice((-1.0, 1.0)) * rng.uniform(0.6, 1.6)
        m0, m1 = rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)
        if min(abs(g * t + d) for t in (source.t0, source.t1)) < 0.5:
            continue
        el = E.EquivalenceElement(a, b, g, d, m0, m1, k)

        def img(t, x):
            den = el.gamma * t + el.delta
            return ((el.alpha * t + el.beta) / den, (el.kappa * x + el.mu1 * t + el.mu0) / den)

        (T0, X00), (_, X01) = img(source.t0, source.x0), img(source.t0, source.x1)
        (T1, X10), (_, X11) = img(source.t1, source.x0), img(source.t1, source.x1)
        xlo = max(min(X00, X01), min(X10, X11))
        xhi = min(max(X00, X01), max(X10, X11))
        src_w = (source.x1 - source.x0) * abs(el.kappa) / max(abs(el.gamma * t + el.delta)
                                                              for t in (source.t0, source.t1))
        if xhi - xlo < 0.5 * src_w:
            continue
        tlo, thi = min(T0, T1), max(T0, T1)
        mt, mx = 1e-7 * (thi - tlo), 1e-7 * (xhi - xlo)
        return el, Region(tlo + mt, thi - mt, xlo + mx, xhi - mx)


def element_json(el) -> str:
    return json.dumps({k: float(v) for k, v in el.to_dict().items()}, sort_keys=True)


# -- certify_catalog ---------------------------------------------------------

class CertifyCatalog:
    """All 17 cases: PFDE, potential system, reduced pair and xi as a GBE
    solution at 50x50, the determining system at 20x20.  Op = one sweep."""

    RELATIONS = ("pfde", "potential", "reduced", "xi_gbe")
    N = 50
    N_DET = 20
    STENCIL_H = 1e-3
    POINTS_PER_CASE = 3

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        # seeded probe points for the stencil check, drawn inside each region
        self.probes = {}
        for e in C.iter_cases():
            reg = e.sample_region.shrink(4 * self.STENCIL_H)
            pts = []
            while len(pts) < self.POINTS_PER_CASE:
                p = Point(rng.uniform(reg.t0, reg.t1), rng.uniform(reg.x0, reg.x1))
                if e.valid(p):
                    pts.append(p)
            self.probes[e.id] = pts

    def build_pass(self, traced: bool) -> list[Op]:
        ops = []
        for e in C.iter_cases():
            tol = 1e-9 if e.id == 5 else 1e-10
            for rel in self.RELATIONS:
                ops.append(sweep_op(f"case{e.id}/{rel}", "sweep", relation_fn(e, rel),
                                    e.sample_region, self.N, e.valid, tol))
            coeffs = V.ReductionOperatorCoefficients.from_xi(e.xi)
            ops.append(sweep_op(
                f"case{e.id}/determining", "sweep",
                lambda p, e=e, c=coeffs: V.determining_residuals(e.f, c, p).max_scaled,
                e.sample_region, self.N_DET, e.valid, tol))
        return ops

    def run_checks(self) -> list[tuple[str, bool, str]]:
        out = []
        worst = 0.0
        for e in C.iter_cases():
            for p in self.probes[e.id]:
                for field in (e.f, e.xi, e.theta):
                    j = field.jet(p)
                    exact = (j.v, j.d_t, j.d_x, j.d_tt, j.d_tx, j.d_xx)
                    # one Richardson step cancels the h^2 term of the stencil
                    approx = [(4 * a - b) / 3 for a, b in
                              zip(central_jet(field.value, p, self.STENCIL_H),
                                  central_jet(field.value, p, 2 * self.STENCIL_H))]
                    worst = max(worst, max(abs(a - b) / (1.0 + abs(a))
                                           for a, b in zip(exact, approx)))
        out.append(("jets match central differences (orders <= 2)", worst <= 1e-5,
                    f"worst {worst:.2e}"))
        # control: the potential system with f*(1+1e-3) must be rejected
        least = math.inf
        for e in C.iter_cases():
            bad_f = e.f * (1.0 + 1e-3)
            rep = V.sweep(
                lambda p, e=e, bf=bad_f: V.potential_residual_scaled(e.theta, bf, e.xi, p),
                e.sample_region, 10, 10, valid=e.valid)
            least = min(least, rep.max_abs_residual)
        out.append(("control f*(1+1e-3) rejected in every case", least > 1e-6,
                    f"smallest max residual {least:.2e}"))
        return out


# -- solution_families -------------------------------------------------------

class SolutionFamilies:
    """GBE sweeps of u = phi(theta) for every case x the three branch signs,
    plus one pushforward per case through a seeded group element.
    Op = one 37x37 sweep: at that size a pass takes 13-17 s on a 2-core box,
    so a 20-s run holds two whole passes."""

    N = 37
    TOL = 1e-9
    MIN_CHECKED = 1000
    FD_H = 4e-3  # large enough that truncation, not roundoff, dominates

    def _pushed(self, case_id: int):
        """The branch pushed through the group: the signs cycle with the case id."""
        return self.branches[case_id][case_id % 3]

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        entries = C.iter_cases()
        self.branches = {e.id: pole_free_branches(e) for e in entries}
        self.elements = {}
        self.fd_points = {}
        for e in entries:
            self.elements[e.id] = seeded_element(rng, self._pushed(e.id)[1])
            pts = []
            for _, reg in self.branches[e.id]:
                inner = reg.shrink(4 * self.FD_H)
                pts.append(Point(rng.uniform(inner.t0, inner.t1),
                                 rng.uniform(inner.x0, inner.x1)))
            self.fd_points[e.id] = pts

    def build_pass(self, traced: bool) -> list[Op]:
        ops = []
        entries = C.iter_cases()
        for e in entries:
            for (nu, c1, c2), reg in self.branches[e.id]:
                sol = A.build_solution(e, A.RiccatiBranch(nu, c1, c2))
                ops.append(sweep_op(
                    f"case{e.id}/nu{nu:+g}", "sweep",
                    lambda p, s=sol: V.gbe_residual_scaled(s.u, s.f, p),
                    reg, self.N, sol.valid, self.TOL, self.MIN_CHECKED))
        for e in entries:
            (nu, c1, c2), _ = self._pushed(e.id)
            el, target = self.elements[e.id]
            tsol = E.transform_solution(el, A.build_solution(e, A.RiccatiBranch(nu, c1, c2)))
            ops.append(sweep_op(
                f"case{e.id}/push nu{nu:+g}", "push",
                lambda p, s=tsol: V.gbe_residual_scaled(s.u, s.f, p),
                target, self.N, tsol.valid, self.TOL, self.MIN_CHECKED))
        return ops

    def _fd_ok(self, sol, f, p: Point) -> tuple[bool, float]:
        r1 = fd_gbe_residual(sol.u.value, f, p.t, p.x, self.FD_H)
        r2 = fd_gbe_residual(sol.u.value, f, p.t, p.x, 2 * self.FD_H)
        return fd_check(r1, r2, floor=1e-9), r1

    def run_checks(self) -> list[tuple[str, bool, str]]:
        entries = {e.id: e for e in C.iter_cases()}
        out = []
        bad = []
        worst = 0.0
        for cid, e in entries.items():
            for ((nu, c1, c2), _), p in zip(self.branches[cid], self.fd_points[cid]):
                sol = A.build_solution(e, A.RiccatiBranch(nu, c1, c2))
                ok, r = self._fd_ok(sol, e.f.value, p)
                worst = max(worst, r)
                if not ok:
                    bad.append(f"case{cid}/nu{nu:+g}")
        out.append(("finite-difference GBE residual within the stencil bound", not bad,
                    f"worst {worst:.2e}; failing {bad}"))
        # control: phi(theta) paired with the next case's f must fail, both in
        # the program's sweep and in the finite-difference check
        missed = []
        for cid, e in entries.items():
            other = entries[cid % 17 + 1]
            (nu, c1, c2), reg = self.branches[cid][0]
            sol = A.build_solution(e, A.RiccatiBranch(nu, c1, c2))
            rep = V.sweep(lambda p, s=sol, o=other: V.gbe_residual_scaled(s.u, o.f, p),
                          reg, 10, 10, valid=sol.valid)
            # fixed points, so the verdict does not depend on the seed
            ts, xs = reg.shrink(4 * self.FD_H).grid(3, 3)
            fd_all_ok = all(self._fd_ok(sol, other.f.value, Point(float(t), float(x)))[0]
                            for t in ts for x in xs)
            if rep.max_abs_residual <= self.TOL or fd_all_ok:
                missed.append(cid)
        out.append(("control: solution paired with another case's f rejected", not missed,
                    f"not rejected: {missed}"))
        return out


# -- cross_validate ----------------------------------------------------------

#: (case, (nu, c1, c2), region, base n_x).  The first three rows are the
#: acceptance suite's criterion 9 studies: case 2 as there, case 4 from
#: n_x = 16, and case 7 with its time window cut from [1, 1.5] to [1, 1.3].
#: Time windows and base resolutions are set so that every study costs
#: about 0.45 s (3,400-4,700 RK4 steps) on a 2-core box, and a run holds
#: dozens of studies of comparable size.
STUDIES = (
    (2, (-1.0, 1.0, 1.0), (0.0, 1.0, -2.0, 2.0), 32),
    (4, (-1.0, 1.0, 1.0), (0.0, 0.5, -1.0, 1.0), 16),
    (7, (0.0, 4.0, 1.0), (1.0, 1.3, 1.0, 3.0), 16),
    (9, (-1.0, 1.0, 1.0), (0.5, 0.885, -0.6, 0.6), 16),
    (2, (1.0, 1.0, 0.3), (0.0, 0.28, -0.5, 0.5), 16),
    (8, (0.0, -3.0, 1.0), (0.5, 1.0, -1.0, 1.0), 24),
    (11, (-1.0, 1.0, 1.0), (0.5, 0.559, 0.5, 1.5), 16),
)

_STEPS = re.compile(r"steps=(\d+)")


def observed_order(dxs, errs) -> float:
    """Least-squares slope of log(err) against log(dx)."""
    lx = [math.log(v) for v in dxs]
    ly = [math.log(v) for v in errs]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def study_ok(res, errs) -> tuple[bool, str]:
    if not all(math.isfinite(e) and e > 0.0 for e in errs):
        return False, f"non-finite or zero errors {errs}"
    order = observed_order([1.0 / n for n in res], errs)
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = decreasing and 1.7 <= order <= 2.3 and errs[-1] <= 5e-4
    return ok, f"order {order:.3f} errors {[f'{e:.2e}' for e in errs]}"


def study_op(label: str, spec, exact, res) -> Op:
    def call():
        out = []
        for n in res:
            num = N.solve_ibvp(replace(spec, n_x=n))
            err, _ = N.compare(num, exact)
            out.append((n, int(_STEPS.search(num.scheme_metadata).group(1)), err))
        return out

    def check(out) -> Outcome:
        errs = [e for _, _, e in out]
        ok, detail = study_ok(res, errs)
        steps = sum(s for _, s, _ in out)
        return Outcome(ok, sum(n * s for n, s, _ in out), steps=steps,
                       history_mb=max((s + 1) * (n + 1) * 8 for n, s, _ in out) / 2**20,
                       detail=detail)

    return Op(label, "study", call, check)


class CrossValidate:
    """Manufactured-solution convergence studies at n_x, 2n_x, 4n_x.
    Op = one whole study; the seed shuffles the study order of each pass."""

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def _spec(self, entries, case_id, nu, c1, c2, region, base, f_case=None):
        sol = A.build_solution(entries[case_id], A.RiccatiBranch(nu, c1, c2))
        f = entries[f_case or case_id].f
        return N.IbvpSpec(f=f, region=Region(*region), n_x=base, exact=sol), sol

    def build_pass(self, traced: bool) -> list[Op]:
        entries = {e.id: e for e in C.iter_cases()}
        order = list(range(len(STUDIES)))
        self.rng.shuffle(order)
        ops = []
        for i in order:
            cid, (nu, c1, c2), region, base = STUDIES[i]
            spec, sol = self._spec(entries, cid, nu, c1, c2, region, base)
            ops.append(study_op(f"case{cid}/nu{nu:+g}/n{base}", spec, sol,
                                (base, 2 * base, 4 * base)))
        return ops

    def run_checks(self) -> list[tuple[str, bool, str]]:
        # control: data of case 4's solution driven by case 2's f = -1 is not a
        # manufactured solution of that equation and must not converge
        entries = {e.id: e for e in C.iter_cases()}
        spec, sol = self._spec(entries, 4, -1.0, 1.0, 1.0, (0.0, 0.5, -1.0, 1.0), 16, f_case=2)
        op = study_op("control", spec, sol, (16, 32, 64))
        try:
            outcome = op.check(op.call())
            rejected, detail = not outcome.ok, outcome.detail
        except N.BlowUpError as exc:
            rejected, detail = True, f"blew up: {exc}"
        return [("control: data from another equation does not converge at second order",
                 rejected, detail)]


# -- cli_export --------------------------------------------------------------

def _f_case9(t: float, x: float) -> float:
    return -math.cos(x) ** 2 / (2.0 * t)


class CliExport:
    """``gburgers`` invocations in fresh processes, one at a time.
    Op = one process from start to exit."""

    EVAL_N = 149
    EVAL_REGION = (0.5, 1.5, -0.6, 0.6)
    TRANSFORM_RES = 30
    VERIFY_RES = 50

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.element, target = seeded_element(rng, C.get_case(2).sample_region)
        self.first_output: dict[str, str] = {}
        n, m, v = self.EVAL_N, self.TRANSFORM_RES, self.VERIFY_RES
        self.invocations = [
            ("list", ["list", "--format", "json"], 0),
            ("eval", ["eval", "--case", "9", "--nu=-1", "--c1=1", "--c2=1",
                      "--region", ",".join(map(repr, self.EVAL_REGION)),
                      "--res", f"{n}x{n}"], n * n),
            ("transform", ["transform", "--element", element_json(self.element),
                           "--case", "2", "--nu=-1", "--c1=1", "--c2=1",
                           "--region", ",".join(map(repr, (target.t0, target.t1,
                                                           target.x0, target.x1))),
                           "--res", f"{m}x{m}", "--recheck"], m * m),
            ("verify", ["verify", "--case", "13", "--which", "pfde", "--res", f"{v}x{v}"], v * v),
        ]
        self.trace_dir = None
        self.trace_files: list[str] = []

    def _command(self, args: list[str], traced: bool) -> tuple[list[str], dict]:
        env = dict(os.environ)
        if traced:
            path = os.path.join(self.trace_dir, f"child{len(self.trace_files)}.json")
            self.trace_files.append(path)
            env["GBURGERS_BENCH_TRACE_OUT"] = path
            return [sys.executable, os.path.join(HERE, "traced_cli.py"), *args], env
        return [sys.executable, "-m", "gburgers.cli", *args], env

    def build_pass(self, traced: bool) -> list[Op]:
        ops = []
        for kind, args, points in self.invocations:
            cmd, env = self._command(args, traced)

            def call(cmd=cmd, env=env):
                return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

            ops.append(Op(kind, kind, call, lambda r, k=kind, pts=points: self._check(k, r, pts),
                          points))
        return ops

    def _same_as_first(self, kind: str, text: str) -> bool:
        digest = hashlib.sha256(text.encode()).hexdigest()
        return self.first_output.setdefault(kind, digest) == digest

    def _check(self, kind: str, r, points: int) -> Outcome:
        out = Outcome(r.returncode == 0, points, out_bytes=len(r.stdout.encode()))
        if not out.ok:
            out.detail = f"exit {r.returncode}: {r.stderr.strip()[-200:]}"
            return out
        try:
            if kind == "list":
                rows = json.loads(r.stdout)
                out.ok = [row["id"] for row in rows] == list(range(1, 18))
            elif kind == "eval":
                lines = r.stdout.splitlines()
                out.ok = lines[0] == "t,x,u" and len(lines) == 1 + points
                if out.ok:
                    out.ok, out.detail = self.eval_residual_ok(lines[1:], _f_case9)
            elif kind == "transform":
                meta = json.loads(r.stderr)
                rows = r.stdout.splitlines()[1:]
                out.checked, out.skipped = meta["points_checked"], meta["points_skipped"]
                out.ok = (meta["recheck_pass"] is True and len(rows) == out.checked
                          and out.checked + out.skipped == points)
                out.detail = f"recheck {meta['recheck_max_scaled_residual']:.2e}"
            else:
                rep = json.loads(r.stdout)
                out.checked, out.skipped = rep["points_checked"], rep["points_skipped"]
                out.ok = rep["pass"] is True and out.checked + out.skipped == points
        except (ValueError, KeyError, IndexError) as exc:
            out.ok, out.detail = False, f"unreadable output: {exc}"
        if out.ok and not self._same_as_first(kind, r.stdout + r.stderr):
            out.ok, out.detail = False, "output differs from the first identical invocation"
        return out

    def eval_residual_ok(self, rows: list[str], f) -> tuple[bool, str]:
        """Central-difference GBE residual on the interior of the CSV grid,
        at spacing h and 2h, judged by :func:`fd_check`."""
        n = self.EVAL_N
        vals = [[0.0] * n for _ in range(n)]
        ts = [0.0] * n
        xs = [0.0] * n
        for k, line in enumerate(rows):
            t, x, u = (float(s) for s in line.split(","))
            i, j = divmod(k, n)
            vals[i][j] = u
            ts[i], xs[j] = t, x

        def worst(step):
            ht, hx = ts[step] - ts[0], xs[step] - xs[0]
            r = 0.0
            for i in range(2, n - 2, 2):
                for j in range(2, n - 2, 2):
                    u = vals[i][j]
                    ut = (vals[i + step][j] - vals[i - step][j]) / (2 * ht)
                    ux = (vals[i][j + step] - vals[i][j - step]) / (2 * hx)
                    uxx = (vals[i][j + step] - 2 * u + vals[i][j - step]) / (hx * hx)
                    terms = (ut, u * ux, f(ts[i], xs[j]) * uxx)
                    r = max(r, abs(sum(terms)) / (1.0 + sum(abs(s) for s in terms)))
            return r

        r1, r2 = worst(1), worst(2)
        return fd_check(r1, r2, floor=1e-9), f"fd residual h {r1:.2e} 2h {r2:.2e}"

    def run_checks(self) -> list[tuple[str, bool, str]]:
        # control: the eval grid read against another equation (case 7's f
        # evaluated on the same points) must fail the residual check
        cmd, env = self._command(self.invocations[1][1], traced=False)
        r = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        rows = r.stdout.splitlines()[1:]
        ok, detail = self.eval_residual_ok(rows, lambda t, x: -x * x / (2.0 * t))
        return [("control: eval grid against another case's f rejected", not ok, detail)]


WORKLOADS = {
    "certify_catalog": CertifyCatalog,
    "solution_families": SolutionFamilies,
    "cross_validate": CrossValidate,
    "cli_export": CliExport,
}
