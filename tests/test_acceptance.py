"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own status.
"""

import math
import time

import numpy as np
import pytest

from gburgers.ansatz import RiccatiBranch, build_solution, phi, rational_solution, \
    riccati_residual, xi_solution
from gburgers.catalog import get_case, iter_cases
from gburgers.equivalence import (EquivalenceElement, apply_point, apply_u, compose,
                                  identity, inverse, transform_solution)
from gburgers.jets import Point, Region, ScalarField, SingularPointError, cos, sin
from gburgers.numsolve import IbvpSpec, convergence_study
from gburgers.verify import (RELATIONS, ReductionOperatorCoefficients, determining_residuals,
                             gbe_residual_scaled, gfde_residual_scaled,
                             pfde_residual_scaled, sweep)
from oracles import case5_theta_reduction_check, fd_jet


def report(number: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number:2d} ({name}): {detail} [{elapsed:.1f} s]")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def entries():
    return iter_cases()


# -- criterion 1: catalog soundness ------------------------------------------

def test_criterion_01_catalog_soundness(entries):
    t0 = time.time()
    worst = 0.0
    for e in entries:
        for name in ("pfde", "potential", "reduced"):
            rep = sweep(RELATIONS[name](e), e.sample_region, 50, 50, valid=e.valid)
            worst = max(worst, rep.max_abs_residual)
    elapsed = time.time() - t0
    report(1, "catalog soundness", worst <= 1e-10 and elapsed < 10.0,
           f"max scaled residual {worst:.2e} over 17 cases x 3 systems", elapsed)


# -- criterion 2: solution families ------------------------------------------

def _theta_range(entry, region, n=25):
    ts, xs = region.grid(n, n)
    lo, hi = math.inf, -math.inf
    for t in ts:
        for x in xs:
            p = Point(float(t), float(x))
            if not entry.valid(p):
                continue
            v = entry.theta.value(*p)
            lo, hi = min(lo, v), max(hi, v)
    return lo, hi


def _shrink_for_theta_width(entry, region, max_width):
    """Deterministically halve the region until theta's range fits; needed
    by the oscillatory branch, whose poles repeat with period pi."""
    reg = region
    for i in range(10):
        lo, hi = _theta_range(entry, reg)
        if hi - lo <= max_width:
            return reg, (lo, hi)
        tc, xc = (reg.t0 + reg.t1) / 2, (reg.x0 + reg.x1) / 2
        if i % 2 == 0:
            reg = Region(reg.t0, reg.t1, xc - (reg.x1 - reg.x0) / 4,
                         xc + (reg.x1 - reg.x0) / 4)
        else:
            reg = Region(tc - (reg.t1 - reg.t0) / 4, tc + (reg.t1 - reg.t0) / 4,
                         reg.x0, reg.x1)
    return reg, _theta_range(entry, reg)


def _pole_free_branches(entry):
    """Three (c1, c2) choices per branch sign with poles outside the sweep
    region: positive constants for the hyperbolic branch, poles pushed past
    max(theta) for the rational branch, pole phase centered away from
    theta's range for the oscillatory branch."""
    region = entry.sample_region
    plans = [(-1.0, region, [(1.0, 1.0), (3.0, 1.0), (1.0, 3.0)])]
    lo, hi = _theta_range(entry, region)
    plans.append((0.0, region, [(-(hi + 1.0 + j), 1.0) for j in range(3)]))
    reg1, (lo1, hi1) = _shrink_for_theta_width(entry, region, math.pi - 0.6)
    mid = (lo1 + hi1) / 2
    plans.append((1.0, reg1, [(math.cos(mid + s), math.sin(mid + s))
                              for s in (0.0, 0.15, -0.15)]))
    return plans


def test_criterion_02_solution_families(entries):
    t0 = time.time()
    worst = 0.0
    sweeps = 0
    for e in entries:
        for nu, reg, c_choices in _pole_free_branches(e):
            for c1, c2 in c_choices:
                sol = build_solution(e, RiccatiBranch(nu, c1, c2))
                rep = sweep(lambda p: gbe_residual_scaled(sol.u, sol.f, p),
                            reg, 50, 50, valid=sol.valid)
                assert rep.points_checked >= 1000
                worst = max(worst, rep.max_abs_residual)
                sweeps += 1
    elapsed = time.time() - t0
    report(2, "solution families", worst <= 1e-9 and sweeps == 153 and elapsed < 60.0,
           f"max scaled residual {worst:.2e} over {sweeps} sweeps", elapsed)


# -- criterion 3: xi as solution ---------------------------------------------

def test_criterion_03_xi_as_solution(entries):
    t0 = time.time()
    worst = 0.0
    for e in entries:
        sol = xi_solution(e)
        rep = sweep(lambda p: gbe_residual_scaled(sol.u, sol.f, p),
                    e.sample_region, 50, 50, valid=sol.valid)
        worst = max(worst, rep.max_abs_residual)
    elapsed = time.time() - t0
    report(3, "xi as solution", worst <= 1e-10,
           f"max scaled residual {worst:.2e} over 17 cases", elapsed)


# -- criterion 4: rational family universality --------------------------------

def _random_smooth_fields(rng, n):
    fields = []
    for _ in range(n):
        a = rng.uniform(-2.0, 2.0, size=4)
        b = rng.uniform(0.3, 2.0, size=4)
        off = float(rng.uniform(2.0, 4.0))
        fields.append(ScalarField(
            lambda T, X, a=a, b=b, off=off:
                off + a[0] * sin(b[0] * T + b[1] * X) + a[1] * cos(b[2] * X)
                + a[2] * sin(b[3] * T) + a[3] * cos(T - X)))
    return fields


def test_criterion_04_rational_family_universality():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst = 0.0
    for f in _random_smooth_fields(rng, 5):
        c1, c2 = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        sol = rational_solution(c1, c2, f)
        n = 0
        while n < 200:
            p = Point(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            if not sol.valid(p):
                continue
            n += 1
            ju = sol.u.jet(p)
            jf = f.jet(p)
            r = ju.d_t + ju.v * ju.d_x + jf.v * ju.d_xx
            scale = 1.0 + abs(ju.d_t) + abs(ju.v * ju.d_x) + abs(jf.v * ju.d_xx)
            worst = max(worst, abs(r) / scale)
    elapsed = time.time() - t0
    report(4, "rational family universality", worst <= 1e-12,
           f"max scaled residual {worst:.2e} at 1000 points / 5 fields", elapsed)


# -- criterion 5: Riccati identity --------------------------------------------

def test_criterion_05_riccati_identity():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    checked = 0
    while checked < 1000:
        nu = float(rng.uniform(-2.0, 2.0))
        if rng.uniform() < 0.2:
            nu = 0.0
        c1, c2 = rng.uniform(-2.0, 2.0, size=2)
        if abs(c1) + abs(c2) < 0.1:
            continue
        om = float(rng.uniform(-3.0, 3.0))
        b = RiccatiBranch(nu, float(c1), float(c2))
        try:
            v = phi(b, om)
            r = riccati_residual(b, om)
        except SingularPointError:
            continue
        checked += 1
        worst = max(worst, abs(r) / (1.0 + v * v))
    elapsed = time.time() - t0
    report(5, "Riccati identity", worst <= 1e-12,
           f"max scaled residual {worst:.2e} over 1000 branch samples", elapsed)


# -- criterion 6: equivalence group -------------------------------------------

def _random_element(rng):
    while True:
        a, b, g, d, m0, m1, k = rng.uniform(-2.0, 2.0, size=7)
        if abs(a * d - b * g) >= 0.2 and abs(k) >= 0.2:
            return EquivalenceElement(a, b, g, d, m0, m1, k)


def _close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + abs(b))


def test_criterion_06_equivalence_group(entries):
    t0 = time.time()
    rng = np.random.default_rng(606)

    # group axioms at action level
    axioms_ok = True
    checked = 0
    while checked < 100:
        g1, g2 = _random_element(rng), _random_element(rng)
        gc = compose(g1, g2)
        gi = compose(g1, inverse(g1))
        p = Point(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        u = float(rng.uniform(-2, 2))
        try:
            mid = apply_point(g2, p)
            q_direct, q_comp = apply_point(g1, mid), apply_point(gc, p)
            u_direct = apply_u(g1, mid, apply_u(g2, p, u))
            u_comp = apply_u(gc, p, u)
            p_id = apply_point(gi, p)
            p_e = apply_point(compose(identity(), g1), p)
            p_g = apply_point(g1, p)
        except SingularPointError:
            continue
        checked += 1
        axioms_ok &= _close(q_comp.t, q_direct.t, 1e-12) and _close(q_comp.x, q_direct.x, 1e-12)
        axioms_ok &= _close(u_comp, u_direct, 1e-12)
        axioms_ok &= _close(p_id.t, p.t, 1e-12) and _close(p_id.x, p.x, 1e-12)
        axioms_ok &= _close(p_e.t, p_g.t, 1e-12) and _close(p_e.x, p_g.x, 1e-12)

    # transformed solutions keep solving the transformed equations
    pool = [xi_solution(get_case(7)), xi_solution(get_case(9)),
            build_solution(get_case(2), RiccatiBranch(-1.0, 1.0, 1.0)),
            build_solution(get_case(4), RiccatiBranch(-1.0, 1.0, 1.0))]
    regions = [get_case(7).sample_region, get_case(9).sample_region,
               get_case(2).sample_region, get_case(4).sample_region]
    worst_push = 0.0
    for i in range(20):
        g = _random_element(rng)
        sol = pool[i % len(pool)]
        src = regions[i % len(pool)]
        tsol = transform_solution(g, sol)
        n = 0
        attempts = 0
        while n < 20 and attempts < 4000:
            attempts += 1
            p = src.sample(rng)
            if not sol.valid(p):
                continue
            try:
                q = apply_point(g, p)
            except SingularPointError:
                continue
            if not tsol.valid(q):
                continue
            try:
                r = gbe_residual_scaled(tsol.u, tsol.f, q)
            except Exception:
                continue
            n += 1
            worst_push = max(worst_push, r)
        assert n >= 10, f"too few image points for element {i}"

    # the drift map x -> x + mu*t sends solutions with constant drift term
    # back to plain potential fast diffusion solutions
    worst_boost = 0.0
    for case_id, mu in ((2, 3.0), (7, -1.5)):
        e = get_case(case_id)
        base = e.theta
        drifted = ScalarField(lambda T, X, mu=mu, base=base: base.expr(T, X + mu * T))
        undrifted = ScalarField(lambda T, X, mu=mu, d=drifted: d.expr(T, X - mu * T))
        n = 0
        while n < 50:
            p = e.sample_region.sample(rng)
            if not e.valid(p):
                continue
            n += 1
            worst_boost = max(worst_boost,
                              gfde_residual_scaled(drifted, lambda w: mu, p),
                              pfde_residual_scaled(undrifted, p))
    elapsed = time.time() - t0
    ok = axioms_ok and worst_push <= 1e-9 and worst_boost <= 1e-10
    report(6, "equivalence group",
           ok, f"axioms 1e-12 {'ok' if axioms_ok else 'VIOLATED'}, "
               f"push residual {worst_push:.2e}, boost residual {worst_boost:.2e}",
           elapsed)


# -- criterion 7: determining-system reduction ---------------------------------

def test_criterion_07_determining_system_reduction(entries):
    t0 = time.time()
    worst_xi = 0.0
    worst_common = 0.0
    common = ReductionOperatorCoefficients.common_operator()
    for e in entries:
        rep = sweep(RELATIONS["determining"](e), e.sample_region, 20, 20, valid=e.valid)
        worst_xi = max(worst_xi, rep.max_abs_residual)
        rep_c = sweep(lambda p: determining_residuals(e.f, common, p).max_scaled,
                      e.sample_region, 20, 20, valid=e.valid)
        worst_common = max(worst_common, rep_c.max_abs_residual)
    elapsed = time.time() - t0
    report(7, "determining-system reduction",
           worst_xi <= 1e-10 and worst_common <= 1e-10,
           f"catalog operators {worst_xi:.2e}, common operator {worst_common:.2e}",
           elapsed)


# -- criterion 8: AD correctness -----------------------------------------------

def test_criterion_08_ad_correctness(entries):
    t0 = time.time()
    third = ("d_ttt", "d_ttx", "d_txx", "d_xxx")
    names = ("v", "d_t", "d_x", "d_tt", "d_tx", "d_xx") + third
    worst2 = 0.0
    worst3 = 0.0
    for e in entries:
        rng = np.random.default_rng(808 + e.id)
        n = 0
        while n < 20:
            p = e.sample_region.sample(rng)
            if not e.valid(p):
                continue
            n += 1
            for field in (e.f, e.xi, e.theta):
                ja = field.jet(p)
                jb = fd_jet(field, p, h=2.5e-4)
                for name, ea, eb in zip(names, ja.entries(), jb.entries()):
                    d = abs(ea - eb) / (1.0 + abs(ea))
                    if name in third:
                        worst3 = max(worst3, d)
                    else:
                        worst2 = max(worst2, d)
    elapsed = time.time() - t0
    report(8, "AD correctness", worst2 <= 1e-5 and worst3 <= 1e-3,
           f"orders<=2 {worst2:.2e} (tol 1e-5), order 3 {worst3:.2e} (tol 1e-3)",
           elapsed)


# -- criterion 9: numerical cross-validation -----------------------------------

def test_criterion_09_numerical_cross_validation():
    t0 = time.time()
    studies = [
        (2, build_solution(get_case(2), RiccatiBranch(-1.0, 1.0, 1.0)),
         Region(0.0, 1.0, -2.0, 2.0)),
        # theta of case 7 spans [-3, -2/3] here, so the pole sits at -4
        (7, build_solution(get_case(7), RiccatiBranch(0.0, 4.0, 1.0)),
         Region(1.0, 1.5, 1.0, 3.0)),
        (4, build_solution(get_case(4), RiccatiBranch(-1.0, 1.0, 1.0)),
         Region(0.0, 0.5, -1.0, 1.0)),
    ]
    ok = True
    details = []
    for case_id, sol, region in studies:
        spec = IbvpSpec(f=get_case(case_id).f, region=region, n_x=32, exact=sol)
        rep = convergence_study(spec, [32, 64, 128])
        good = 1.7 <= rep.observed_order <= 2.3 and rep.max_errors[-1] <= 5e-4
        ok &= good
        details.append(f"case {case_id}: order {rep.observed_order:.2f}, "
                       f"err128 {rep.max_errors[-1]:.1e}")
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(9, "numerical cross-validation", ok, "; ".join(details), elapsed)


# -- criterion 10: case 5 quadrature -------------------------------------------

def test_criterion_10_case5_quadrature():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    worst_red = 0.0
    n = 0
    while n < 50:
        t = float(rng.uniform(0.3, 3.0))
        w = float(rng.uniform(1.2, 6.0))
        p = Point(t, w * t)
        n += 1
        worst_red = max(worst_red, case5_theta_reduction_check(p))

    e5 = get_case(5, 1.0)
    rep = sweep(lambda p: pfde_residual_scaled(e5.theta, p),
                e5.sample_region, 50, 50, valid=e5.valid)
    elapsed = time.time() - t0
    report(10, "case 5 quadrature",
           worst_red <= 1e-10 and rep.max_abs_residual <= 1e-9,
           f"lam=0 closed-form mismatch {worst_red:.2e}, "
           f"lam=1 PFDE residual {rep.max_abs_residual:.2e}", elapsed)
