import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gburgers
from gburgers.ansatz import (RiccatiBranch, SolutionField, build_solution,
                             rational_solution, xi_solution)
from gburgers.catalog import get_case
from gburgers.equivalence import (EquivalenceElement, apply_point, apply_u, compose,
                                  identity, inverse, transform_f, transform_solution)
from gburgers.jets import Point, ScalarField, SingularPointError
from gburgers.verify import gbe_residual_scaled, reduced_system_residual_scaled
from oracles import sample_point


def random_element(rng) -> EquivalenceElement:
    while True:
        a, b, g, d, m0, m1, k = rng.uniform(-2.0, 2.0, size=7)
        if abs(a * d - b * g) >= 0.2 and abs(k) >= 0.2:
            return EquivalenceElement(a, b, g, d, m0, m1, k)


def points_close(p: Point, q: Point, tol: float) -> None:
    assert abs(p.t - q.t) <= tol * (1.0 + abs(q.t))
    assert abs(p.x - q.x) <= tol * (1.0 + abs(q.x))


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EquivalenceElement(1.0, 2.0, 1.0, 2.0)  # det = 0
        with pytest.raises(ValueError):
            EquivalenceElement(1.0, 0.0, 0.0, 1.0, kappa=0.0)
        for name in ("alpha", "beta", "gamma", "delta", "mu0", "mu1", "kappa"):
            for v in (math.inf, -math.inf, math.nan):
                d = {**identity().to_dict(), name: v}
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    EquivalenceElement.from_dict(d)

    def test_canonical_normalization(self):
        g = EquivalenceElement(2.0, 0.0, 0.0, 2.0)
        assert (g.alpha, g.beta, g.gamma, g.delta) == (1.0, 0.0, 0.0, 1.0)
        g2 = EquivalenceElement(-1.0, 0.0, 0.0, -1.0)
        assert g2.alpha == 1.0 and g2.delta == 1.0  # sign fixed
        g3 = EquivalenceElement(0.0, -1.0, 1.0, 0.0)
        assert g3.beta == 1.0 and g3.gamma == -1.0
        assert abs(abs(g3.det) - 1.0) <= 1e-15

    def test_serialization_round_trip(self):
        g = random_element(np.random.default_rng(0))
        d = json.loads(json.dumps(g.to_dict()))
        assert EquivalenceElement.from_dict(d) == g
        with pytest.raises(ValueError):
            EquivalenceElement.from_dict({"alpha": 1.0})


class TestPointAction:
    def test_identity(self):
        assert apply_point(identity(), Point(1.0, 2.0)) == Point(1.0, 2.0)
        assert apply_u(identity(), Point(1.0, 2.0), 5.0) == 5.0

    def test_galilean_boost(self):
        g = EquivalenceElement.galilean(3.0)
        assert apply_point(g, Point(1.0, 2.0)) == Point(1.0, 5.0)
        assert apply_u(g, Point(1.0, 2.0), 0.5) == 3.5

    def test_space_scaling(self):
        g = EquivalenceElement(1.0, 0.0, 0.0, 1.0, kappa=2.0)
        assert apply_point(g, Point(1.0, 2.0)) == Point(1.0, 4.0)
        assert apply_u(g, Point(1.0, 2.0), 5.0) == 10.0

    def test_projective_singularity(self):
        g = EquivalenceElement(0.0, -1.0, 1.0, 0.0)  # t -> -1/t
        with pytest.raises(SingularPointError):
            apply_point(g, Point(0.0, 1.0))
        with pytest.raises(SingularPointError):
            apply_u(g, Point(0.0, 1.0), 1.0)

    def test_array_points_map_elementwise_and_nan_where_singular(self):
        g = EquivalenceElement(1.0, 0.5, 1.0, -1.0, mu0=0.3, mu1=-0.2, kappa=2.0)
        ts, xs = [0.0, 1.0, 2.0, 0.5], [1.0, -1.0, 0.5, 3.0]  # gamma*t + delta = 0 at t = 1
        q = apply_point(g, Point(np.array(ts), np.array(xs)))
        assert math.isnan(q.t[1]) and math.isnan(q.x[1])
        for i in (0, 2, 3):
            assert (q.t[i], q.x[i]) == tuple(apply_point(g, Point(ts[i], xs[i])))


class TestQuadrupleScalingInvariance:
    @pytest.mark.parametrize("s", [-2.0, 0.5, 10.0])
    def test_actions_unchanged(self, s):
        rng = np.random.default_rng(21)
        for _ in range(40):
            prm = rng.uniform(-2.0, 2.0, size=7)
            if abs(prm[0] * prm[3] - prm[1] * prm[2]) < 0.2 or abs(prm[6]) < 0.2:
                continue
            g = EquivalenceElement(*prm)
            gs = EquivalenceElement(s * prm[0], s * prm[1], s * prm[2], s * prm[3],
                                    prm[4], prm[5], prm[6])
            for _ in range(5):
                p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
                u = float(rng.uniform(-2, 2))
                try:
                    q1, q2 = apply_point(g, p), apply_point(gs, p)
                    u1, u2 = apply_u(g, p, u), apply_u(gs, p, u)
                except SingularPointError:
                    continue
                points_close(q1, q2, 1e-12)
                assert abs(u1 - u2) <= 1e-12 * (1.0 + abs(u1))
            ff = ScalarField(lambda T, X: -1.0 - 0.5 * X)
            p = Point(0.25, 0.5)
            try:
                v1 = transform_f(g, ff).value(*p)
                v2 = transform_f(gs, ff).value(*p)
                assert abs(v1 - v2) <= 1e-12 * (1.0 + abs(v1))
            except Exception:
                pass


class TestGroupAxioms:
    def test_compose_against_direct_action(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 100:
            g1, g2 = random_element(rng), random_element(rng)
            gc = compose(g1, g2)
            p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
            u = float(rng.uniform(-2, 2))
            try:
                mid = apply_point(g2, p)
                q_direct = apply_point(g1, mid)
                u_direct = apply_u(g1, mid, apply_u(g2, p, u))
                q_comp = apply_point(gc, p)
                u_comp = apply_u(gc, p, u)
            except SingularPointError:
                continue
            checked += 1
            points_close(q_comp, q_direct, 1e-12)
            assert abs(u_comp - u_direct) <= 1e-12 * (1.0 + abs(u_direct))

    def test_inverse_acts_as_identity(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            g = random_element(rng)
            left = compose(inverse(g), g)
            right = compose(g, inverse(g))
            p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
            u = float(rng.uniform(-2, 2))
            try:
                pl, pr = apply_point(left, p), apply_point(right, p)
                ul, ur = apply_u(left, p, u), apply_u(right, p, u)
            except SingularPointError:
                continue
            checked += 1
            points_close(pl, p, 1e-12)
            points_close(pr, p, 1e-12)
            assert abs(ul - u) <= 1e-12 * (1.0 + abs(u))
            assert abs(ur - u) <= 1e-12 * (1.0 + abs(u))

    def test_double_inverse(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            g = random_element(rng)
            gg = inverse(inverse(g))
            p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                points_close(apply_point(gg, p), apply_point(g, p), 1e-12)
            except SingularPointError:
                continue

    def test_identity_is_neutral(self):
        g = random_element(np.random.default_rng(25))
        p = Point(0.3, -0.8)
        points_close(apply_point(compose(identity(), g), p), apply_point(g, p), 1e-15)
        points_close(apply_point(compose(g, identity()), p), apply_point(g, p), 1e-15)

    def test_boosts_add(self):
        gc = compose(EquivalenceElement.galilean(2.0), EquivalenceElement.galilean(-0.5))
        gs = EquivalenceElement.galilean(1.5)
        for p in (Point(0.4, 1.0), Point(-1.2, 0.3)):
            points_close(apply_point(gc, p), apply_point(gs, p), 1e-15)


# (alpha, beta, gamma, delta) with nearly proportional rows.  The element
# and its adjugate (delta, -beta, -gamma, alpha) are each nonsingular, but the
# determinant of their product cancels to exactly 0.0 in floating point.
NEAR_SINGULAR_QUAD = (179237169.92185026, 170117769.6533156,
                      49784384.87945398, 47251407.29987896)


class TestComposeSingularProduct:
    def test_raises_value_error(self):
        a, b, g, d = NEAR_SINGULAR_QUAD
        with pytest.raises(ValueError):
            compose(EquivalenceElement(a, b, g, d), EquivalenceElement(d, -b, -g, a))

    def test_raises_value_error_under_optimize(self):
        # python -O strips assert statements, so the check must not be one
        code = ("from gburgers.equivalence import EquivalenceElement, compose\n"
                f"a, b, g, d = {NEAR_SINGULAR_QUAD!r}\n"
                "try:\n"
                "    compose(EquivalenceElement(a, b, g, d), EquivalenceElement(d, -b, -g, a))\n"
                "except ValueError:\n"
                "    print('ValueError')\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(gburgers.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                           capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "ValueError"


class TestTransformF:
    def test_identity(self):
        f = ScalarField(lambda T, X: -1.0)
        assert transform_f(identity(), f).value(0.7, -0.4) == -1.0

    def test_space_scaling_multiplies_by_kappa_squared(self):
        g = EquivalenceElement(1.0, 0.0, 0.0, 1.0, kappa=2.0)
        f = ScalarField(lambda T, X: -1.0)
        ft = transform_f(g, f)
        for p in (Point(0.0, 0.0), Point(1.0, 3.0)):
            assert ft.value(*p) == -4.0

    def test_galilean_shear(self):
        mu = 3.0
        g = EquivalenceElement.galilean(mu)
        f = ScalarField(lambda T, X: -1.0 - X * X)
        ft = transform_f(g, f)
        for tt, xx in ((0.5, 1.0), (2.0, -0.7)):
            assert ft.value(tt, xx) == pytest.approx(f.value(tt, xx - mu * tt), rel=1e-14)

    def test_singular_preimage(self):
        g = EquivalenceElement(0.0, -1.0, 1.0, 0.0)  # t~ = -1/t
        f = ScalarField(lambda T, X: -1.0 - X * X)
        from gburgers.jets import EvaluationError
        with pytest.raises(EvaluationError):
            transform_f(g, f).value(0.0, 1.0)


class TestTransformSolution:
    def test_identity_keeps_values(self):
        sol = xi_solution(get_case(7))
        tsol = transform_solution(identity(), sol)
        p = Point(1.3, 2.1)
        assert tsol.u.value(*p) == pytest.approx(sol.u.value(*p), rel=1e-14)

    def test_boosted_front_still_solves(self):
        sol = build_solution(get_case(2), RiccatiBranch(-1.0, 1.0, 1.0))
        g = EquivalenceElement.galilean(3.0)
        tsol = transform_solution(g, sol)
        rng = np.random.default_rng(26)
        for _ in range(50):
            p = Point(rng.uniform(0, 1), rng.uniform(-2, 2))
            assert gbe_residual_scaled(tsol.u, tsol.f, p) <= 1e-10

    def test_rational_under_space_scaling(self):
        c1, c2 = 1.0, 2.0
        sol = rational_solution(c1, c2, ScalarField(lambda T, X: -1.0))
        g = EquivalenceElement(1.0, 0.0, 0.0, 1.0, kappa=2.0)
        tsol = transform_solution(g, sol)
        rng = np.random.default_rng(27)
        for _ in range(20):
            t, x = rng.uniform(-1, 1), rng.uniform(-3, 3)
            if abs(t + c2) < 0.2:
                continue
            assert tsol.u.value(t, x) == pytest.approx((x + 2 * c1) / (t + c2), rel=1e-13)

    def test_validity_follows_preimage(self):
        sol = xi_solution(get_case(7))  # invalid at x = 0
        g = EquivalenceElement.galilean(1.0)  # preimage of (t, x) is (t, x - t)
        tsol = transform_solution(g, sol)
        assert not tsol.valid(Point(1.0, 1.0))
        assert tsol.valid(Point(1.0, 2.5))

    def test_provenance_chains(self):
        sol = xi_solution(get_case(4))
        tsol = transform_solution(identity(), sol)
        assert tsol.provenance == "transformed(xi-as-solution(case 4))"


@pytest.mark.parametrize("case_id", [2, 4, 7, 10, 13])
def test_action_consistency_on_catalog_solutions(case_id):
    """Pushing a verified solution through random elements preserves the
    residual against the pushed-forward arbitrary element."""
    entry = get_case(case_id)
    sol = xi_solution(entry)
    rng = np.random.default_rng(30 + case_id)
    for _ in range(5):
        g = random_element(rng)
        tsol = transform_solution(g, sol)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 4000:
            attempts += 1
            p = sample_point(entry.sample_region, rng)
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
            checked += 1
            assert r <= 1e-9
        assert checked >= 10


def test_reduced_pair_covariance_time_affine_subgroup():
    """(f, xi) pushed through gamma = 0 elements still satisfies the
    reduced pair.

    Only the time-affine subgroup preserves the (tau = 1, eta = 0) operator
    form; projective time maps turn on an eta-component (see the full-group
    test below), so the plain pair check is restricted to gamma = 0.
    """
    entry = get_case(2)
    sol_xi = SolutionField(u=entry.xi, f=entry.f, provenance="xi", valid=entry.valid)
    rng = np.random.default_rng(31)
    for _ in range(10):
        a, b, d, m0, m1, k = rng.uniform(-2.0, 2.0, size=6)
        if abs(a * d) < 0.2 or abs(k) < 0.2:
            continue
        g = EquivalenceElement(a, b, 0.0, d, m0, m1, k)
        ft = transform_f(g, entry.f)
        xit = transform_solution(g, sol_xi).u
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 2000:
            attempts += 1
            p = sample_point(entry.sample_region, rng)
            try:
                q = apply_point(g, p)
                r = reduced_system_residual_scaled(ft, xit, q)
            except Exception:
                continue
            checked += 1
            assert r <= 1e-9
        assert checked >= 10


def _pushed_operator(g, entry):
    """Full pushforward of Q = d_t + xi*d_x, renormalized to tau = 1.

    Projective time maps (gamma != 0) induce a u-component
    eta~ = eta1~*u + eta0~ with eta1~ = gamma*(gamma*t + delta)/det and
    eta0~ = -eta1~ * xi~, where t is the preimage time.
    """
    from gburgers.equivalence import inverse
    from gburgers.verify import ReductionOperatorCoefficients

    gi = inverse(g)
    sol = SolutionField(u=entry.xi, f=entry.f, provenance="xi", valid=entry.valid)
    xi_t = transform_solution(g, sol).u

    def eta1_expr(T, X):
        den = gi.gamma * T + gi.delta
        t = (gi.alpha * T + gi.beta) / den
        return g.gamma * (g.gamma * t + g.delta) / g.det

    eta1 = ScalarField(eta1_expr, name="pushed-eta1")
    eta0 = ScalarField(lambda T, X: -eta1_expr(T, X) * xi_t.expr(T, X),
                       name="pushed-eta0")
    zero = ScalarField(lambda T, X: 0.0, name="0")
    return (ReductionOperatorCoefficients(zero, xi_t, eta1, eta0),
            transform_f(g, entry.f))


def test_full_group_operator_covariance():
    """Pushing the whole reduction operator through arbitrary elements
    keeps all five determining equations satisfied for the transformed
    arbitrary element."""
    from gburgers.verify import determining_residuals

    entry = get_case(2)
    rng = np.random.default_rng(32)
    for _ in range(10):
        g = random_element(rng)
        coeffs, ft = _pushed_operator(g, entry)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 2000:
            attempts += 1
            p = sample_point(entry.sample_region, rng)
            try:
                q = apply_point(g, p)
                r = determining_residuals(ft, coeffs, q).max_scaled
            except Exception:
                continue
            checked += 1
            assert r <= 1e-9
        assert checked >= 10
