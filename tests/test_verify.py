import math

import numpy as np
import pytest

from gburgers import jets
from gburgers.ansatz import RiccatiBranch, build_solution
from gburgers.catalog import get_case, iter_cases
from gburgers.equivalence import EquivalenceElement, apply_point, transform_solution
from gburgers.jets import EvaluationError, Point, Region, ScalarField, exp, tanh
from gburgers.verify import (RELATIONS, DegenerateGradientError, EmptySweepError, SweepReport,
                             LinearReductionOperator, ReductionOperatorCoefficients,
                             VanishingCoefficientError, determining_residuals,
                             evaluate_grid, gbe_residual, gbe_residual_scaled, gfde_residual,
                             gfde_residual_scaled,
                             linear_operator_fields, pfde_residual,
                             pfde_residual_scaled, potential_residual,
                             potential_residual_scaled,
                             reduced_system_residual, reduced_system_residual_scaled,
                             sweep)
from oracles import fd_jet, sample_point

F_MINUS_ONE = ScalarField(lambda T, X: -1.0, name="-1")
ZERO = ScalarField(lambda T, X: 0.0, name="0")


def valid_points(entry, n, seed=0):
    rng = np.random.default_rng(seed + entry.id)
    out = []
    while len(out) < n:
        p = sample_point(entry.sample_region, rng)
        if entry.valid(p):
            out.append(p)
    return out


class TestGbeResidual:
    def test_rational_family_is_exact(self):
        u = ScalarField(lambda T, X: (X + 1.0) / (T + 2.0))
        f = ScalarField(lambda T, X: 7.0)
        assert gbe_residual(u, f, Point(0.0, 0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_stationary_front(self):
        u = ScalarField(lambda T, X: -2.0 * tanh(X))
        assert abs(gbe_residual(u, F_MINUS_ONE, Point(1.0, 0.3))) <= 1e-12

    def test_non_solution(self):
        u = ScalarField(lambda T, X: X)
        assert gbe_residual(u, F_MINUS_ONE, Point(0.0, 2.0)) == pytest.approx(2.0)
        # terms u_t = 0, u*u_x = 2, f*u_xx = 0
        assert gbe_residual_scaled(u, F_MINUS_ONE, Point(0.0, 2.0)) == \
            2.0 / (1.0 + 0.0 + 2.0 + 0.0)


class TestPfdeResidual:
    def test_linear_potential(self):
        theta = ScalarField(lambda T, X: X)
        assert pfde_residual(theta, Point(0.4, -1.0)) == 0.0

    def test_case7_by_hand(self):
        theta = ScalarField(lambda T, X: -2.0 * T / X)
        assert pfde_residual(theta, Point(1.0, 2.0)) == pytest.approx(0.0, abs=1e-15)

    def test_non_solution(self):
        theta = ScalarField(lambda T, X: T + X)
        assert pfde_residual(theta, Point(0.2, 0.9)) == pytest.approx(1.0)
        # terms theta_t = 1, -theta_xx/theta_x = 0
        assert pfde_residual_scaled(theta, Point(0.2, 0.9)) == 1.0 / (1.0 + 1.0 + 0.0)

    def test_degenerate_gradient(self):
        theta = ScalarField(lambda T, X: T)
        with pytest.raises(DegenerateGradientError):
            pfde_residual(theta, Point(0.5, 0.5))


class TestGfdeResidual:
    def test_h_zero_reduces_to_pfde(self):
        for entry in (get_case(2), get_case(7)):
            for p in valid_points(entry, 5):
                assert gfde_residual(entry.theta, lambda w: 0.0, p) == \
                    pfde_residual(entry.theta, p)

    def test_boosted_solution_solves_h_constant(self):
        # theta(t, x+mu*t) turns a plain potential solution into one with drift mu
        mu = 3.0
        base = get_case(2).theta
        shifted = ScalarField(lambda T, X: base.expr(T, X + mu * T))
        assert gfde_residual(shifted, lambda w: mu, Point(0.7, 0.2)) == \
            pytest.approx(0.0, abs=1e-13)

    def test_constant_h_on_linear_theta(self):
        theta = ScalarField(lambda T, X: X)
        assert gfde_residual(theta, lambda w: 1.0, Point(0.0, 0.0)) == pytest.approx(-1.0)
        # terms theta_t = 0, -theta_xx/theta_x = 0, -h*theta_x = -1
        assert gfde_residual_scaled(theta, lambda w: 1.0, Point(0.0, 0.0)) == \
            1.0 / (1.0 + 0.0 + 0.0 + 1.0)


class TestPotentialResidual:
    def test_case2(self):
        e = get_case(2)
        r1, r2 = potential_residual(e.theta, e.f, e.xi, Point(1.0, 2.0))
        assert r1 == 0.0 and r2 == 0.0

    def test_case7(self):
        e = get_case(7)
        r1, r2 = potential_residual(e.theta, e.f, e.xi, Point(1.0, 2.0))
        assert abs(r1) <= 1e-15 and abs(r2) <= 1e-15

    def test_mismatched_pair(self):
        theta = ScalarField(lambda T, X: X)
        f = ScalarField(lambda T, X: 1.0)
        _, r2 = potential_residual(theta, f, ZERO, Point(0.3, 0.3))
        assert r2 == pytest.approx(2.0)
        # terms (theta_t = 0, -xi/f = 0) and (theta_x = 1, 1/f = 1)
        assert potential_residual_scaled(theta, f, ZERO, Point(0.3, 0.3)) == \
            max(0.0 / (1.0 + 0.0 + 0.0), 2.0 / (1.0 + 1.0 + 1.0))

    def test_vanishing_f(self):
        with pytest.raises(VanishingCoefficientError):
            potential_residual(ScalarField(lambda T, X: X), ZERO, ZERO, Point(0.1, 0.1))


class TestReducedSystemResidual:
    def test_case2_everywhere(self):
        e = get_case(2)
        assert reduced_system_residual(e.f, e.xi, Point(-0.7, 1.9)) == (0.0, 0.0)

    def test_case7_hand_values(self):
        e = get_case(7)
        r3, r4 = reduced_system_residual(e.f, e.xi, Point(1.0, 2.0))
        assert abs(r3) <= 1e-15 and abs(r4) <= 1e-15

    def test_non_solution_pair(self):
        xi = ScalarField(lambda T, X: X)
        r3, r4 = reduced_system_residual(F_MINUS_ONE, xi, Point(0.4, 0.9))
        assert r3 == pytest.approx(1.0) and r4 == pytest.approx(0.9)
        # terms (f_t = 0, xi*f_x = 0, -xi_x*f = 1) and (xi_t = 0, xi*xi_x = 0.9, f*xi_xx = 0)
        assert reduced_system_residual_scaled(F_MINUS_ONE, xi, Point(0.4, 0.9)) == \
            max(1.0 / (1.0 + 0.0 + 0.0 + 1.0), 0.9 / (1.0 + 0.0 + 0.9 + 0.0))

    @pytest.mark.parametrize("entry", iter_cases(), ids=lambda e: f"case{e.id}")
    def test_all_cases_on_random_points(self, entry):
        for p in valid_points(entry, 50, seed=3):
            assert reduced_system_residual_scaled(entry.f, entry.xi, p) <= 1e-10


class TestDeterminingResiduals:
    @pytest.mark.parametrize("entry", iter_cases(), ids=lambda e: f"case{e.id}")
    def test_common_operator_for_every_case(self, entry):
        coeffs = ReductionOperatorCoefficients.common_operator()
        for p in valid_points(entry, 10, seed=4):
            assert determining_residuals(entry.f, coeffs, p).max_scaled <= 1e-10

    @pytest.mark.parametrize("entry", iter_cases(), ids=lambda e: f"case{e.id}")
    def test_catalog_xi_satisfies_system(self, entry):
        coeffs = ReductionOperatorCoefficients.from_xi(entry.xi)
        for p in valid_points(entry, 10, seed=5):
            assert determining_residuals(entry.f, coeffs, p).max_scaled <= 1e-10

    def test_forbidden_u_coefficient(self):
        # xi1 = 1/2 violates the cubic constraint: (1/2)(-1/2)(2) = -1/2
        half = ScalarField(lambda T, X: 0.5)
        coeffs = ReductionOperatorCoefficients(half, ZERO, ZERO, ZERO)
        res = determining_residuals(F_MINUS_ONE, coeffs, Point(0.2, 0.2))
        assert res.residuals[0] == pytest.approx(-0.5)

    def test_vanishing_f(self):
        coeffs = ReductionOperatorCoefficients.common_operator()
        with pytest.raises(VanishingCoefficientError):
            determining_residuals(ZERO, coeffs, Point(0.0, 0.0))

    def test_fifth_equation_catches_bad_eta(self):
        # eta0 = x breaks the last equation (eta_t + u*eta_x + ... != 0)
        coeffs = ReductionOperatorCoefficients(
            ZERO, ZERO, ZERO, ScalarField(lambda T, X: X))
        res = determining_residuals(F_MINUS_ONE, coeffs, Point(0.2, 0.7))
        assert res.scaled[4] > 0.1


class TestLinearOperators:
    def test_trivial_operator_needs_time_independent_f(self):
        q = LinearReductionOperator(c=1.0)
        coeffs = linear_operator_fields(q)
        f_static = ScalarField(lambda T, X: -1.0 - X * X)
        for p in (Point(0.1, 0.4), Point(-0.6, 1.2)):
            assert determining_residuals(f_static, coeffs, p).max_scaled <= 1e-12
        f_moving = ScalarField(lambda T, X: -1.0 - T * T)
        assert determining_residuals(f_moving, coeffs, Point(1.0, 0.0)).max_scaled > 1e-3

    def test_field_formulas(self):
        q = LinearReductionOperator(a=0.0, b1=1.0, b2=0.0, c=1.0)
        coeffs = linear_operator_fields(q)
        p = Point(1.0, 3.0)
        assert coeffs.xi0.value(*p) == pytest.approx(3.0 / 2.0)
        assert coeffs.eta1.value(*p) == 0.0
        assert coeffs.eta0.value(*p) == 0.0
        assert coeffs.xi1.value(*p) == 0.0

    def test_scaling_lie_operator_of_burgers(self):
        # Q = d_t + x/(t+1) d_x - u/(t+1) d_u is admitted by f = const
        q = LinearReductionOperator(a=0.0, b1=1.0, b2=1.0, c=1.0)
        coeffs = linear_operator_fields(q)
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = Point(rng.uniform(0, 1), rng.uniform(-1, 1))
            assert determining_residuals(F_MINUS_ONE, coeffs, p).max_scaled <= 1e-12

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(ValueError):
            LinearReductionOperator(a=0.0, b1=1.0, b2=-1.0, c=0.0, d0=1.0)

    def test_denominator_zero_at_point(self):
        q = LinearReductionOperator(b1=1.0)  # D = t
        coeffs = linear_operator_fields(q)
        from gburgers.jets import EvaluationError
        with pytest.raises(EvaluationError):
            coeffs.xi0.jet(Point(0.0, 1.0))


class TestSweep:
    def test_case2_front(self):
        u = ScalarField(lambda T, X: -2.0 * tanh(X))
        rep = sweep(lambda p: gbe_residual_scaled(u, F_MINUS_ONE, p),
                    Region(0.0, 1.0, -2.0, 2.0), 50, 50)
        assert rep.max_abs_residual <= 1e-12
        assert rep.points_checked == 2500
        assert rep.points_skipped == 0

    def test_case7_pfde(self):
        e = get_case(7)
        rep = sweep(lambda p: pfde_residual_scaled(e.theta, p),
                    Region(1.0, 2.0, 1.0, 3.0), 50, 50)
        assert rep.max_abs_residual <= 1e-10

    def test_singular_line_is_skipped_and_counted(self):
        e = get_case(7)
        rep = sweep(lambda p: pfde_residual_scaled(e.theta, p),
                    Region(1.0, 2.0, -1.0, 1.0), 9, 9, valid=e.valid)
        assert rep.points_skipped == 9  # the x = 0 column
        assert rep.points_checked == 72

    def test_empty_sweep(self):
        e = get_case(7)
        with pytest.raises(EmptySweepError):
            sweep(lambda p: pfde_residual_scaled(e.theta, p),
                  Region(1.0, 2.0, 0.0, 0.0), 5, 5, valid=e.valid)

    def test_residual_fn_sees_valid_points_once_in_row_major_order(self):
        e = get_case(7)
        calls = []

        def fn(p):
            calls.append(p)
            return np.zeros(len(p.t))

        rep = sweep(fn, Region(1.0, 2.0, -1.0, 1.0), 3, 5, valid=e.valid)
        assert len(calls) == 1
        ts, xs = calls[0]
        assert ts.tolist() == [1.0] * 4 + [1.5] * 4 + [2.0] * 4
        assert xs.tolist() == [-1.0, -0.5, 0.5, 1.0] * 3
        assert (rep.points_checked, rep.points_skipped) == (12, 3)
        assert rep.argmax == Point(1.0, -1.0)

    def test_the_evaluator_keeps_the_grid_with_nan_where_no_value(self):
        region = Region(1.0, 2.0, -1.0, 1.0)
        grid, values = evaluate_grid(lambda p: p.x, region, 3, 5, valid=get_case(7).valid)
        want = region.points(3, 5)
        assert grid.t.tolist() == want.t.tolist() and grid.x.tolist() == want.x.tolist()
        assert np.array_equal(values, np.where(want.x == 0.0, np.nan, want.x), equal_nan=True)

        def fn(p):
            raise EvaluationError("fails for the whole grid")
        assert np.isnan(evaluate_grid(fn, region, 3, 5)[1]).all()

    def test_batch_evaluation_error_skips_every_point(self):
        def fn(p):
            raise EvaluationError("fails for the whole grid")
        with pytest.raises(EmptySweepError, match=r"\(12 skipped\)"):
            sweep(fn, Region(0, 1, 0, 1), 3, 4)

    def test_non_finite_residuals_are_skipped(self):
        rep = sweep(lambda p: np.where(p.x > 0.0, np.nan, p.x), Region(0, 1, -1, 1), 2, 5)
        assert (rep.points_checked, rep.points_skipped) == (6, 4)
        assert rep.max_abs_residual == 1.0 and rep.argmax == Point(0.0, -1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep(lambda p: 0.0, Region(0, 1, 0, 1), 1, 5)

    def test_report_serialization(self):
        rep = sweep(lambda p: abs(p.x), Region(0, 1, -1, 1), 3, 3)
        d = rep.to_dict()
        assert d["max_abs_residual"] == 1.0
        assert d["argmax"] == {"t": 0.0, "x": -1.0}  # lexicographic tie-break
        assert d["scale_used"] == "relative"


class TestBroadcastGrid:
    """A grid whose points are all valid reaches ``fn`` as a column of t
    and a row of x; one with invalid points as its valid points in 1-D."""

    def test_fn_gets_the_broadcast_pair_only_when_every_point_is_valid(self):
        calls = []

        def fn(p):
            calls.append(p)
            return p.t + p.x

        region = Region(1.0, 2.0, -1.0, 1.0)
        grid, values = evaluate_grid(fn, region, 3, 5, valid=lambda p: p.t > 0.0)
        ts, xs = calls[-1]
        assert ts.shape == (3, 1) and xs.shape == (1, 5)
        assert ts.ravel().tolist() == [1.0, 1.5, 2.0]
        assert xs.ravel().tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert values.tolist() == (grid.t + grid.x).tolist()
        evaluate_grid(fn, region, 3, 5, valid=get_case(7).valid)  # the column x = 0 is invalid
        ts, xs = calls[-1]
        assert ts.shape == xs.shape == (12,)
        assert xs.tolist() == [-1.0, -0.5, 0.5, 1.0] * 3

    def test_a_t_only_subexpression_is_computed_once_per_row(self, monkeypatch):
        seen = []

        def counted(fn, u, *args):
            seen.append((fn, np.size(u)))
            return pointwise(fn, u, *args)

        pointwise = jets._pointwise
        monkeypatch.setattr(jets, "_pointwise", counted)
        field = ScalarField(lambda T, X: exp(-T) * X)
        region = Region(0.0, 1.0, -1.0, 2.0)
        grid, values = evaluate_grid(lambda p: field.jet(p).d_x, region, 7, 9)
        assert sum(n for fn, n in seen if fn is math.exp) == 7
        monkeypatch.undo()
        assert values.tolist() == [field.jet(Point(t, x)).d_x
                                   for t, x in zip(grid.t.tolist(), grid.x.tolist())]

    def test_a_float_or_a_column_fills_the_whole_grid(self):
        region = Region(0.0, 1.0, -1.0, 1.0)
        grid, values = evaluate_grid(lambda p: 2.5, region, 4, 6)
        assert values.tolist() == [2.5] * 24
        grid, values = evaluate_grid(lambda p: 2.0 * p.t, region, 4, 6)
        assert values.tolist() == (2.0 * grid.t).tolist()
        grid, values = evaluate_grid(lambda p: -p.x, region, 4, 6)
        assert values.tolist() == (-grid.x).tolist()

    @pytest.mark.parametrize("region", [Region(1.0, 2.0, 0.5, 0.5), Region(1.5, 1.5, 1.0, 3.0)],
                             ids=["x0==x1", "t0==t1"])
    def test_a_degenerate_region_matches_the_reference(self, region):
        e = get_case(7)
        for fn in relation_fns(e).values():
            rep = assert_same_as_reference(fn, region, 5, 3, valid=e.valid)
            assert (rep.points_checked, rep.points_skipped) == (15, 0)


@pytest.mark.parametrize("entry", iter_cases(), ids=lambda e: f"case{e.id}")
def test_residuals_cross_checked_against_fd(entry):
    """AD-based residuals agree with finite-difference residuals."""
    fd = lambda field, p: fd_jet(field, p, h=2.5e-4)
    for p in valid_points(entry, 20, seed=6):
        r_ad = pfde_residual_scaled(entry.theta, p)
        r_fd = pfde_residual_scaled(entry.theta, p, jet_fn=fd)
        assert abs(r_ad - r_fd) <= 1e-5
        a3, a4 = reduced_system_residual(entry.f, entry.xi, p)
        b3, b4 = reduced_system_residual(entry.f, entry.xi, p, jet_fn=fd)
        scale = 1.0 + abs(entry.f.value(*p)) + abs(entry.xi.value(*p))
        assert abs(a3 - b3) <= 1e-5 * scale
        assert abs(a4 - b4) <= 1e-5 * scale


# -- reference oracle: the per-point sweep ------------------------------------

def reference_sweep(residual_fn, region, n_t, n_x, valid=None):
    """The sweep as one call per grid point, each at a scalar Point."""
    best = -1.0
    argmax = Point(math.nan, math.nan)
    checked = 0
    skipped = 0
    ts, xs = region.grid(n_t, n_x)
    for t in ts:
        for x in xs:
            p = Point(float(t), float(x))
            if valid is not None and not valid(p):
                skipped += 1
                continue
            try:
                r = abs(residual_fn(p))
            except EvaluationError:
                skipped += 1
                continue
            if not math.isfinite(r):
                skipped += 1
                continue
            checked += 1
            if r > best:
                best = r
                argmax = p
    if checked == 0:
        raise EmptySweepError(f"{skipped} skipped")
    return SweepReport(best, argmax, checked, skipped)


def report_bits(rep):
    return (float(rep.max_abs_residual).hex(), float(rep.argmax.t).hex(),
            float(rep.argmax.x).hex(), rep.points_checked, rep.points_skipped)


def assert_same_as_reference(fn, region, n_t, n_x, valid=None, min_checked=1):
    want = reference_sweep(fn, region, n_t, n_x, valid)
    got = sweep(fn, region, n_t, n_x, valid=valid)
    assert report_bits(got) == report_bits(want)
    assert got.points_checked >= min_checked
    return got


def relation_fns(e):
    """The catalog relations of e, and test-only rows: the common operator
    and the raw forms."""
    common = ReductionOperatorCoefficients.common_operator()
    return {
        **{name: row(e) for name, row in RELATIONS.items()},
        "common": lambda p: determining_residuals(e.f, common, p).max_scaled,
        "pfde_raw": lambda p: pfde_residual(e.theta, p),
        "potential_raw": lambda p: sum(potential_residual(e.theta, e.f, e.xi, p)),
        "reduced_raw": lambda p: sum(reduced_system_residual(e.f, e.xi, p)),
        "gbe_raw": lambda p: gbe_residual(e.xi, e.f, p),
    }


def riccati_branches(e):
    """One branch per sign of nu; some put poles on the sweep region."""
    lo, hi = (e.theta.value(e.sample_region.t0, e.sample_region.x0),
              e.theta.value(e.sample_region.t1, e.sample_region.x1))
    mid = 0.5 * (lo + hi)
    return [RiccatiBranch(-1.0, 1.0, 1.0), RiccatiBranch(-2.0, 1.0, -0.3),
            RiccatiBranch(0.0, -mid, 1.0), RiccatiBranch(1.0, math.cos(mid), math.sin(mid))]


@pytest.mark.parametrize("entry", iter_cases(), ids=lambda e: f"case{e.id}")
class TestBatchedSweepMatchesPerPointSweep:
    def test_catalog_relations(self, entry):
        for fn in relation_fns(entry).values():
            assert_same_as_reference(fn, entry.sample_region, 11, 13, valid=entry.valid)

    def test_riccati_families(self, entry):
        for b in riccati_branches(entry):
            sol = build_solution(entry, b)
            fn = lambda p, s=sol: gbe_residual_scaled(s.u, s.f, p)
            assert_same_as_reference(fn, entry.sample_region, 11, 13, valid=sol.valid)
            # the catalog predicate only: poles of phi are skipped by the residual
            assert_same_as_reference(fn, entry.sample_region, 11, 13, valid=entry.valid)

    def test_pushforward(self, entry):
        sol = build_solution(entry, RiccatiBranch(-1.0, 1.0, 1.0))
        g = EquivalenceElement(1.1, 0.05, 0.02, 0.95, mu0=0.3, mu1=-0.2, kappa=-1.3)
        tsol = transform_solution(g, sol)
        r = entry.sample_region
        img = [apply_point(g, Point(t, x)) for t in (r.t0, r.t1) for x in (r.x0, r.x1)]
        target = Region(min(q.t for q in img), max(q.t for q in img),
                        min(q.x for q in img), max(q.x for q in img))
        assert_same_as_reference(lambda p: gbe_residual_scaled(tsol.u, tsol.f, p),
                                 target, 11, 13, valid=tsol.valid)


class TestBatchedSweepAcrossSkips:
    """Regions that cross each kind of skipped point."""

    def test_predicate_line_case7(self):
        e = get_case(7)
        for fn in relation_fns(e).values():
            rep = assert_same_as_reference(fn, Region(1.0, 2.0, -1.0, 1.0), 9, 9,
                                           valid=e.valid)
            assert rep.points_skipped == 9

    def test_failed_jets_without_predicate_case7(self):
        # no predicate: at x = 0 the jet of theta = -2t/x fails and f = -x^2/(2t)
        # vanishes, while xi = x/t and f themselves stay regular
        e = get_case(7)
        skipped = {name: assert_same_as_reference(fn, Region(1.0, 2.0, -1.0, 1.0), 9, 9)
                   .points_skipped for name, fn in relation_fns(e).items()}
        assert skipped == {"pfde": 9, "potential": 9, "reduced": 0, "gbe": 0,
                           "determining": 9, "common": 9, "pfde_raw": 9,
                           "potential_raw": 9, "reduced_raw": 0, "gbe_raw": 0}

    def test_root_rays_case5(self):
        # lambda = 1/2 puts the rays x/t = -1.678... and 0.768... inside the region
        e = get_case(5, 0.5)
        for name in ("pfde", "potential", "reduced", "determining"):
            fn = relation_fns(e)[name]
            rep = assert_same_as_reference(fn, Region(0.5, 1.0, -2.0, 3.0), 7, 23,
                                           valid=e.valid)
            assert rep.points_skipped > 0

    def test_pole_of_phi(self):
        # nu = 0, (c1, c2) = (-1/2, 1): theta = x puts the pole on the line x = 1/2
        e = get_case(2)
        sol = build_solution(e, RiccatiBranch(0.0, -0.5, 1.0))
        fn = lambda p: gbe_residual_scaled(sol.u, sol.f, p)
        rep = assert_same_as_reference(fn, Region(0.0, 1.0, 0.0, 1.0), 5, 9, valid=e.valid)
        assert rep.points_skipped == 5
        rep = assert_same_as_reference(fn, Region(0.0, 1.0, 0.0, 1.0), 5, 9, valid=sol.valid)
        assert rep.points_skipped == 5

    def test_vanishing_theta_x(self):
        theta = ScalarField(lambda T, X: X * X * X + T)
        rep = assert_same_as_reference(lambda p: pfde_residual_scaled(theta, p),
                                       Region(0.0, 1.0, -1.0, 1.0), 4, 5)
        assert rep.points_skipped == 4

    def test_vanishing_f(self):
        f = ScalarField(lambda T, X: X * (1.0 + T))
        xi = ScalarField(lambda T, X: T - X)
        theta = ScalarField(lambda T, X: T * X)
        coeffs = ReductionOperatorCoefficients.from_xi(xi)
        region = Region(0.0, 1.0, -1.0, 1.0)
        for fn in (lambda p: potential_residual_scaled(theta, f, xi, p),
                   lambda p: sum(potential_residual(theta, f, xi, p)),
                   lambda p: determining_residuals(f, coeffs, p).max_scaled):
            rep = assert_same_as_reference(fn, region, 4, 5)
            assert rep.points_skipped == 4

    def test_failed_jet_of_a_field_one_equation_does_not_read(self):
        # xi fails at x = 0; the second potential equation and the first
        # determining equations do not read it, yet the point is skipped
        theta = ScalarField(lambda T, X: T + X)
        xi = ScalarField(lambda T, X: 1.0 / X)
        coeffs = ReductionOperatorCoefficients.from_xi(xi)
        region = Region(0.0, 1.0, -1.0, 1.0)
        for fn in (lambda p: potential_residual_scaled(theta, F_MINUS_ONE, xi, p),
                   lambda p: potential_residual(theta, F_MINUS_ONE, xi, p)[1],
                   lambda p: determining_residuals(F_MINUS_ONE, coeffs, p).max_scaled):
            rep = assert_same_as_reference(fn, region, 4, 5)
            assert rep.points_skipped == 4

    def test_overflow_in_a_later_equation_follows_the_builtin_max(self):
        # xi*xi_x overflows, so the second equation reads inf/inf = NaN while
        # the first stays finite; max(finite, nan) keeps the finite value
        xi = ScalarField(lambda T, X: 1e200 * exp(X))
        fn = lambda p: reduced_system_residual_scaled(F_MINUS_ONE, xi, p)
        assert math.isinf(reduced_system_residual(F_MINUS_ONE, xi, Point(0.0, 0.0))[1])
        rep = assert_same_as_reference(fn, Region(0.0, 1.0, -1.0, 1.0), 3, 4)
        assert rep.points_checked == 12
