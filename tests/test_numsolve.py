import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from gburgers.ansatz import (RiccatiBranch, SolutionField, build_solution, rational_solution,
                             xi_solution)
from gburgers.catalog import get_case
from gburgers.cli import cli
from gburgers.jets import EvaluationError, Region, ScalarField, SingularPointError
from gburgers.numsolve import (BlowUpError, IbvpSpec, WellPosednessError, compare,
                               convergence_study, march, solve_ibvp)

F_MINUS_ONE = ScalarField(lambda T, X: -1.0, name="-1")

#: u = 0 with f = -1 (case 2's xi)
ZERO_SOL = xi_solution(get_case(2))


def solution(u):
    """An exact solution given by u alone, for data the march reads but never checks."""
    return SolutionField(u=ScalarField(u), f=F_MINUS_ONE, provenance="test data",
                         valid=lambda p: True)


#: u is 1e200 for 0.408 < t < 0.420 and 0 elsewhere
SPIKE = solution(lambda T, X: 0.0 * X + np.where((0.408 < T) & (T < 0.420), 1e200, 0.0))


def tanh_front_spec(n_x=64, region=Region(0.0, 1.0, -2.0, 2.0)):
    entry = get_case(2)
    sol = build_solution(entry, RiccatiBranch(-1.0, 1.0, 1.0))
    return IbvpSpec(f=entry.f, region=region, n_x=n_x, exact=sol), sol


class TestSpecValidation:
    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            IbvpSpec(f=F_MINUS_ONE, region=Region(0, 1, 0, 1), n_x=4,
                     exact=xi_solution(get_case(2)))

    def test_dt_safety_range(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                IbvpSpec(f=F_MINUS_ONE, region=Region(0, 1, 0, 1), n_x=16,
                         dt_safety=bad, exact=xi_solution(get_case(2)))

    def test_zero_x_span_rejected(self):
        with pytest.raises(ValueError, match="x span must be positive"):
            IbvpSpec(f=F_MINUS_ONE, region=Region(0, 1, 1, 1), n_x=16,
                     exact=xi_solution(get_case(2)))

    def test_exact_solution_required(self):
        with pytest.raises(TypeError):
            IbvpSpec(f=F_MINUS_ONE, region=Region(0, 1, 0, 1), n_x=16)


class TestSolve:
    def test_manufactured_tanh_front(self):
        spec, sol = tanh_front_spec(n_x=64)
        num = solve_ibvp(spec)
        max_err, l2_err = compare(num, sol)
        assert max_err <= 1e-3
        assert l2_err <= max_err
        assert num.u.shape == num.xs.shape == (65,)
        assert next(march(spec)).t == 0.0 and num.t == pytest.approx(1.0)

    def test_level_0_is_the_initial_data(self):
        # a u whose array samples (the initial data) are 1 and whose point
        # values (the boundary data) are 2 and 3 at the ends: level 0 keeps the
        # initial values, every later level takes its ends from the boundary
        def u(T, X):
            if isinstance(X, np.ndarray):
                return 0.0 * X + 1.0
            return 2.0 if X < 0.0 else 3.0

        spec = IbvpSpec(f=F_MINUS_ONE, region=Region(0.0, 0.01, -1.0, 1.0), n_x=16,
                        exact=solution(u))
        levels = march(spec)
        first = next(levels)
        assert first.t == 0.0
        assert np.array_equal(first.u, np.ones(17))
        for num in levels:
            assert (num.u[0], num.u[-1]) == (2.0, 3.0)

    def test_positive_f_rejected(self):
        f_plus = ScalarField(lambda T, X: 1.0)
        spec = IbvpSpec(f=f_plus, region=Region(0, 1, -1, 1), n_x=16,
                        exact=rational_solution(1.0, 2.0, f_plus))
        with pytest.raises(WellPosednessError) as err:
            solve_ibvp(spec)
        assert "strictly negative" in str(err.value)

    def test_sign_indefinite_f_rejected_with_location(self):
        f_mixed = ScalarField(lambda T, X: X)  # positive for x > 0
        spec = IbvpSpec(f=f_mixed, region=Region(0, 1, -2, 2), n_x=16,
                        exact=rational_solution(1.0, 2.0, f_mixed))
        with pytest.raises(WellPosednessError) as err:
            solve_ibvp(spec)
        assert "(0, 2)" in str(err.value)  # names the offending point

    def test_zero_data_stays_zero_for_many_steps(self):
        # >= 1e4 steps without drift above 1e-12
        spec = IbvpSpec(f=ZERO_SOL.f, region=Region(0.0, 0.8, -1.0, 1.0), n_x=16,
                        dt_safety=0.01, exact=ZERO_SOL)
        levels = 0
        drift = 0.0
        for num in march(spec):
            levels += 1
            drift = max(drift, float(np.max(np.abs(num.u))))
        assert levels - 1 >= 10_000
        assert drift <= 1e-12

    def test_deterministic(self):
        spec, _ = tanh_front_spec(n_x=32)
        levels = 0
        for a, b in zip(march(spec), march(spec), strict=True):
            levels += 1
            assert np.array_equal(a.u, b.u)
            assert a.t == b.t
            assert a.scheme_metadata == b.scheme_metadata
        assert levels > 1

    def test_blow_up_detected(self):
        # data with a spike between the pre-step probe times (multiples of
        # 1/64) but wider than dt: overflow mid-integration
        spec = IbvpSpec(f=F_MINUS_ONE, region=Region(0.0, 1.0, -1.0, 1.0), n_x=16,
                        exact=SPIKE)
        with pytest.raises(BlowUpError) as err:
            solve_ibvp(spec)
        assert 0.0 <= err.value.last_stable_time <= 0.45

    def test_absurd_step_counts_rejected(self):
        spec = IbvpSpec(f=F_MINUS_ONE, region=Region(0.0, 1.0, -1.0, 1.0), n_x=16,
                        exact=solution(lambda T, X: 1e160 * X))
        with pytest.raises(ValueError, match="intractable"):
            solve_ibvp(spec)

    def test_csv_export_shape(self, tmp_path):
        # the spec of tanh_front_spec(n_x=8) on t in [0, 0.01], x in [-1, 1]
        out = tmp_path / "levels.csv"
        res = CliRunner().invoke(cli, ["solve", "--case", "2", "--nu=-1", "--c1", "1",
                                       "--c2", "1", "--region", "0,0.01,-1,1", "--nx", "8",
                                       "--out", str(out)], catch_exceptions=False)
        assert res.exit_code == 0
        spec, _ = tanh_front_spec(n_x=8, region=Region(0.0, 0.01, -1.0, 1.0))
        levels = list(march(spec))
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,x,u"
        assert len(lines) == 1 + len(levels) * 9
        # row-major by time then space
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == -1.0
        assert [float(line.split(",")[0]) for line in lines[9:11]] == [0.0, levels[1].t]
        assert all(field != "-0" for line in lines[1:] for field in line.split(","))

    def test_one_level_in_memory(self):
        # criterion 9's case-7 solve at n_x = 128 over a tenth of its time
        # window (the property holds per level, and the tracer's cost is per
        # allocation): 2,305 steps, whose history of every level would take
        # 2.3 MiB
        entry = get_case(7)
        spec = IbvpSpec(f=entry.f, region=Region(1.0, 1.05, 1.0, 3.0), n_x=128,
                        exact=build_solution(entry, RiccatiBranch(0.0, 4.0, 1.0)))
        tracemalloc.start()
        try:
            num = solve_ibvp(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "steps=2305" in num.scheme_metadata
        assert peak < 2**20


class TestManufacturedDataOnAPole:
    """A pole of the exact solution on the mesh raises before any step, so
    that a NaN of the data cannot drop out of max(umax, .) or the step bound."""

    def test_pole_on_the_initial_line(self):
        # case 2, nu = 0, (c1, c2) = (-1/2, 1): theta = x puts the pole on the
        # mesh line x = 1/2 at every time, the initial one included
        entry = get_case(2)
        sol = build_solution(entry, RiccatiBranch(0.0, -0.5, 1.0))
        spec = IbvpSpec(f=entry.f, region=Region(0.0, 0.2, -1.0, 1.0), n_x=16, exact=sol)
        with pytest.raises(SingularPointError):
            spec.initial_values(np.linspace(-1.0, 1.0, 17))
        with pytest.raises(SingularPointError):
            solve_ibvp(spec)
        with pytest.raises(EvaluationError):
            convergence_study(spec, [16, 32, 64])

    def test_pole_at_an_interior_probe_time(self):
        # case 4, nu = 0, (c1, c2) = (-3/2, 1): theta = e^x + t meets the pole
        # at (t, x) = (1/2, 0), a point of the probe grid, and at no point of
        # the initial line or the boundaries
        entry = get_case(4)
        sol = build_solution(entry, RiccatiBranch(0.0, -1.5, 1.0))
        spec = IbvpSpec(f=entry.f, region=Region(0.0, 1.0, -1.0, 1.0), n_x=16, exact=sol)
        assert np.all(np.isfinite(spec.initial_values(np.linspace(-1.0, 1.0, 17))))
        with pytest.raises(SingularPointError, match=r"at \(t, x\) = \(0\.5, 0\)"):
            solve_ibvp(spec)


class TestProbeGrid:
    """Before level 0 the march samples f and u once each on one probe grid,
    65 rows of the mesh, and takes the sign check and the step bound from it."""

    REGION = Region(0.0, 1.0, -1.0, 1.0)  # n_x = 16: dx = 1/8, probe times k/64

    def test_each_field_is_sampled_once_before_level_0(self):
        calls = {"f": [], "u": []}

        def recorded(name, expr):
            def call(T, X):
                calls[name].append((T, X))
                return expr(T, X)
            return ScalarField(call, name=name)

        # polynomial data, whose bits are the same pointwise and on arrays
        f = recorded("f", lambda T, X: -1.0 + 0.0 * X)
        exact = SolutionField(u=recorded("u", lambda T, X: 0.5 + 0.25 * T + 0.125 * T * X),
                              f=f, provenance="test data", valid=lambda p: True)
        spec = IbvpSpec(f=f, region=Region(0.1, 1.0, -1.0, 1.0), n_x=16, exact=exact)
        marching = march(spec)
        level0 = next(marching)
        # one f.sample and one u sample on the probe grid, then the initial data;
        # no boundary value (a scalar u call) yet
        assert [np.shape(X) for _, X in calls["f"]] == [(65 * 17,)]
        assert [np.shape(X) for _, X in calls["u"]] == [(65 * 17,), (17,)]

        levels = [level0] + [next(marching) for _ in range(3)]
        steps = int(level0.scheme_metadata.split("steps=")[1].split(",")[0])
        dt = (1.0 - 0.1) / steps
        # up to level 3, f on the interior and u at both ends are asked once at
        # each time of the grid t_n = t0 + n*dt and t_n + dt/2, in order
        grid = [t for n in range(3) for t in (0.1 + n * dt, 0.1 + n * dt + 0.5 * dt)]
        grid = [float.hex(t) for t in grid + [0.1 + 3 * dt]]
        assert [float.hex(T) for T, _ in calls["f"][1:]] == grid
        assert all(np.shape(X) == (15,) for _, X in calls["f"][1:])
        assert [(float.hex(T), X) for T, X in calls["u"][2:]] == [
            (t, x) for t in grid for x in (-1.0, 1.0)]
        # every level's ends are the Dirichlet data at its time
        for level in levels:
            assert [float.hex(v) for v in (level.u[0], level.u[-1])] == [
                float.hex(v) for v in spec.boundary_values(level.t)]

    def test_step_bound_sees_a_peak_inside_a_probe_row(self):
        # u peaks at 1000 at (3/64, 0): an interior point of a probe row that is
        # not a multiple of 1/8; at t = 0, at every multiple of 1/8 and at the
        # ends it stays below 2e-4
        peak = solution(lambda T, X: 1000.0 * np.exp(-((T - 3 / 64) * 400.0) ** 2
                                                      - (4.0 * X) ** 2))
        spec = IbvpSpec(f=F_MINUS_ONE, region=self.REGION, n_x=16, exact=peak)
        steps = math.ceil(1.0 / (0.8 * 0.125 / (1.0 + 1000.0)))
        assert f"steps={steps}," in next(march(spec)).scheme_metadata

    def test_non_finite_f_names_its_first_point(self):
        # inf, not a numpy warning, in the top right quarter; the first such
        # probe point in row-major order is (33/64, 5/8), and the check comes
        # before the sign check that inf would fail
        f = ScalarField(lambda T, X: np.where((T > 0.5) & (X > 0.5), math.inf, -1.0))
        spec = IbvpSpec(f=f, region=self.REGION, n_x=16, exact=ZERO_SOL)
        with pytest.raises(EvaluationError,
                           match=r"at \(t, x\) = \(0\.515625, 0\.625\)") as err:
            next(march(spec))
        assert not isinstance(err.value, (SingularPointError, WellPosednessError))


class TestCompare:
    def test_compare_zero_to_zero(self):
        spec = IbvpSpec(f=ZERO_SOL.f, region=Region(0.0, 0.1, -1.0, 1.0), n_x=16,
                        exact=ZERO_SOL)
        assert compare(solve_ibvp(spec), ZERO_SOL) == (0.0, 0.0)

    def test_self_comparison_is_discretization_error(self):
        spec, sol = tanh_front_spec(n_x=32)
        num = solve_ibvp(spec)
        max_err, _ = compare(num, sol)
        assert 0.0 < max_err < 1e-2


class TestConvergence:
    def test_case2_second_order(self):
        spec, _ = tanh_front_spec(n_x=32)
        rep = convergence_study(spec, [32, 64, 128])
        assert 1.7 <= rep.observed_order <= 2.3
        assert not rep.degenerate
        assert not rep.non_monotone
        assert rep.max_errors[-1] <= 5e-4

    def test_zero_solution_degenerate(self):
        spec = IbvpSpec(f=F_MINUS_ONE, region=Region(0.0, 0.1, -1.0, 1.0), n_x=8,
                        exact=solution(lambda T, X: 0.0))
        rep = convergence_study(spec, [8, 16, 32])
        assert rep.degenerate
        assert math.isnan(rep.observed_order)

    def test_case7_advection_only_profile(self):
        # u = x/t has u_xx = 0; order comes out high or degenerate
        entry = get_case(7)
        spec = IbvpSpec(f=entry.f, region=Region(1.0, 1.5, 1.0, 3.0), n_x=32,
                        exact=xi_solution(entry))
        rep = convergence_study(spec, [32, 64, 128])
        assert rep.degenerate or rep.observed_order >= 1.7

    def test_resolution_validation(self):
        spec, _ = tanh_front_spec(n_x=16)
        with pytest.raises(ValueError):
            convergence_study(spec, [16, 32])
        with pytest.raises(ValueError):
            convergence_study(spec, [16, 24, 48])

    def test_report_serialization(self):
        spec, _ = tanh_front_spec(n_x=16, region=Region(0.0, 0.1, -1.0, 1.0))
        rep = convergence_study(spec, [16, 32, 64])
        d = rep.to_dict()
        assert d["resolutions"] == [16, 32, 64]
        assert len(d["max_errors"]) == 3
