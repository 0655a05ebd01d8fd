import math

import numpy as np
import pytest

from gburgers.ansatz import (RiccatiBranch, build_solution, matched_branch, phi,
                             phi_prime, rational_solution, riccati_residual,
                             xi_solution)
from gburgers.catalog import get_case, iter_cases
from gburgers.jets import (EvaluationError, Jet3, Point, ScalarField,
                           SingularPointError, cos, sin)
from gburgers.verify import gbe_residual, gbe_residual_scaled


def random_branch(rng):
    nu = float(rng.uniform(-2.0, 2.0))
    if rng.uniform() < 0.2:
        nu = 0.0
    c1, c2 = rng.uniform(-2.0, 2.0, size=2)
    if abs(c1) + abs(c2) < 0.1:
        c1 = 1.0
    return RiccatiBranch(nu, float(c1), float(c2))


class TestPhi:
    def test_zero_solution(self):
        b = RiccatiBranch(0.0, 3.0, 0.0)
        assert phi(b, -5.0) == 0.0 and phi(b, 17.0) == 0.0

    def test_tanh_form(self):
        b = RiccatiBranch(-1.0, 1.0, 1.0)
        assert phi(b, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert phi(b, 1.0) == pytest.approx(-2.0 * math.tanh(1.0), rel=1e-14)
        assert phi(b, -0.6) == pytest.approx(-2.0 * math.tanh(-0.6), rel=1e-14)

    def test_tan_form(self):
        b = RiccatiBranch(1.0, 1.0, 0.0)
        assert phi(b, math.pi / 4) == pytest.approx(2.0, rel=1e-14)

    def test_large_omega_does_not_overflow(self):
        b = RiccatiBranch(-4.0, 1.0, 1.0)
        assert phi(b, 500.0) == pytest.approx(-4.0, rel=1e-14)
        assert phi(b, -500.0) == pytest.approx(4.0, rel=1e-14)

    def test_pole_raises(self):
        b = RiccatiBranch(0.0, 1.0, 1.0)
        with pytest.raises(SingularPointError):
            phi(b, -1.0)
        with pytest.raises(SingularPointError):
            phi(RiccatiBranch(1.0, 1.0, 0.0), math.pi / 2)

    def test_degenerate_constants_rejected(self):
        with pytest.raises(ValueError):
            RiccatiBranch(1.0, 0.0, 0.0)

    def test_array_evaluation(self):
        om = np.linspace(-3.0, 3.0, 11)
        for b in (RiccatiBranch(-1.0, 1.0, 0.5), RiccatiBranch(0.0, 4.0, 1.0),
                  RiccatiBranch(2.0, 1.0, 0.2)):
            vals = phi(b, om)
            for w, v in zip(om, vals):
                assert v == pytest.approx(phi(b, float(w)), rel=1e-14)


class TestRiccatiIdentity:
    def test_hyperbolic_hand_check(self):
        b = RiccatiBranch(-1.0, 1.0, 1.0)
        assert phi_prime(b, 0.3) == pytest.approx(-2.0 / math.cosh(0.3) ** 2, rel=1e-13)
        assert riccati_residual(b, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_nu_zero_hand_check(self):
        b = RiccatiBranch(0.0, 1.0, 1.0)
        assert phi(b, 0.0) == -2.0
        assert phi_prime(b, 0.0) == 2.0
        assert riccati_residual(b, 0.0) == 0.0

    def test_nu_positive_symmetric_point(self):
        b = RiccatiBranch(1.0, 1.0, 0.0)
        assert phi(b, 0.0) == 0.0
        assert phi_prime(b, 0.0) == 2.0
        assert riccati_residual(b, 0.0) == 0.0

    def test_thousand_random_branches(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 1000:
            b = random_branch(rng)
            om = float(rng.uniform(-3.0, 3.0))
            try:
                v = phi(b, om)
                r = riccati_residual(b, om)
            except SingularPointError:
                continue
            checked += 1
            assert abs(r) <= 1e-12 * (1.0 + v * v)

    def test_array_phi_prime(self):
        om = np.linspace(-2.0, 2.0, 9)
        b = RiccatiBranch(-1.5, 2.0, 0.3)
        d = phi_prime(b, om)
        for w, dv in zip(om, d):
            assert dv == pytest.approx(phi_prime(b, float(w)), rel=1e-14)


def test_array_jet_matches_each_point():
    # nu < 0 picks the exponential that decays for each element's sign of
    # omega, in one formula; poles become NaN
    values = [-400.0, -1.0, -0.5, 0.0, 0.5, 1.0, 400.0, math.pi / 2]
    omega = Jet3.variable_x(np.array(values)) * 1.0
    branches = [RiccatiBranch(-1.0, 1.0, 1.0), RiccatiBranch(-2.0, 1.0, -0.3),
                RiccatiBranch(-1.0, 1.0, -1.0), RiccatiBranch(0.0, 1.0, 1.0),
                RiccatiBranch(1.0, 1.0, 0.0)]
    for b in branches:
        for fn in (phi, phi_prime):
            out = fn(b, omega)
            for i, v in enumerate(values):
                got = [float(ci[i] if isinstance(ci, np.ndarray) else ci).hex()
                       for ci in out.c]
                try:
                    want = [float(ci).hex() for ci in fn(b, Jet3.variable_x(v) * 1.0).c]
                except SingularPointError:
                    want = [math.nan.hex()] * 10
                assert got == want, (b, fn.__name__, v)


def test_plain_array_poles_are_nan():
    # a plain array takes the same one formula as an array jet; a pole is NaN
    # there, where a float raises
    values = np.array([-400.0, -1.0, -0.5, 0.0, 0.5, 1.0, 400.0, math.pi / 2, math.nan])
    branches = [RiccatiBranch(-1.0, 1.0, 1.0), RiccatiBranch(-1.0, 1.0, -1.0),
                RiccatiBranch(0.0, 1.0, 1.0), RiccatiBranch(1.0, 1.0, 0.0)]
    for b in branches:
        for fn in (phi, phi_prime):
            out = fn(b, values)
            for w, v in zip(values.tolist(), out.tolist()):
                try:
                    want = fn(b, w)
                except SingularPointError:
                    want = math.nan
                if math.isnan(want):
                    assert math.isnan(v), (b, fn.__name__, w)
                else:
                    assert v == pytest.approx(want, rel=1e-14), (b, fn.__name__, w)
            assert np.isnan(out).sum() >= 1


def test_constant_ratio_is_the_only_essential_parameter():
    rng = np.random.default_rng(13)
    for _ in range(200):
        b = random_branch(rng)
        s = float(rng.uniform(0.1, 5.0)) * (1 if rng.uniform() < 0.5 else -1)
        bs = RiccatiBranch(b.nu, s * b.c1, s * b.c2)
        om = float(rng.uniform(-2.0, 2.0))
        try:
            v1 = phi(b, om)
            v2 = phi(bs, om)
        except SingularPointError:
            continue
        assert v2 == pytest.approx(v1, rel=1e-13, abs=1e-13)


def test_tiny_constants_give_the_values_of_their_ratio():
    # scaling (c1, c2) by a power of two changes no bit, however small they are
    w, jw, aw = 0.5, Jet3.variable_x(0.5), np.array([0.5])
    for nu in (-1.5, 0.0, 2.0):
        b = RiccatiBranch(nu, 1.0, 0.75)
        for s in (2.0 ** -1000, 2.0 ** -200, 2.0 ** 60):
            bs = RiccatiBranch(nu, s * 1.0, s * 0.75)
            for fn in (phi, phi_prime):
                assert fn(bs, w) == fn(b, w)
                assert fn(bs, jw).c == fn(b, jw).c
                assert fn(bs, aw).tolist() == fn(b, aw).tolist()


def test_branch_continuity_at_nu_zero():
    # matched constants make nu -> 0+- converge to the nu = 0 branch
    # (away from the pole, where pointwise comparison is meaningful)
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 50:
        c1, c2 = rng.uniform(0.3, 2.0, size=2)
        b0 = RiccatiBranch(0.0, float(c1), float(c2))
        om = float(rng.uniform(-2.0, 2.0))
        if abs(c1 + c2 * om) < 0.3 * (c1 + c2):
            continue
        checked += 1
        for nu in (-1e-6, 1e-6):
            bm = matched_branch(nu, float(c1), float(c2))
            assert phi(bm, om) == pytest.approx(phi(b0, om), abs=1e-4)


def test_second_integral_property():
    # every ansatz output satisfies phi'' = phi * phi' (jets through omega)
    rng = np.random.default_rng(15)
    entries = [get_case(2), get_case(7), get_case(9)]
    for entry in entries:
        for _ in range(20):
            b = random_branch(rng)
            p = entry.sample_region.sample(rng)
            if not entry.valid(p):
                continue
            try:
                om = entry.theta.value(*p)
                PH = phi(b, Jet3.variable_t(om))
            except EvaluationError:
                continue
            scale = 1.0 + abs(PH.v * PH.d_t)
            assert abs(PH.d_tt - PH.v * PH.d_t) <= 1e-11 * scale


class TestBuildSolution:
    def test_case2_front(self):
        sol = build_solution(get_case(2), RiccatiBranch(-1.0, 1.0, 1.0))
        p = Point(1.0, 0.3)
        assert sol.u.value(*p) == pytest.approx(-2.0 * math.tanh(0.3), rel=1e-14)
        assert abs(gbe_residual(sol.u, sol.f, p)) <= 1e-12

    def test_case7_rational_profile(self):
        sol = build_solution(get_case(7), RiccatiBranch(0.0, 1.0, 1.0))
        p = Point(1.3, 1.7)
        assert sol.u.value(*p) == pytest.approx(-2.0 / (1.0 - 2.0 * 1.3 / 1.7), rel=1e-14)
        assert gbe_residual_scaled(sol.u, sol.f, p) <= 1e-10

    def test_zero_branch_everywhere(self):
        sol = build_solution(get_case(11), RiccatiBranch(0.0, 1.0, 0.0))
        for p in (Point(0.7, 0.8), Point(1.2, 1.1)):
            assert sol.u.value(*p) == 0.0
            assert gbe_residual(sol.u, sol.f, p) == 0.0

    def test_validity_excludes_poles(self):
        sol = build_solution(get_case(2), RiccatiBranch(0.0, 1.0, 1.0))
        assert not sol.valid(Point(0.5, -1.0))  # theta = x hits the pole at -1
        assert sol.valid(Point(0.5, 0.0))

    def test_provenance_mentions_parameters(self):
        sol = build_solution(get_case(4), RiccatiBranch(1.0, 0.0, 1.0))
        assert "case 4" in sol.provenance and "nu=1" in sol.provenance


class TestRationalSolution:
    def test_hyperbola(self):
        f = ScalarField(lambda T, X: 99.0)
        sol = rational_solution(0.0, 0.0, f)
        assert sol.u.value(1.0, 2.0) == 2.0
        assert gbe_residual(sol.u, sol.f, Point(1.0, 2.0)) == pytest.approx(0.0, abs=1e-15)

    def test_arbitrary_smooth_f(self):
        f = ScalarField(lambda T, X: -1.0 + 0.3 * sin(T + X) * cos(2.0 * X))
        sol = rational_solution(1.0, 2.0, f)
        rng = np.random.default_rng(16)
        for _ in range(100):
            p = Point(rng.uniform(-1, 1), rng.uniform(-3, 3))
            assert abs(gbe_residual(sol.u, sol.f, p)) <= 1e-13

    def test_pole_line(self):
        sol = rational_solution(1.0, 2.0, ScalarField(lambda T, X: -1.0))
        assert not sol.valid(Point(-2.0, 0.0))
        with pytest.raises(EvaluationError):
            sol.u.jet(Point(-2.0, 0.0))


class TestXiSolution:
    @pytest.mark.parametrize("entry", iter_cases(), ids=lambda e: f"case{e.id}")
    def test_xi_solves_its_equation(self, entry):
        sol = xi_solution(entry)
        rng = np.random.default_rng(17 + entry.id)
        n = 0
        while n < 30:
            p = entry.sample_region.sample(rng)
            if not sol.valid(p):
                continue
            n += 1
            assert gbe_residual_scaled(sol.u, sol.f, p) <= 1e-11

    def test_case9_profile(self):
        sol = xi_solution(get_case(9))
        p = Point(1.2, 0.4)
        assert sol.u.value(*p) == pytest.approx(-math.sin(0.8) / 2.4, rel=1e-14)
