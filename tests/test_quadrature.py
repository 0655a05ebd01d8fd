"""The batched Gauss-Kronrod quadrature behind case 5's antiderivative.

scipy and mpmath are the references here and only here: ``quad`` for the
values and ``brentq`` for the roots of case 5's denominator, and mpmath at
30 digits next to a root, where a value is too ill-conditioned for any
double-precision rule, and for the roots at a tiny lambda, where exp(-w)
overflows.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from gburgers import jets
from gburgers.catalog import CASE5_W0, EPS_DEN, _case5_denominator_roots, get_case
from gburgers.jets import (_BREAKS, _QUAD_LIMIT, Antiderivative, EvaluationError, exp,
                           gauss_kronrod, sin)


def integrand(lam: float):
    """Case 5's integrand 1/(w - 1 + lam*exp(-w)), as the catalog writes it."""
    return lambda w: 1.0 / (w - 1.0 + lam * exp(-w))


def by_quad(lam: float, ws) -> np.ndarray:
    g = integrand(lam)
    return np.array([quad(g, CASE5_W0, w, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                     for w in ws])


def assert_agrees_with_quad(lam: float, ws):
    got = Antiderivative(integrand(lam), CASE5_W0)(np.asarray(ws))
    np.testing.assert_allclose(got, by_quad(lam, ws), rtol=1e-12, atol=1e-12)


def grid_abscissae(lam: float) -> np.ndarray:
    """x/t on case 5's 50x50 sample grid, at its valid points."""
    e = get_case(5, lam)
    p = e.sample_region.points(50, 50)
    return (p.x / p.t)[e.valid(p)]


def test_criterion_10_points_agree_with_quad():
    # the 50 points of the acceptance suite's criterion 10, at lambda = 0
    rng = np.random.default_rng(1010)
    ws = []
    for _ in range(50):
        t = float(rng.uniform(0.3, 3.0))
        w = float(rng.uniform(1.2, 6.0))
        ws.append(w * t / t)
    assert_agrees_with_quad(0.0, ws)


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.0, -1.0])
def test_sample_grid_agrees_with_quad(lam):
    ws = grid_abscissae(lam)
    assert ws.size == 2500
    assert_agrees_with_quad(lam, ws)


def test_near_a_root_each_value_meets_the_tolerance_or_fails():
    # On the anchor's side of the larger root r of d(w) = w - 1 + lam*exp(-w),
    # from 1 away down to d(w) = EPS_DEN.  Near r the exact value moves by
    # g(w)*ulp(w) from one float abscissa to the next, and every rule samples
    # g at rounded nodes (quad is 3e-9 off the exact value at w - r = 1.5e-8
    # and reports no error).  So the reference is mpmath, and each value must
    # be within the tolerance plus that one-ulp move of it, or fail; where
    # the rounding of g stalls the bisection, it fails.
    lam = 0.5
    g = integrand(lam)
    r = max(_case5_denominator_roots(lam))
    slope = 1.0 - lam * math.exp(-r)
    ws = r + np.geomspace(1.0, EPS_DEN / slope, 60)
    d = ws - 1.0 + lam * np.exp(-ws)
    assert d.min() > 0.0 and abs(d[-1] - EPS_DEN) < 0.01 * EPS_DEN
    got = Antiderivative(g, CASE5_W0)(ws)
    kept = ~np.isnan(got)
    assert kept[ws - r >= 1e-5].all()  # only the last few digits' worth of the ray fails
    assert not kept[-1]
    with pytest.raises(EvaluationError):
        Antiderivative(g, CASE5_W0)(float(ws[-1]))
    ws, got = ws[kept], got[kept]
    want = exact_values(lam, r, ws)
    assert np.all(np.abs(got - want)
                  <= 1e-12 * np.maximum(1.0, np.abs(want)) + g(ws) * np.spacing(ws))


def exact_values(lam: float, r: float, ws) -> np.ndarray:
    """The integral from CASE5_W0 to each w, at 30 digits, cut at powers of
    four of the distance from the root r so that the pole nearby is resolved."""
    with mpmath.workdps(30):
        lam, w0 = mpmath.mpf(lam), mpmath.mpf(CASE5_W0)
        r = mpmath.findroot(lambda w: w - 1 + lam * mpmath.exp(-w), mpmath.mpf(r))
        out = []
        for w in map(mpmath.mpf, ws.tolist()):
            cuts = [r + (w - r) * 4**k for k in range(32, 0, -1) if r + (w - r) * 4**k < w0]
            out.append(float(mpmath.quad(lambda v: 1 / (v - 1 + lam * mpmath.exp(-v)),
                                         [w0, *cuts, w])))
    return np.array(out)


def test_between_the_roots_the_value_fails():
    # on the anchor's side of the smaller root, the path from w0 crosses the larger one
    lam = 0.5
    lo, hi = _case5_denominator_roots(lam)
    ws = np.array([lo + 1e-7, lo + 1e-3, 0.5 * (lo + hi), hi - 1e-3])
    assert np.isnan(Antiderivative(integrand(lam), CASE5_W0)(ws)).all()


def test_far_abscissae_on_the_doubling_panels():
    # at lambda = 0 the antiderivative is ln|w - 1|
    A = Antiderivative(integrand(0.0), CASE5_W0)
    ws = np.array([1.5, 2.0, 2.5, 9.0, 10.0, 17.5, 1e3, 1e6, 1e100, 1e300])
    np.testing.assert_allclose(A(ws), np.log(ws - 1.0), rtol=1e-12, atol=1e-12)
    assert A(CASE5_W0) == 0.0


def test_roots_agree_with_brentq():
    # brentq's default xtol = 2e-12 stops up to 27 ulp short of the root
    for lam in (0.5, 0.1, -1.0, -5.0):
        roots = _case5_denominator_roots(lam)
        assert len(roots) == (2 if lam > 0.0 else 1)

        def d(w):
            return w - 1.0 + lam * math.exp(-w)

        for r in roots:
            ref = brentq(d, r - 0.25, r + 0.25, xtol=math.ulp(r))
            assert abs(r - ref) <= 2 * math.ulp(r), (lam, r, ref)
            # bisected to the last float: d changes sign next to r
            below, above = d(math.nextafter(r, -math.inf)), d(math.nextafter(r, math.inf))
            assert min(below * d(r), d(r) * above) <= 0.0, (lam, r)


def test_roots_for_a_tiny_lambda_agree_with_mpmath():
    # exp(-w) overflows at the left root, lam*exp(-w) does not
    for lam in (1e-320, 5e-324):
        left, right = _case5_denominator_roots(lam)
        assert right == 1.0
        with mpmath.workdps(50):
            ref = mpmath.findroot(lambda w: w - 1 + mpmath.mpf(lam) * mpmath.exp(-w), left)
            assert abs(left - ref) <= math.ulp(left) / 2, (lam, left, ref)
    assert _case5_denominator_roots(1e-320)[0] == -743.4398729782224


def counted(g):
    calls = []

    def h(w):
        calls.append(np.size(w))
        return g(w)

    return h, calls


def test_a_pole_inside_the_range_fails_with_bounded_work():
    g, calls = counted(lambda w: 1.0 / w)
    A = Antiderivative(g, 1.0)
    with pytest.raises(EvaluationError, match="no quadrature value"):
        A(-1.0)
    # the partial panel and the whole panels before it, each bisected at most
    # _QUAD_LIMIT - 1 times: every subinterval is evaluated once, at 15 nodes
    intervals = int(np.searchsorted(_BREAKS, 2.0, side="right"))
    assert sum(calls) <= intervals * 15 * (2 * _QUAD_LIMIT - 1)
    assert len(calls) <= _QUAD_LIMIT + 1  # one evaluation per round
    assert math.isnan(A(np.array([-1.0]))[0])


def test_a_non_finite_integrand_fails_at_once():
    g, calls = counted(np.sqrt)  # NaN at every node of [-1, -2]
    with np.errstate(invalid="raise"):  # the quadrature silences numpy itself
        with pytest.raises(EvaluationError):
            Antiderivative(g, -1.0)(-2.0)
    assert len(calls) == 1


@pytest.mark.parametrize("g, w0, ws", [
    # within 3e-3 of the double root at 0 of lambda = 1, on both sides: the
    # rule stalls above it and meets a non-finite node below it
    (integrand(1.0), CASE5_W0, [3e-4, 1e-3, 2e-3, 3e-3, 1e-2, 1e-7, -1e-7, -1e-5, -1e-3]),
    # within 1e-5 of either root of lambda = 0.5
    (integrand(0.5), CASE5_W0, [r + d for r in _case5_denominator_roots(0.5)
                                for d in (1e-5, 2e-6, 1e-6, 1e-7, -1e-8, -1e-5)]),
    # in w0's first panel: sin(2000 w) needs more than _QUAD_LIMIT subintervals
    # from 0 to +-0.49, and fewer to +-0.1; sqrt is NaN at every node left of 0
    (lambda w: sin(2000.0 * w), 0.0, [0.1, 0.49, -0.1, -0.49]),
    (np.sqrt, 0.0, [0.4, -0.4]),
], ids=["lambda=1", "lambda=0.5", "sin(2000w)", "sqrt"])
def test_the_single_point_rule_fails_where_the_batched_one_fails(g, w0, ws, monkeypatch):
    single = Antiderivative(g, w0)
    single(np.array([-3.0, 5.0]))  # the whole panels up to each w summed, so w takes the float rule
    rules = []

    def rule(*args, float_rule=jets._gauss_kronrod_at):
        rules.append(float_rule(*args))
        return rules[-1]

    monkeypatch.setattr(jets, "_gauss_kronrod_at", rule)
    got = [single._value_at(w) for w in ws]
    want = Antiderivative(g, w0)._values(np.array(ws))
    assert len(rules) == len(ws)
    assert [v.hex() for v in got] == [v.hex() for v in want.tolist()]
    assert 0 < sum(math.isnan(v) for v in rules) < len(ws)


def test_gauss_kronrod_is_exact_for_polynomials_of_degree_22():
    a, b = np.array([0.0, -1.0, 3.0]), np.array([1.0, 2.0, 1.0])
    got = gauss_kronrod(lambda w: 23.0 * w**22, a, b)
    np.testing.assert_allclose(got, b**23 - a**23, rtol=1e-14)


ABSCISSA = st.one_of(
    st.floats(-40.0, 40.0),
    st.floats(-1e6, 1e6),
    st.sampled_from([CASE5_W0, 2.5, 10.0, -6.0, 1e300, -1e300, math.nan,
                     math.inf, -math.inf, 0.0, -0.0]),
    # within 1e-9 to 1e-3 of a root of d at lambda = 0.5, on either side
    st.builds(lambda r, sign, log_gap: r + sign * math.exp(log_gap),
              st.sampled_from(_case5_denominator_roots(0.5)), st.sampled_from([1.0, -1.0]),
              st.floats(math.log(1e-9), math.log(1e-3))),
)


@pytest.mark.parametrize("lam", [2.0, 0.5])  # no real root of d, and two
@settings(max_examples=60, deadline=None)
@given(st.lists(ABSCISSA, min_size=1, max_size=12).flatmap(
    lambda ws: st.permutations(ws + ws[: len(ws) // 2])))
def test_each_batched_value_is_the_single_point_value(lam, ws):
    batched = Antiderivative(integrand(lam), CASE5_W0)(np.array(ws))
    single = Antiderivative(integrand(lam), CASE5_W0)
    single(np.array([-1e300, 1e300]))  # every panel summed, so points take the float path
    for w, v in zip(ws, batched):
        try:
            want = single(w)
        except EvaluationError:
            assert math.isnan(v), w
        else:
            assert v.hex() == want.hex(), w


def test_chunked_values_are_the_single_point_values(monkeypatch):
    # lambda = 2: d has no real root, so every value exists, on either side of w0
    ws = np.random.default_rng(22).uniform(-6.0, 12.0, 50)
    single = Antiderivative(integrand(2.0), CASE5_W0)
    single(np.array([-1e300, 1e300]))  # every panel summed, so points take the float path
    want = [single._value_at(float(w)).hex() for w in ws]
    sizes = []

    def chunk(g, a, b, adaptive_pass=jets._adaptive_pass):
        sizes.append(a.size)
        return adaptive_pass(g, a, b)

    monkeypatch.setattr(jets, "_QUAD_CHUNK", 7)
    monkeypatch.setattr(jets, "_adaptive_pass", chunk)
    got = Antiderivative(integrand(2.0), CASE5_W0)._value(ws)
    assert len(sizes) > 7 and max(sizes) == 7
    assert [v.hex() for v in got.tolist()] == want
    assert not np.isnan(got).any()


def test_the_quadrature_of_a_large_grid_works_in_bounded_memory():
    # case 5's abscissae x/t on a 200x200 grid: 40,000 partial panels, which
    # one adaptive pass over all of them would hold at once (22 MiB)
    e = get_case(5)
    p = e.sample_region.points(200, 200)
    ws = (p.x / p.t)[e.valid(p)]
    assert ws.size == 40_000
    A = Antiderivative(integrand(e.lam), CASE5_W0)
    tracemalloc.start()
    try:
        vals = A._value(ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.isnan(vals).any()
    assert peak < 12 * 2**20
