import math

import numpy as np
import pytest

from gburgers.catalog import iter_cases
from gburgers.jets import (Antiderivative, EvaluationError, Jet3, Point, Region,
                           ScalarField, SingularPointError, arctan, cos, cosh, coth, exp,
                           fail_where, log_abs, sin, sinh, sqrt, tan, tanh)
from oracles import fd_jet, sample_point

ENTRY_NAMES = ("v", "d_t", "d_x", "d_tt", "d_tx", "d_xx", "d_ttt", "d_ttx", "d_txx", "d_xxx")


def entries_close(a: Jet3, b: Jet3, tol2: float, tol3: float) -> None:
    """Assert entrywise agreement, relative to 1 + |entry|, with separate
    tolerances for orders <= 2 and order 3."""
    for name, ea, eb in zip(ENTRY_NAMES, a.entries(), b.entries()):
        tol = tol3 if name in ("d_ttt", "d_ttx", "d_txx", "d_xxx") else tol2
        assert abs(ea - eb) <= tol * (1.0 + abs(eb)), (name, ea, eb)


def test_constant_field_all_derivatives_zero():
    f = ScalarField(lambda T, X: 5.0)
    j = f.jet(Point(0.3, -1.7))
    assert j.v == 5.0
    assert all(e == 0.0 for e in j.entries()[1:])


def test_coordinate_field():
    f = ScalarField(lambda T, X: X)
    j = f.jet(Point(1.0, 2.0))
    assert j.v == 2.0
    assert j.d_x == 1.0
    others = [e for n, e in zip(ENTRY_NAMES, j.entries()) if n not in ("v", "d_x")]
    assert all(e == 0.0 for e in others)


def test_t_independent_field_has_zero_t_entries():
    f = ScalarField(lambda T, X: exp(X) * sin(X))
    j = f.jet(Point(0.9, 0.4))
    for name in ("d_t", "d_tt", "d_tx", "d_ttt", "d_ttx", "d_txx"):
        assert getattr(j, name) == 0.0, name


def test_hand_differentiated_example():
    # theta(t, x) = -2t/x at (1, 2)
    f = ScalarField(lambda T, X: -2.0 * T / X)
    j = f.jet(Point(1.0, 2.0))
    assert j.v == pytest.approx(-1.0, abs=1e-15)
    assert j.d_t == pytest.approx(-1.0, abs=1e-15)
    assert j.d_x == pytest.approx(0.5, abs=1e-15)
    assert j.d_xx == pytest.approx(-0.5, abs=1e-15)
    assert j.d_xxx == pytest.approx(0.75, abs=1e-15)
    assert j.d_tx == pytest.approx(0.5, abs=1e-15)
    assert j.d_txx == pytest.approx(-0.5, abs=1e-15)
    assert j.d_tt == 0.0 and j.d_ttt == 0.0 and j.d_ttx == 0.0


def test_fd_jet_polynomial():
    f = ScalarField(lambda T, X: X * X)
    j = fd_jet(f, Point(0.0, 3.0), h=1e-4)
    assert abs(j.d_xx - 2.0) <= 1e-6


def test_fd_jet_constant():
    f = ScalarField(lambda T, X: 4.25)
    j = fd_jet(f, Point(0.7, -0.2), h=1e-3)
    assert all(abs(e) <= 1e-9 for e in j.entries()[1:])


def test_fd_jet_matches_eval_jet():
    f = ScalarField(lambda T, X: -2.0 * T / X)
    p = Point(1.0, 2.0)
    entries_close(f.jet(p), fd_jet(f, p, h=1e-4), tol2=1e-5, tol3=1e-3)


def test_fd_jet_rejects_bad_h():
    f = ScalarField(lambda T, X: X)
    with pytest.raises(ValueError):
        fd_jet(f, Point(0.0, 0.0), h=0.0)


@pytest.mark.parametrize("entry", iter_cases(), ids=lambda e: f"case{e.id}")
def test_fd_oracle_on_catalog_fields(entry):
    # h = 2.5e-4 balances the 1/h^3 roundoff floor of third-order stencils
    # against h^2 truncation over the magnitudes the catalog fields reach
    rng = np.random.default_rng(100 + entry.id)
    n = 0
    while n < 100:
        p = sample_point(entry.sample_region, rng)
        if not entry.valid(p):
            continue
        n += 1
        for field in (entry.f, entry.xi, entry.theta):
            entries_close(field.jet(p), fd_jet(field, p, h=2.5e-4),
                          tol2=1e-5, tol3=1e-3)


def test_linearity():
    F = ScalarField(lambda T, X: exp(T - X) * sin(X) + T * T)
    G = ScalarField(lambda T, X: cos(2.0 * T) / (X + 3.0))
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = rng.uniform(-3, 3, size=2)
        p = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        H = a * F + b * G
        jh = H.jet(p)
        jf, jg = F.jet(p), G.jet(p)
        for eh, ef, eg in zip(jh.entries(), jf.entries(), jg.entries()):
            want = a * ef + b * eg
            scale = 1.0 + abs(a * ef) + abs(b * eg)
            assert abs(eh - want) <= 1e-13 * scale


def test_product_rule():
    F = ScalarField(lambda T, X: sinh(X) + T)
    G = ScalarField(lambda T, X: arctan(X * T) - 2.0)
    H = F * G
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        jf, jg, jh = F.jet(p), G.jet(p), H.jet(p)
        want = jf.v * jg.d_x + jf.d_x * jg.v
        assert abs(jh.d_x - want) <= 1e-13 * (1.0 + abs(want))


def test_chain_rule_through_every_elementary_function():
    cases = [
        (exp, 0.4), (log_abs, 1.7), (log_abs, -1.7), (sqrt, 2.3),
        (sin, 0.8), (cos, 0.8), (tan, 0.5), (sinh, 0.6), (cosh, 0.6),
        (tanh, 0.9), (coth, 1.1), (arctan, -0.7),
    ]
    for fn, x0 in cases:
        field = ScalarField(lambda T, X, fn=fn: fn(X * X + T))
        p = Point(0.3, x0)
        entries_close(field.jet(p), fd_jet(field, p, h=1e-4),
                      tol2=1e-5, tol3=1e-3)


def test_division_by_zero_raises_not_nan():
    f = ScalarField(lambda T, X: 1.0 / X)
    with pytest.raises(EvaluationError):
        f.jet(Point(1.0, 0.0))
    with pytest.raises(EvaluationError):
        f.value(1.0, 0.0)


def test_log_of_zero_raises():
    f = ScalarField(lambda T, X: log_abs(X))
    with pytest.raises(EvaluationError):
        f.jet(Point(0.0, 0.0))


def test_overflow_raises():
    f = ScalarField(lambda T, X: exp(X))
    with pytest.raises(EvaluationError):
        f.value(0.0, 1e4)


def test_sqrt_domain():
    f = ScalarField(lambda T, X: sqrt(X))
    with pytest.raises(EvaluationError):
        f.jet(Point(0.0, -1.0))


def test_non_finite_point_rejected():
    f = ScalarField(lambda T, X: X)
    with pytest.raises(ValueError):
        f.jet(Point(math.nan, 0.0))


def test_integer_powers():
    f = ScalarField(lambda T, X: X ** 3 + T ** (-2))
    j = f.jet(Point(2.0, 1.5))
    assert j.v == pytest.approx(1.5 ** 3 + 0.25, rel=1e-15)
    assert j.d_x == pytest.approx(3 * 1.5 ** 2, rel=1e-15)
    assert j.d_t == pytest.approx(-2 / 2.0 ** 3, rel=1e-15)


def test_field_arithmetic_compositions():
    F = ScalarField(lambda T, X: X + T)
    G = ScalarField(lambda T, X: X - T)
    combos = [F + G, F - G, F * G, F / G, -F, 2.0 * F, F + 1.0, 3.0 - F, 6.0 / G]
    p = Point(0.25, 1.25)
    for H in combos:
        jH = H.jet(p)
        assert all(math.isfinite(e) for e in jH.entries())
    assert (F / G).jet(p).v == pytest.approx(1.5 / 1.0)


def test_sample_vectorized_matches_pointwise():
    F = ScalarField(lambda T, X: exp(-X / T) + cos(X))
    xs = np.linspace(0.5, 2.0, 7)
    vals = F.sample(1.3, xs)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(F.value(1.3, float(x)), rel=1e-15)
    const = ScalarField(lambda T, X: -1.0)
    assert np.all(const.sample(0.0, xs) == -1.0)


def test_antiderivative_value_and_derivatives():
    # F(w) = integral_2^w dw'/(w'-1) = ln|w-1|
    A = Antiderivative(lambda w: 1.0 / (w - 1.0), w0=2.0)
    assert A(3.5) == pytest.approx(math.log(2.5), abs=1e-11)
    field = ScalarField(lambda T, X: A(X / T))
    p = Point(1.0, 3.0)
    j = field.jet(p)
    ref = ScalarField(lambda T, X: log_abs(X / T - 1.0))
    jr = ref.jet(p)
    for a, b in zip(j.entries(), jr.entries()):
        assert abs(a - b) <= 1e-10 * (1.0 + abs(b))


def test_antiderivative_quadrature_failure():
    A = Antiderivative(lambda w: 1.0 / w, w0=1.0)
    f = ScalarField(lambda T, X: A(X))
    with pytest.raises(EvaluationError):
        f.value(0.0, -1.0)  # integrand pole inside [w0, w]


def test_antiderivative_on_an_array_fails_only_at_the_bad_abscissa():
    # the pole of 1/w lies between w0 = 1 and -1; the other abscissae are fine
    A = Antiderivative(lambda w: 1.0 / w, w0=1.0)
    got = A(np.array([2.0, -1.0, 0.5]))
    assert math.isnan(got[1])
    fresh = Antiderivative(lambda w: 1.0 / w, w0=1.0)
    assert [got[0], got[2]] == [fresh(2.0), fresh(0.5)]
    with pytest.raises(EvaluationError):
        fresh(-1.0)


def test_antiderivative_rejects_a_non_finite_abscissa():
    # neither a NaN bound nor an infinite range has a value to give
    A = Antiderivative(lambda w: 1.0 / w, w0=1.0)
    for w in (math.nan, math.inf):
        with pytest.raises(EvaluationError):
            A(w)
    assert np.isnan(A(np.array([math.nan, math.inf]))).all()


def test_region_helpers():
    r = Region.parse("0,1,-2,2")
    assert r == Region(0.0, 1.0, -2.0, 2.0)
    ts, xs = r.grid(3, 5)
    assert ts.tolist() == [0.0, 0.5, 1.0]
    assert len(xs) == 5
    T, X = r.points(3, 5)  # row-major: t outer, x inner
    assert T.tolist() == [t for t in ts.tolist() for _ in range(5)]
    assert X.tolist() == xs.tolist() * 3
    assert r.shrink(0.5) == Region(0.5, 0.5, -1.5, 1.5)
    with pytest.raises(ValueError):
        Region.parse("0,1,2")
    with pytest.raises(ValueError):
        Region(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="x1 must be finite"):
        Region(0.0, 1.0, 0.0, math.nan)
    with pytest.raises(ValueError, match="t1 - t0 must be finite"):
        Region(-1e308, 1e308, 0.0, 1.0)


# -- reference kernel: the truncated product as a loop over its term table --

_IDX = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))
_PRODUCT_TERMS = tuple(
    (_IDX.index((i1 + i2, j1 + j2)), n1, n2)
    for n1, (i1, j1) in enumerate(_IDX)
    for n2, (i2, j2) in enumerate(_IDX)
    if i1 + i2 + j1 + j2 <= 3
)


def reference_mul(self, other):
    if not isinstance(other, Jet3):
        return Jet3([ci * other for ci in self.c])
    a, b = self.c, other.c
    out = [0.0] * 10
    for k, n1, n2 in _PRODUCT_TERMS:
        out[k] += a[n1] * b[n2]
    return Jet3(out)


def reference_compose(self, g0, g1, g2, g3):
    w = list(self.c)
    w[0] = 0.0
    W = Jet3(w)
    W2 = reference_mul(W, W)
    W3 = reference_mul(W2, W)
    h2 = g2 / 2.0
    h3 = g3 / 6.0
    out = [g1 * W.c[n] + h2 * W2.c[n] + h3 * W3.c[n] for n in range(10)]
    out[0] = g0
    return Jet3(out)


def bits(j: Jet3) -> list[str]:
    """Entries as hex strings: tells -0.0 from 0.0, and NaN equals NaN."""
    return [float(ci).hex() for ci in j.c]


def random_coefficient(rng) -> float:
    r = rng.random()
    if r < 0.15:
        return 0.0
    if r < 0.25:
        return -0.0
    return float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 8.0))


def random_jet(rng, value=None, nan_order3=False) -> Jet3:
    c = [random_coefficient(rng) for _ in range(10)]
    if value is not None:
        c[0] = value
    if nan_order3:
        c[6:] = [math.nan] * 4
    return Jet3(c)


ELEMENTARY = (  # function, range of the value it is taken at
    (exp, (-3.0, 3.0)), (log_abs, (-3.0, 3.0)), (sqrt, (1e-3, 3.0)),
    (sin, (-3.0, 3.0)), (cos, (-3.0, 3.0)), (tan, (-1.5, 1.5)),
    (sinh, (-3.0, 3.0)), (cosh, (-3.0, 3.0)), (tanh, (-3.0, 3.0)),
    (coth, (-3.0, 3.0)), (arctan, (-3.0, 3.0)),
)


def seeded_jet_sets(count=400):
    """Per set: jets a and b (b with a nonzero value), composition
    derivatives g, a power k, and one jet per elementary function with its
    value in that function's range."""
    rng = np.random.default_rng(2024)
    sets = []
    for n in range(count):
        nan3 = n % 4 == 3  # the order-3 NaN that deriv_t/deriv_x leave
        a, b = random_jet(rng, nan_order3=nan3), random_jet(rng)
        if b.c[0] == 0.0:
            b.c[0] = 0.5
        g = [random_coefficient(rng) for _ in range(4)]
        k = int(rng.integers(-3, 4))
        by_fn = [random_jet(rng, value=float(rng.uniform(lo, hi)), nan_order3=nan3)
                 for _, (lo, hi) in ELEMENTARY]
        sets.append((a, b, g, k, by_fn))
    return sets


#: binary operations of jets a and b (b's value is nonzero), and compose
JET_OPS = {
    "mul": lambda a, b, g: a * b,
    "rmul": lambda a, b, g: b * a,
    "div": lambda a, b, g: a / b,
    "rdiv": lambda a, b, g: 3.5 / b,
    "compose": lambda a, b, g: a.compose(*g),
}


def test_kernel_bit_identical_to_reference_loop(monkeypatch):
    cases = []
    for n, (a, b, g, k, by_fn) in enumerate(seeded_jet_sets()):
        for name, op in JET_OPS.items():
            cases.append((lambda op=op, a=a, b=b, g=g: op(a, b, g), f"{name} {n}"))
        cases.append((lambda b=b, k=k: b ** k, f"pow {n}"))
        for (fn, _), j in zip(ELEMENTARY, by_fn):
            cases.append((lambda fn=fn, j=j: fn(j), f"{fn.__name__} {n}"))
    got = [bits(op()) for op, _ in cases]
    monkeypatch.setattr(Jet3, "__mul__", reference_mul)
    monkeypatch.setattr(Jet3, "__rmul__", reference_mul)
    monkeypatch.setattr(Jet3, "compose", reference_compose)
    for (op, label), g in zip(cases, got):
        assert g == bits(op()), label


def test_derivative_jets_mark_order_three_as_nan():
    j = ScalarField(lambda T, X: exp(X) * T).jet(Point(1.0, 0.0))
    # d/dx (e^x t) = e^x t, so d_xxx would be 1: it must not read as 0
    dx = j.deriv_x()
    assert dx.entries()[:6] == (1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    assert all(math.isnan(e) for e in dx.entries()[6:])
    dt = j.deriv_t()
    assert dt.entries()[:6] == (1.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    assert all(math.isnan(e) for e in dt.entries()[6:])
    # order-<=2 entries of anything computed from it stay finite
    k = exp(dt * j) / (dt + 2.0) - dt ** 2
    assert all(math.isfinite(e) for e in k.entries()[:6])
    assert all(math.isnan(e) for e in k.entries()[6:])


# -- array jets: one jet holding many points -------------------------------

def stack(jets) -> Jet3:
    return Jet3([np.array([j.c[n] for j in jets]) for n in range(10)])


def element_bits(j: Jet3, i: int) -> list[str]:
    return [float(ci[i] if isinstance(ci, np.ndarray) else ci).hex() for ci in j.c]


def assert_elements_match(array_result: Jet3, scalar_results, label: str) -> None:
    for i, r in enumerate(scalar_results):
        assert element_bits(array_result, i) == bits(r), f"{label} element {i}"


def test_array_jet_bit_identical_to_each_scalar_jet():
    sets = seeded_jet_sets()
    A = stack([s[0] for s in sets])
    B = stack([s[1] for s in sets])
    G = [np.array(col) for col in zip(*(s[2] for s in sets))]
    unary = {
        "add": lambda a, b: a + b, "sub": lambda a, b: a - b, "neg": lambda a, b: -a,
        "add number": lambda a, b: a + 1.25, "radd number": lambda a, b: 1.25 + a,
        "sub number": lambda a, b: a - 1.25, "rsub number": lambda a, b: 1.25 - a,
        "mul number": lambda a, b: a * -0.75, "div number": lambda a, b: a / 3.0,
        "deriv_t": lambda a, b: a.deriv_t(), "deriv_x": lambda a, b: a.deriv_x(),
    }
    for name, op in unary.items():
        assert_elements_match(op(A, B), [op(s[0], s[1]) for s in sets], name)
    for name, op in JET_OPS.items():
        assert_elements_match(op(A, B, G), [op(s[0], s[1], s[2]) for s in sets], name)
    for k in range(-3, 4):
        assert_elements_match(B ** k, [s[1] ** k for s in sets], f"pow {k}")
    for m, (fn, _) in enumerate(ELEMENTARY):
        J = stack([s[4][m] for s in sets])
        assert_elements_match(fn(J), [fn(s[4][m]) for s in sets], fn.__name__)


def test_array_jet_failures_are_elementwise():
    # where the jet of a single point raises, that element alone is NaN
    values = [1.5, 0.0, -2.0, 800.0, 0.25]
    u = Jet3.variable_x(np.array(values))
    cases = [(lambda j: 1.0 / j, {1}), (lambda j: j ** -2, {1}), (log_abs, {1}),
             (coth, {1, 3}), (sqrt, {1, 2}), (exp, {3}), (sinh, {3}), (cosh, {3}),
             (lambda j: exp(j * j), {3})]
    for fn, bad in cases:
        out = fn(u)
        for i, v in enumerate(values):
            if i in bad:
                assert all(math.isnan(float.fromhex(h)) for h in element_bits(out, i)), (fn, i)
                with pytest.raises((EvaluationError, ArithmeticError)):
                    fn(Jet3.variable_x(v))
            else:
                assert element_bits(out, i) == bits(fn(Jet3.variable_x(v))), (fn, i)


def test_adding_a_number_leaves_an_array_jet_unchanged():
    j = Jet3.variable_x(np.array([1.0, 2.0, 3.0]))
    before = [np.copy(ci) for ci in j.c]
    for k in (j + 1.0, 1.0 + j, j - 1.0, 1.0 - j, j * 2.0, j / 2.0, -j):
        assert k.c[0] is not j.c[0]
    assert all(np.array_equal(a, b) for a, b in zip(j.c, before))
    assert (j + 1.0).c[0].tolist() == [2.0, 3.0, 4.0]


def test_repr_of_an_array_jet():
    text = repr(Jet3.variable_x(np.array([1.0, 2.5])))
    assert text.startswith("Jet3(v=[1. , 2.5], d_t=0, d_x=1, d_tt=0,")
    assert repr(Jet3.variable_x(2.5)).startswith("Jet3(v=2.5, d_t=0, d_x=1,")


def test_numpy_scalars_defer_to_jets():
    j = Jet3.variable_x(np.array([1.0, 2.0]))
    for k in (np.float64(2.0) * j, np.float64(2.0) + j, np.float64(2.0) - j,
              np.float64(2.0) / j):
        assert isinstance(k, Jet3)
    assert (np.float64(2.0) * j).c[0].tolist() == [2.0, 4.0]


def test_field_jet_at_array_points():
    field = ScalarField(lambda T, X: log_abs(X) * exp(T) + 1.0 / (T - 1.0))
    ts = [0.5, 0.5, 1.0, math.nan, 0.25, -0.5]
    xs = [2.0, 0.0, 1.0, 1.0, -3.0, math.inf]
    j = field.jet(Point(np.array(ts), np.array(xs)))
    for i, p in enumerate(zip(ts, xs)):
        try:
            want = bits(field.jet(Point(*p)))
        except (EvaluationError, ValueError):
            want = [math.nan.hex()] * 10
        assert element_bits(j, i) == want, p
    # a field that does not depend on the point gives scalar entries
    c = ScalarField(lambda T, X: -1.0).jet(Point(np.array(ts[:3]), np.array(xs[:3])))
    assert c.c == Jet3.constant(-1.0).c


def test_antiderivative_of_an_array_jet():
    A = Antiderivative(lambda w: 1.0 / w, w0=1.0)
    field = ScalarField(lambda T, X: A(X) * T)
    ts, xs = [1.0, 0.0, 2.0], [2.0, -1.0, 0.5]
    j = field.jet(Point(np.array(ts), np.array(xs)))
    assert all(math.isnan(float.fromhex(e)) for e in element_bits(j, 1))
    for i in (0, 2):
        B = Antiderivative(lambda w: 1.0 / w, w0=1.0)  # a fresh memo
        ref = ScalarField(lambda T, X: B(X) * T).jet(Point(ts[i], xs[i]))
        assert element_bits(j, i) == bits(ref)


def test_array_numbers_act_per_element():
    sets = seeded_jet_sets(50)
    A = stack([s[0] for s in sets])
    ns = np.array([s[2][0] for s in sets])
    ops = {"add": lambda a, n: a + n, "radd": lambda a, n: n + a,
           "sub": lambda a, n: a - n, "rsub": lambda a, n: n - a,
           "mul": lambda a, n: a * n, "rmul": lambda a, n: n * a}
    for name, op in ops.items():
        assert_elements_match(op(A, ns), [op(s[0], float(n)) for s, n in zip(sets, ns)], name)


class Unformattable:
    def __format__(self, spec):
        raise AssertionError("the message was formatted")


def test_fail_where():
    arg = Unformattable()
    # nothing bad: the very object comes back, and the message is never formatted
    j = Jet3.variable_x(1.5)
    a = np.array([1.0, 2.0])
    aj = Jet3.variable_x(a)
    for bad, u in ((False, 2.0), (False, j), (np.zeros(2, bool), a), (np.zeros(2, bool), aj)):
        assert fail_where(bad, u, "{}", arg) is u
    # one point raises the error asked for, with the formatted message
    for u in (2.0, j):
        with pytest.raises(EvaluationError, match=r"^bad 2 at \(1, 2\)$"):
            fail_where(True, u, "bad {} at {}", 2, (1, 2))
        with pytest.raises(SingularPointError, match="^pole$"):
            fail_where(np.bool_(True), u, "pole", error=SingularPointError)
    # arrays and array jets get NaN at the bad elements only, and format nothing
    bad = np.array([False, True])
    out = fail_where(bad, a, "{}", arg)
    assert out[0] == 1.0 and math.isnan(out[1]) and a[1] == 2.0
    out = fail_where(bad, aj, "{}", arg)
    assert element_bits(out, 0) == bits(Jet3.variable_x(1.0))
    assert all(math.isnan(float.fromhex(h)) for h in element_bits(out, 1))


# -- the jet memo of one grid --------------------------------------------------

def counting_field(expr=lambda T, X: exp(T) * sin(X)):
    calls = []

    def counted(T, X):
        calls.append(1)
        return expr(T, X)

    return ScalarField(counted), calls


def bits_of(j: Jet3) -> list:
    return [np.asarray(c, dtype=float).tobytes() for c in j.c]


def test_the_memo_evaluates_each_field_once_per_grid():
    f, calls = counting_field()
    g, g_calls = counting_field()
    grid = Point(np.array([[0.5], [1.0]]), np.array([[0.0, 1.0, 2.0]]))
    same = Point(grid.t.copy(), grid.x.copy())  # equal contents, other arrays
    other = Point(np.array([0.5, 1.0]), np.array([0.0, 2.0]))
    first = f.jet(grid)
    assert [bits_of(j) for j in (f.jet(grid), f.jet(same))] == [bits_of(first)] * 2
    assert len(calls) == 1
    g.jet(grid)  # a field of its own, on the same grid
    assert (len(calls), len(g_calls)) == (1, 1)
    f.jet(other)
    f.jet(grid)  # the other grid emptied the memo
    assert len(calls) == 3
    f.jet(Point(0.5, 1.0))
    f.jet(Point(0.5, 1.0))  # single points bypass it
    assert len(calls) == 5


def test_the_memo_does_not_alias_the_callers_arrays():
    f, calls = counting_field()
    t, x = np.array([0.5, 1.0, 1.5]), np.array([0.25, 0.5, 0.75])
    field_x = ScalarField(lambda T, X: X)  # its value would be x itself, unless copied
    before, x_before = bits_of(f.jet(Point(t, x))), bits_of(field_x.jet(Point(t, x)))
    t[1], x[1] = 2.0, -1.0
    assert bits_of(field_x.jet(Point(np.array([0.5, 1.0, 1.5]), np.array([0.25, 0.5, 0.75])))) \
        == x_before
    assert bits_of(f.jet(Point(np.array([0.5, 1.0, 1.5]), np.array([0.25, 0.5, 0.75])))) == before
    assert len(calls) == 1
    j = f.jet(Point(t, x))  # the new contents are a new grid
    assert len(calls) == 2
    assert element_bits(j, 1) == bits(f.jet(Point(2.0, -1.0)))


def test_the_memo_keeps_its_jets_read_only():
    f = ScalarField(lambda T, X: T * X)
    p = Point(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    j = f.jet(p)
    with pytest.raises(ValueError, match="read-only"):
        j.c[0][0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        j.c[1] += 1.0
    j.c[0] = np.zeros(2)  # the list is the caller's own
    assert f.jet(p).c[0].tolist() == [3.0, 8.0]


def test_a_float_t_with_an_array_x_stays_a_float():
    f = ScalarField(lambda T, X: log_abs(X - T) * T)
    j = f.jet(Point(0.5, np.array([0.5, 1.5])))
    assert all(math.isnan(float.fromhex(e)) for e in element_bits(j, 0))
    assert element_bits(j, 1) == bits(f.jet(Point(0.5, 1.5)))
    # the same numbers as an array of t are another grid, with the same bits
    k = f.jet(Point(np.array([0.5, 0.5]), np.array([0.5, 1.5])))
    assert element_bits(k, 1) == element_bits(j, 1)
    # a float t is taken through math, and an array of t element by element
    g = ScalarField(lambda T, X: exp(T) * X)
    with pytest.raises(EvaluationError):
        g.jet(Point(1000.0, np.array([0.5, 1.5])))
    assert np.isnan(g.jet(Point(np.array(1000.0), np.array([0.5, 1.5]))).v).all()


def test_a_batch_that_raises_leaves_nothing_in_the_memo():
    f, calls = counting_field(lambda T, X: X / 0.0)
    p = Point(np.array([1.0]), np.array([2.0]))
    for _ in range(2):
        with pytest.raises(EvaluationError):
            f.jet(p)
    assert len(calls) == 2
