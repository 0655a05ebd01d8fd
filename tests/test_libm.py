"""The array routes of the jet rules give libm's bits.

For an array, the jet rules of ``gburgers.jets`` take sin, cos and sqrt from
numpy's ufuncs and integer powers from ``np.float_power``, on the premise
that numpy's float64 loops for these call the C library's own functions, the
ones :mod:`math` and Python's ``pow`` call for a float.  These tests check
that premise bit for bit, on a dense seeded sample, on edge values and on
arrays of many sizes and layouts.  A numpy that gives one of these ufuncs a
loop of its own (SIMD code, say) fails the test of that route by name.

CI runs this file a second time with numpy's AVX-512 dispatch targets
disabled (``NPY_DISABLE_CPU_FEATURES``), so both dispatch paths are checked
on a machine that has AVX-512.
"""

import math

import numpy as np
import pytest

from gburgers import jets

#: route name -> (the array route, the float function it must match)
ROUTES = {
    "float_power(u, 3)": (lambda a: jets._ipow(a, 3), lambda v: pow(v, 3)),
    "float_power(u, 4)": (lambda a: jets._ipow(a, 4), lambda v: pow(v, 4)),
    "sin": (jets.sin, math.sin),
    "cos": (jets.cos, math.cos),
    "sqrt": (jets.sqrt, math.sqrt),
}

MAX = 1.7976931348623157e308
EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
    0.5, 1.0, -1.0, 2.0, math.pi, -math.pi / 2, 1e22, -1e22, 1e300, -1e300, MAX, -MAX,
    5.6e102, -5.6e102, 1e103, -1e103,  # around the cube's overflow
    1e77, -1e77, 1e78, -1e78,  # around the fourth power's overflow
    math.inf, -math.inf, math.nan,
])


def _dense_sample() -> np.ndarray:
    """Seeded values: the range of the catalog's arguments, every binade with
    both signs (subnormals included), and points next to multiples of pi/4."""
    rng = np.random.default_rng(0)
    n = 100_000
    near = np.arange(-4000, 4000) * (math.pi / 4)
    binades = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 1024, n))
    return np.concatenate([
        rng.uniform(-10.0, 10.0, n),
        binades * rng.choice([-1.0, 1.0], n),
        near, np.nextafter(near, math.inf), np.nextafter(near, -math.inf),
    ])


def _float_route(fn, values: np.ndarray) -> np.ndarray:
    """fn at each element as a Python float, NaN where it raises, in the
    layout of ``values``."""
    def at(v):
        try:
            return fn(v)
        except (ValueError, OverflowError):
            return math.nan
    return np.array([at(v) for v in values.ravel().tolist()]).reshape(values.shape)


def _bits(a) -> np.ndarray:
    """The float64 bit patterns of a, every NaN as one pattern."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = math.nan
    return a.view(np.uint64)


def assert_same_bits(route: str, values: np.ndarray) -> None:
    on_array, on_float = ROUTES[route]
    with np.errstate(all="ignore"):
        got = np.asarray(on_array(values))
    want = _float_route(on_float, values)
    assert got.shape == values.shape
    bad = np.flatnonzero(_bits(got) != _bits(want))
    shown = [(v.hex(), g.hex(), w.hex()) for v, g, w in
             zip(values.ravel()[bad[:5]].tolist(), got.ravel()[bad[:5]].tolist(),
                 want.ravel()[bad[:5]].tolist())]
    assert bad.size == 0, f"{route}: {bad.size} of {values.size} differ (u, array, float): {shown}"


@pytest.mark.parametrize("route", ROUTES)
def test_array_route_gives_libm_bits_on_a_dense_sample(route):
    assert_same_bits(route, _dense_sample())


@pytest.mark.parametrize("route", ROUTES)
def test_array_route_gives_libm_bits_at_edge_values(route):
    assert_same_bits(route, EDGES)


@pytest.mark.parametrize("route", ROUTES)
def test_array_route_gives_libm_bits_in_every_size_and_layout(route):
    # the size and the stride pick a vector loop's main body and its tail
    rng = np.random.default_rng(1)
    for n in (*range(1, 18), 31, 64, 127, 1000, 4099):
        assert_same_bits(route, rng.uniform(-20.0, 20.0, n))
    a = rng.uniform(-20.0, 20.0, (67, 61))
    for layout in (a, a.T, a[::3], a[:, ::2], a[::-1, ::-5]):
        assert_same_bits(route, layout)


@pytest.mark.parametrize("n", (3, 4))
def test_ipow_is_nan_exactly_where_pow_raises_and_inf_where_it_returns_inf(n):
    want = []  # pow(v, n), None where it raises
    for v in EDGES.tolist():
        try:
            want.append(pow(v, n))
        except OverflowError:
            want.append(None)
    with np.errstate(all="ignore"):
        got = jets._ipow(EDGES, n).tolist()
    raises = [w is None for w in want]
    assert [math.isnan(g) for g in got] == [r or math.isnan(w) for r, w in zip(raises, want)]
    assert [g for g in got if math.isinf(g)] == [w for w in want if w is not None
                                                 and math.isinf(w)]
    assert any(raises) and math.inf in got  # the edges reach both
