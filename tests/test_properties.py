"""Property tests: arrays and array jets against the same points one by one.

Random Riccati branches are evaluated at random abscissae together with
the exact poles of each branch, and random group elements at random times
together with their projective singularity.  Random sweeps of the catalog's
relations are compared with the per-point reference sweep, and each case's
f on a random block of times with the same times one row at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gburgers.ansatz import RiccatiBranch, phi, phi_prime
from gburgers.catalog import iter_cases
from gburgers.equivalence import EquivalenceElement, apply_point
from gburgers.jets import Jet3, Point, Region, SingularPointError
from gburgers.verify import EmptySweepError, sweep
from test_verify import reference_sweep, relation_fns, report_bits

coefficient = st.floats(-2.0, 2.0)
nus = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))


@st.composite
def branches(draw) -> RiccatiBranch:
    c1 = draw(coefficient)
    c2 = draw(coefficient.filter(lambda c: c != 0.0 or c1 != 0.0))
    return RiccatiBranch(draw(nus), c1, c2)


def poles(b: RiccatiBranch, ms) -> list[float]:
    """The abscissae where the branch's denominator vanishes exactly."""
    nu, c1, c2 = b.nu, b.c1, b.c2
    if nu == 0.0:
        return [-c1 / c2] if c2 != 0.0 else []
    k = math.sqrt(abs(nu))
    if nu > 0.0:
        return [(math.atan2(-c1, c2) + m * math.pi) / k for m in ms]
    return [math.log(-c2 / c1) / (2.0 * k)] if c1 * c2 < 0.0 else []


@st.composite
def branch_and_omegas(draw):
    b = draw(branches())
    ws = draw(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=12))
    ms = draw(st.lists(st.integers(-300, 300), max_size=3))
    return b, np.array(ws + [w for w in poles(b, ms) if math.isfinite(w)])


def at_point(fn, b, w):
    """fn at one abscissa, None where it is a pole."""
    try:
        return fn(b, w)
    except SingularPointError:
        return None


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=150, deadline=None)
@given(branch_and_omegas())
def test_branch_on_arrays_matches_each_point(case):
    b, ws = case
    omega = Jet3.variable_x(ws)
    for fn in (phi, phi_prime):
        on_jet, on_array = fn(b, omega), fn(b, ws)
        for i, w in enumerate(ws.tolist()):
            got = hexes(ci[i] if isinstance(ci, np.ndarray) else ci for ci in on_jet.c)
            want = at_point(fn, b, Jet3.variable_x(w))
            assert got == (hexes([math.nan] * 10) if want is None else hexes(want.c)), (fn, w)
            # numpy's ufuncs may differ from math's in the last bit, and where
            # phi passes through zero cancellation leaves that bit no relative
            # accuracy: hence approx's absolute floor of 1e-12
            want = at_point(fn, b, w)
            if want is None:
                assert math.isnan(on_array[i]), (fn, w)
            else:
                assert on_array[i] == pytest.approx(want, rel=1e-14), (fn, w)


parameter = st.floats(-3.0, 3.0)


@st.composite
def element_and_points(draw):
    prm = [draw(parameter) for _ in range(6)]
    kappa = draw(parameter.filter(lambda v: v != 0.0))
    a, b, g, d = prm[:4]
    if a * d - b * g == 0.0:
        a, d = 1.0, 1.0 + abs(b * g)  # a singular quadruple: replace it
    el = EquivalenceElement(a, b, g, d, prm[4], prm[5], kappa)
    ts = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12))
    if el.gamma != 0.0:
        ts.append(-el.delta / el.gamma)
    xs = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(ts), max_size=len(ts)))
    return el, np.array(ts), np.array(xs)


@settings(max_examples=150, deadline=None)
@given(element_and_points())
def test_apply_point_on_arrays_matches_each_point(case):
    g, ts, xs = case
    with np.errstate(all="ignore"):  # nearly singular quadruples overflow, as floats do silently
        q = apply_point(g, Point(ts, xs))
    for i, (t, x) in enumerate(zip(ts.tolist(), xs.tolist())):
        try:
            want = apply_point(g, Point(t, x))
        except SingularPointError:
            want = (math.nan, math.nan)
        assert hexes((q.t[i], q.x[i])) == hexes(want), (t, x)


CASES = iter_cases()
RELATIONS = tuple(relation_fns(CASES[0]))
fraction = st.floats(0.0, 1.0)
grid_size = st.integers(2, 9)


@st.composite
def sweeps(draw):
    """A catalog case, one of its relations, a sub-region of its sample
    region (possibly of zero width) and a grid size."""
    e = draw(st.sampled_from(CASES))
    r = e.sample_region
    (a, b), (c, d) = (sorted(draw(fraction) for _ in range(2)) for _ in range(2))
    region = Region(r.t0 + a * (r.t1 - r.t0), r.t0 + b * (r.t1 - r.t0),
                    r.x0 + c * (r.x1 - r.x0), r.x0 + d * (r.x1 - r.x0))
    return e, draw(st.sampled_from(RELATIONS)), region, draw(grid_size), draw(grid_size)


def bits_or_empty(sweep_fn, *args, **kwargs):
    try:
        return report_bits(sweep_fn(*args, **kwargs))
    except EmptySweepError:
        return "empty"


@settings(max_examples=100, deadline=None)
@given(sweeps())
def test_sweep_is_deterministic_and_matches_the_reference(case):
    e, name, region, n_t, n_x = case
    fn = relation_fns(e)[name]
    got = bits_or_empty(sweep, fn, region, n_t, n_x, valid=e.valid)
    assert got == bits_or_empty(sweep, fn, region, n_t, n_x, valid=e.valid)
    assert got == bits_or_empty(reference_sweep, fn, region, n_t, n_x, e.valid)


@st.composite
def time_blocks(draw, region: Region):
    """Up to 128 times in a region's t span and 2 to 40 abscissae across it."""
    ts = draw(st.lists(fraction, min_size=1, max_size=128))
    n_x = draw(st.integers(2, 40))
    return (np.array([region.t0 + a * (region.t1 - region.t0) for a in ts]),
            np.linspace(region.x0, region.x1, n_x))


@pytest.mark.parametrize("e", CASES, ids=lambda e: f"case{e.id}")
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_f_on_a_block_of_times_matches_each_row(e, data):
    # the march samples f for a block of steps in one call; its data stay
    # those of one call per time only if every row keeps its bits
    ts, xs = data.draw(time_blocks(e.sample_region))
    block = e.f.sample(*np.broadcast_arrays(ts[:, None], xs))
    for i, t in enumerate(ts.tolist()):
        row = e.f.sample(*np.broadcast_arrays(np.array([t])[:, None], xs))
        assert block[i].tobytes() == row[0].tobytes(), t
