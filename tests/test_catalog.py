import json
import math

import numpy as np
import pytest

from gburgers.catalog import (CASE5_W0, CatalogEntry, catalog_json, eval_case, get_case,
                              iter_cases)
from gburgers.jets import Point, SingularPointError
from oracles import case5_theta_reduction_check, sample_point


def valid_points(entry, n, seed=0, box=None):
    rng = np.random.default_rng(seed + entry.id)
    out = []
    tries = 0
    while len(out) < n and tries < 200 * n:
        tries += 1
        if box is None:
            p = sample_point(entry.sample_region, rng)
        else:
            p = Point(rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
        if entry.valid(p):
            out.append(p)
    assert len(out) == n, f"could not find {n} valid points for case {entry.id}"
    return out


def test_get_case_bounds():
    with pytest.raises(ValueError):
        get_case(0)
    with pytest.raises(ValueError):
        get_case(18)
    with pytest.raises(ValueError):
        get_case(3, lam=1.0)


def test_case5_lambda_handling():
    assert get_case(5).lam == 1.0
    assert get_case(5, 0.25).lam == 0.25
    e0 = get_case(5, 0.0)
    assert e0.lam == 0.0


def test_eval_case_examples():
    assert eval_case(2, Point(1.0, 2.0)) == (-1.0, 0.0, 2.0)
    f, xi, th = eval_case(7, Point(1.0, 2.0))
    assert (f, xi, th) == (-2.0, 2.0, -1.0)
    with pytest.raises(SingularPointError) as err:
        eval_case(7, Point(1.0, 0.0))
    assert "x = 0" in str(err.value)


def test_all_cases_have_usable_sample_regions():
    for entry in iter_cases():
        pts = valid_points(entry, 10)
        for p in pts:
            f, xi, th = eval_case(entry.id, p, entry.lam if entry.id == 5 else None)
            assert all(math.isfinite(v) for v in (f, xi, th))
            assert f != 0.0


@pytest.mark.parametrize("entry", iter_cases(), ids=lambda e: f"case{e.id}")
def test_potential_relations_on_random_points(entry):
    # f = -1/theta_x and xi = -theta_t/theta_x on [-3,3]^2 wherever valid
    for p in valid_points(entry, 200, seed=1, box=(-3, 3, -3, 3)):
        jf = entry.f.jet(p)
        jx = entry.xi.jet(p)
        jt = entry.theta.jet(p)
        assert jt.d_x != 0.0
        assert abs(jf.v + 1.0 / jt.d_x) <= 1e-10 * (1.0 + abs(jf.v))
        assert abs(jx.v + jt.d_t / jt.d_x) <= 1e-10 * (1.0 + abs(jx.v))


@pytest.mark.parametrize("entry", iter_cases(), ids=lambda e: f"case{e.id}")
def test_theta_solves_potential_fast_diffusion(entry):
    for p in valid_points(entry, 200, seed=2, box=(-3, 3, -3, 3)):
        jt = entry.theta.jet(p)
        assert abs(jt.d_t - jt.d_xx / jt.d_x) <= 1e-10 * (1.0 + abs(jt.d_t))


def test_case5_reduction_to_closed_form():
    assert case5_theta_reduction_check(Point(1.0, 3.0)) <= 1e-10
    assert case5_theta_reduction_check(Point(2.0, 5.0)) <= 1e-10
    with pytest.raises(SingularPointError):
        case5_theta_reduction_check(Point(1.0, 1.0))
    with pytest.raises(SingularPointError):
        case5_theta_reduction_check(Point(1.0, 0.5))  # x/t < 1


def test_case5_quadrature_anchor():
    # the integral term vanishes at w = w0, so theta(t, w0*t) = ln|t|
    for lam in (0.0, 1.0, 2.5):
        entry = get_case(5, lam)
        t = 1.7
        assert entry.theta.value(t, CASE5_W0 * t) == pytest.approx(math.log(t), abs=1e-10)


def test_case5_singular_at_the_anchor_is_refused():
    # lambda = -e^2 makes the integrand's denominator w - 1 + lambda*e^{-w} vanish at w0 = 2
    with pytest.raises(ValueError, match="singular at the quadrature anchor"):
        get_case(5, -math.e ** 2)


def test_case5_negative_lambda_has_single_root():
    entry = get_case(5, -1.0)
    # d(w) = w - 1 - e^{-w} has its root near w = 1.278; the anchor side is valid
    assert entry.valid(Point(1.0, 2.0))
    assert not entry.valid(Point(1.0, 0.5))  # other side of the root
    assert not entry.valid(Point(0.0, 2.0))  # t = 0


def test_case5_lambda_between_zero_and_one():
    # two roots, both negative; anchor component is w > max(root)
    entry = get_case(5, 0.5)
    assert entry.valid(Point(1.0, 2.0))
    assert not entry.valid(Point(1.0, -1.2))  # between the roots


def test_validity_margins():
    e7 = get_case(7)
    assert not e7.valid(Point(0.0, 1.0))
    assert not e7.valid(Point(1.0, 1e-12))
    assert e7.valid(Point(1.0, 1.0))
    e12 = get_case(12)
    assert not e12.valid(Point(math.pi / 2, 1.0))  # sin 2t = 0
    assert not e12.valid(Point(0.4, 0.4))          # x = t


def test_catalog_json_schema():
    rows = catalog_json()
    assert len(rows) == 17
    assert [r["id"] for r in rows] == list(range(1, 18))
    for r in rows:
        assert set(r) == {"id", "f_expr", "xi_expr", "theta_expr", "singular_description"}
    # round-trips through json
    assert json.loads(json.dumps(rows)) == rows


def test_entries_are_frozen():
    entry = get_case(2)
    assert isinstance(entry, CatalogEntry)
    with pytest.raises(AttributeError):
        entry.id = 3
