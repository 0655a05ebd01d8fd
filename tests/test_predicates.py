"""The validity-predicate contract.

A predicate takes a Point of floats and gives a bool, or a Point of
equal-length 1-D arrays and gives a bool array (or a lone bool for every
point) whose elements are its answers at each point alone.  Each predicate
is checked on grids that cross its singular sets.
"""

import dataclasses
import math

import numpy as np
import pytest
from click.testing import CliRunner

from gburgers import cli
from gburgers.ansatz import RiccatiBranch, build_solution, rational_solution, xi_solution
from gburgers.catalog import get_case, iter_cases
from gburgers.equivalence import EquivalenceElement, transform_solution
from gburgers.jets import Point, Region, refine, valid_mask
from gburgers.verify import EmptySweepError, sweep

ENTRIES = iter_cases() + [get_case(5, 0.5)]


def assert_contract(valid, region, n_t, n_x):
    """The per-point answers on the grid, after checking the array ones."""
    grid = region.points(n_t, n_x)
    want = [valid(Point(t, x)) for t, x in zip(grid.t.tolist(), grid.x.tolist())]
    assert all(type(v) is bool for v in want)
    got = valid_mask(valid, grid)
    assert got.dtype == bool and got.tolist() == want
    return np.array(want).reshape(n_t, n_x)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: f"case{e.id}-lambda{e.lam}")
def test_catalog_predicates(entry):
    # the odd grid on [-3, 3]^2 holds t = 0, x = 0 and x = +-t exactly;
    # the third region crosses case 5's rays at lambda = 1/2; on the last
    # two, math overflows far outside the sample regions
    regions = (Region(-3.0, 3.0, -3.0, 3.0), entry.sample_region, Region(0.5, 1.0, -2.0, 3.0),
               Region(0.0, 400.0, -800.0, 800.0), Region(0.0, 1.0, -800.0, 800.0))
    excluded = sum(int((~assert_contract(entry.valid, r, 37, 37)).sum()) for r in regions)
    smooth = entry.singular_description.startswith("none")
    assert (excluded == 0) == smooth


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: f"case{e.id}-lambda{e.lam}")
def test_riccati_solutions_across_poles(entry):
    r = entry.sample_region
    wide = Region(r.t0 - 0.25, r.t1, r.x0 - 0.5, r.x1 + 0.5)
    ts, xs = r.grid(15, 17)
    w0 = entry.theta.value(ts[7], xs[8])  # the nu = 0 branch has its pole on this grid point
    on_poles = 0
    for b in (RiccatiBranch(-1.0, 1.0, -1.0), RiccatiBranch(0.0, -w0, 1.0),
              RiccatiBranch(1.0, math.cos(w0), math.sin(w0))):
        sol = build_solution(entry, b)
        for region in (r, wide):
            ok = assert_contract(sol.valid, region, 15, 17)
            on_poles += int((assert_contract(entry.valid, region, 15, 17) & ~ok).sum())
    assert on_poles > 0


def test_rational_solution_across_its_line():
    sol = rational_solution(1.0, 0.5, get_case(2).f)
    ok = assert_contract(sol.valid, Region(-1.0, 0.0, -1.0, 1.0), 21, 5)
    assert (~ok).sum() == 5 and not ok[10].any()  # the row t = -1/2


def test_transformed_solutions_across_the_projective_line():
    # the inverse of g has gamma*t + delta = 1 - t, which vanishes on the row t = 1
    g = EquivalenceElement(1.0, 0.0, 1.0, 1.0, mu0=0.5, mu1=0.25, kappa=2.0)
    e7 = get_case(7)
    for sol in (build_solution(e7, RiccatiBranch(0.0, 4.0, 1.0)), xi_solution(e7),
                rational_solution(1.0, 0.5, e7.f), xi_solution(get_case(2))):
        ok = assert_contract(transform_solution(g, sol).valid, Region(0.0, 2.0, 1.0, 3.0), 21, 9)
        assert not ok[10].any()


def test_refine_asks_pred_only_where_ok_holds():
    seen = []

    def pred(p):
        seen.append(p)
        assert np.all(p.x > 0.0)
        return p.t > 0.5

    grid = Region(0.0, 1.0, -1.0, 1.0).points(3, 5)
    got = refine(grid.x > 0.0, grid, pred)
    assert got.tolist() == ((grid.x > 0.0) & (grid.t > 0.5)).tolist()
    assert len(seen) == 1 and seen[0].t.size == 6
    assert refine(False, Point(1.0, -1.0), pred) is False
    assert refine(True, Point(1.0, 1.0), pred) is True
    assert refine(True, grid, lambda p: True).all()


class TestSweepAsksOncePerGrid:
    def test_one_call_with_the_whole_grid(self):
        e = get_case(7)
        calls = []

        def valid(p):
            calls.append(p)
            return e.valid(p)

        rep = sweep(lambda p: 0.0 * p.x, Region(1.0, 2.0, -1.0, 1.0), 5, 9, valid=valid)
        assert len(calls) == 1 and calls[0].t.shape == (45,)
        assert (rep.points_checked, rep.points_skipped) == (40, 5)

    def test_a_lone_bool_counts_for_every_point(self):
        rep = sweep(lambda p: abs(p.x), Region(0.0, 1.0, -1.0, 1.0), 3, 3, valid=lambda p: True)
        assert (rep.points_checked, rep.points_skipped) == (9, 0)
        with pytest.raises(EmptySweepError, match=r"\(9 skipped\)"):
            sweep(lambda p: abs(p.x), Region(0.0, 1.0, -1.0, 1.0), 3, 3, valid=lambda p: False)

    @pytest.mark.parametrize("command", [
        ["eval"],
        ["transform", "--element",
         '{"alpha":1,"beta":0,"gamma":0,"delta":1,"mu0":0,"mu1":0,"kappa":1}']],
        ids=lambda command: command[0])
    def test_eval_and_transform_ask_once_and_evaluate_once(self, command, monkeypatch):
        # u = xi of case 7 on a grid whose column x = 0 its predicate excludes
        sol = xi_solution(get_case(7))
        valid_calls, value_calls = [], []

        def valid(p):
            valid_calls.append(p)
            return sol.valid(p)

        def values(u, original=cli._values):
            fn = original(u)

            def counted(p):
                value_calls.append(p)
                return fn(p)
            return counted

        monkeypatch.setattr(cli, "_solution",
                            lambda *args: dataclasses.replace(sol, valid=valid))
        monkeypatch.setattr(cli, "_values", values)
        res = CliRunner().invoke(cli.cli, [*command, "--case", "7", "--region", "1,2,-1,1",
                                           "--res", "5x9"])
        assert res.exit_code == (3 if command[0] == "eval" else 0)
        assert len(valid_calls) == 1 and valid_calls[0].t.shape == (45,)
        assert len(value_calls) == 1 and value_calls[0].t.shape == (40,)
