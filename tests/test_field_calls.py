"""A field read inside another field's expression is a call, ``field(T, X)``.

At the variable jets of the jet memo's grid the call reads the field's jet
from the memo, so the branches of u = phi(theta) of one case, swept in order
on one grid, compute theta's jet once and report as if each had its own
theta.  Anywhere else (``value``, ``sample``, the jet of a single point)
the call runs the expression.
"""

import dataclasses

import numpy as np
import pytest

from gburgers.ansatz import RiccatiBranch, build_solution, phi
from gburgers.catalog import iter_cases
from gburgers.jets import Jet3, Point, ScalarField, valid_mask
from gburgers.verify import gbe_residual_scaled, sweep
from test_acceptance import _pole_free_branches
from test_verify import report_bits

N = 50


class CountingExpr:
    """An expression that counts its calls on jets and on everything else."""

    def __init__(self, expr):
        self.expr = expr
        self.jets = self.plain = 0

    def __call__(self, T, X):
        if isinstance(T, Jet3):
            self.jets += 1
        else:
            self.plain += 1
        return self.expr(T, X)


def with_theta(entry, expr):
    """entry with theta replaced by a field of its own running ``expr``."""
    return dataclasses.replace(entry, theta=ScalarField(expr, entry.theta.name))


def branches(entry):
    """One grid and one branch of each sign, in order: the first constants of
    each sign from the acceptance suite, on the oscillatory branch's region,
    which lies in the others' and keeps each branch off its poles."""
    plans = _pole_free_branches(entry)
    return plans[-1][1], [RiccatiBranch(nu, *choices[0]) for nu, _, choices in plans]


def gbe_report(sol, region):
    return report_bits(sweep(lambda p: gbe_residual_scaled(sol.u, sol.f, p),
                             region, N, N, valid=sol.valid))


@pytest.fixture(scope="module", params=iter_cases(), ids=lambda e: f"case{e.id}")
def case(request):
    return request.param, *branches(request.param)


def test_branches_sharing_theta_report_as_alone(case):
    """Each branch's report is the one of a sweep whose theta is a private
    wrapper, which shares no jet with another sweep, and the one of u written
    against theta's expression, which reads no memo."""
    entry, region, bs = case
    shared = [gbe_report(build_solution(entry, b), region) for b in bs]
    alone = [gbe_report(build_solution(with_theta(entry, entry.theta.expr), b), region)
             for b in bs]
    inline = []
    for b in bs:
        sol = build_solution(entry, b)
        u = ScalarField(lambda T, X, b=b: phi(b, entry.theta.expr(T, X)), sol.u.name)
        inline.append(gbe_report(dataclasses.replace(sol, u=u), region))
    assert shared == alone == inline


def test_theta_is_evaluated_on_jets_once_per_grid(case):
    entry, region, bs = case
    count = CountingExpr(entry.theta.expr)
    counted = with_theta(entry, count)
    sols = [build_solution(counted, b) for b in bs]
    grids = {valid_mask(s.valid, region.points(N, N)).tobytes() for s in sols}
    assert len(grids) == 1  # the branches are valid at the same points
    count.jets = 0
    for sol in sols:
        gbe_report(sol, region)
    assert count.jets == 1


def test_theta_runs_per_point_in_value_and_jet_and_once_in_sample(case):
    entry, region, bs = case
    count = CountingExpr(entry.theta.expr)
    sol = build_solution(with_theta(entry, count), bs[0])
    ts, xs = region.grid(5, 5)
    for t in ts.tolist():
        sol.u.value(t, float(xs[2]))
    assert (count.plain, count.jets) == (5, 0)
    for _ in range(2):
        sol.u.jet(Point(float(ts[2]), float(xs[2])))
    assert (count.plain, count.jets) == (5, 2)
    count.plain = 0
    sol.u.sample(ts[:, None], xs[None, :])
    assert (count.plain, count.jets) == (1, 2)
