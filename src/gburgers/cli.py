"""Command-line interface.

Subcommands: list, eval, verify, transform, solve, convergence.  Reports
are JSON, field grids are CSV, all floats are printed with 17 significant
digits so identical invocations are byte-identical.

Exit codes: 0 success/pass, 1 verification failure, 2 usage error,
3 domain/singularity error.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import click
import numpy as np

from . import catalog
from .ansatz import RiccatiBranch, SolutionField, build_solution, rational_solution, xi_solution
from .equivalence import EquivalenceElement, transform_solution
from .jets import EvaluationError, Region, csv_rows, csv_text, format_float
from .numsolve import (BlowUpError, IbvpSpec, NumericSolution, WellPosednessError, compare,
                       convergence_study, march, solve_ibvp)
from .verify import RELATIONS, EmptySweepError, evaluate_grid, gbe_residual_scaled, sweep

EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 3


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def domain_errors_to_exit(fn):
    """Domain errors exit 3; a ValueError, which the library raises only for
    bad input (case ids, parameters, grid sizes), is a usage error (exit 2),
    and so is an error naming a file, which only opening ``--out`` raises."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (EvaluationError, EmptySweepError, WellPosednessError, BlowUpError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DOMAIN)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        except OSError as exc:
            if exc.filename is None:
                raise
            raise click.BadParameter(f"cannot write {exc.filename}: {exc.strerror}",
                                     param_hint="--out") from exc
    return wrapper


def _parse_region(text: str) -> Region:
    try:
        return Region.parse(text)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--region")


def _parse_res(text: str) -> tuple[int, int]:
    try:
        nt, nx = (int(s) for s in text.lower().split("x"))
    except ValueError:
        raise click.BadParameter("resolution must look like '50x50'", param_hint="--res")
    if nt < 2 or nx < 2:
        raise click.BadParameter("resolution must be at least 2x2", param_hint="--res")
    return nt, nx


def _check_tol(ctx, param, tol: float) -> float:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise click.BadParameter(f"tolerance must be finite and >= 0, got {tol}")
    return tol


def _parse_element(text: str) -> EquivalenceElement:
    try:
        data = json.loads(text)
        return EquivalenceElement.from_dict(data)
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise click.BadParameter(f"invalid group element: {exc}", param_hint="--element")


def _solution(entry: catalog.CatalogEntry, kind: str, nu: float, c1: float,
              c2: float) -> SolutionField:
    if kind == "phi":
        return build_solution(entry, RiccatiBranch(nu, c1, c2))
    if kind == "xi":
        return xi_solution(entry)
    return rational_solution(c1, c2, entry.f)


def _write_levels(levels, out: str) -> NumericSolution:
    """Write every level of a march to ``out`` as CSV, row-major by time then
    space, and return the last.  A march that fails leaves no file."""
    num = next(levels)  # a march makes all of its checks before its first level
    fh = open(out, "w")  # outside the try: only a file this run opened is removed
    try:
        with fh:
            fh.write(csv_text([num.t] * num.xs.size, num.xs.tolist(), num.u.tolist()))
            for num in levels:
                fh.write(csv_rows([num.t] * num.xs.size, num.xs.tolist(), num.u.tolist()))
    except BaseException:
        os.remove(out)
        raise
    return num


def _values(u):
    """The value function of u for :func:`evaluate_grid`: ``u.value`` at
    each point of the broadcast pair in row-major order, shaped as the
    pair, whose ``math`` bits the goldens pin; NaN where it fails."""
    def value(t, x):
        try:
            return u.value(t, x)
        except EvaluationError:
            return math.nan
    return lambda p: np.reshape([value(t, x) for t, x in np.broadcast(*p)], np.broadcast(*p).shape)


_solution_opts = [
    click.option("--solution", "kind", type=click.Choice(["phi", "xi", "rational"]),
                 default="phi", show_default=True, help="Which solution family."),
    click.option("--nu", type=float, default=-1.0, show_default=True),
    click.option("--c1", type=float, default=1.0, show_default=True),
    click.option("--c2", type=float, default=1.0, show_default=True),
    click.option("--lambda", "lam", type=float, default=None,
                 help="Parameter of case 5 (default 1)."),
]


def solution_options(fn):
    for opt in reversed(_solution_opts):
        fn = opt(fn)
    return fn


@click.group()
def cli():
    """Exact solutions of generalized Burgers equations
    u_t + u*u_x + f(t,x)*u_xx = 0 built from potentials of the fast
    diffusion equation, with residual verification and independent
    numerical cross-validation."""


@cli.command("list")
@click.option("--case", "case_id", type=int, default=None, help="Show a single case.")
@click.option("--lambda", "lam", type=float, default=None, help="Parameter of case 5.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
@domain_errors_to_exit
def cmd_list(case_id, lam, fmt, out):
    """List the built-in catalog of (f, xi, theta) triples."""
    if case_id is not None:
        rows = [catalog.get_case(case_id, lam).to_dict()]
    else:
        rows = catalog.catalog_json(lam)
    if fmt == "json":
        _emit(_json_dumps(rows), out)
        return
    w_f, w_xi, w_th = (max(len(r[k]) for r in rows) for k in ("f_expr", "xi_expr", "theta_expr"))
    lines = [f"{'N':>2}  {'f':<{w_f}}  {'xi':<{w_xi}}  {'theta':<{w_th}}  singular set"]
    for r in rows:
        lines.append(f"{r['id']:>2}  {r['f_expr']:<{w_f}}  {r['xi_expr']:<{w_xi}}  "
                     f"{r['theta_expr']:<{w_th}}  {r['singular_description']}")
    _emit("\n".join(lines) + "\n", out)


@cli.command("eval")
@click.option("--case", "case_id", type=int, required=True)
@solution_options
@click.option("--region", required=True, help="t0,t1,x0,x1")
@click.option("--res", default="11x11", show_default=True, help="NTxNX grid.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
@domain_errors_to_exit
def cmd_eval(case_id, kind, nu, c1, c2, lam, region, res, fmt, out):
    """Evaluate a solution family on a grid."""
    reg = _parse_region(region)
    n_t, n_x = _parse_res(res)
    entry = catalog.get_case(case_id, lam)
    sol = _solution(entry, kind, nu, c1, c2)
    grid, us = evaluate_grid(_values(sol.u), reg, n_t, n_x, sol.valid)
    bad = np.flatnonzero(np.isnan(us))
    if bad.size:
        raise EvaluationError(
            f"solution is singular at ({format_float(grid.t[bad[0]])}, "
            f"{format_float(grid.x[bad[0]])}); choose a region inside the valid domain")
    ts, xs, us = grid.t.tolist(), grid.x.tolist(), us.tolist()
    if fmt == "json":
        # + 0.0 writes -0.0 as 0.0, as format_float does in the CSV
        rows = [{"t": t + 0.0, "x": x + 0.0, "u": u + 0.0} for t, x, u in zip(ts, xs, us)]
        _emit(_json_dumps({"provenance": sol.provenance, "rows": rows}), out)
    else:
        _emit(csv_text(ts, xs, us), out)


@cli.command("verify")
@click.option("--case", "case_id", type=int, default=None)
@click.option("--all", "all_cases", is_flag=True)
@click.option("--which", type=click.Choice(tuple(RELATIONS)), required=True)
@click.option("--region", default=None, help="Defaults to the case's sample region.")
@click.option("--res", default="50x50", show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_check_tol,
              help="Scaled-residual tolerance.")
@click.option("--lambda", "lam", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
@domain_errors_to_exit
def cmd_verify(case_id, all_cases, which, region, res, tol, lam, out):
    """Sweep a residual over a grid and report the scaled maximum."""
    if all_cases == (case_id is not None):
        raise click.UsageError("choose exactly one of --case or --all")
    n_t, n_x = _parse_res(res)
    entries = catalog.iter_cases(lam) if all_cases else [catalog.get_case(case_id, lam)]
    reports = []
    ok = True
    for entry in entries:
        reg = _parse_region(region) if region else entry.sample_region
        rep = sweep(RELATIONS[which](entry), reg, n_t, n_x, valid=entry.valid)
        passed = rep.max_abs_residual <= tol
        ok = ok and passed
        reports.append({"case": entry.id, "which": which, "pass": passed,
                        "tol": tol, **rep.to_dict()})
    _emit(_json_dumps(reports if all_cases else reports[0]), out)
    if not ok:
        sys.exit(EXIT_VERIFY_FAIL)


@cli.command("transform")
@click.option("--element", required=True,
              help='Group element as JSON, e.g. \'{"alpha":1,...,"kappa":1}\'.')
@click.option("--case", "case_id", type=int, required=True)
@solution_options
@click.option("--region", required=True, help="Target-coordinate region t0,t1,x0,x1.")
@click.option("--res", default="11x11", show_default=True)
@click.option("--recheck", is_flag=True,
              help="Re-verify the transformed pair on the grid.")
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_check_tol)
@click.option("--out", type=click.Path(), default=None)
@domain_errors_to_exit
def cmd_transform(element, case_id, kind, nu, c1, c2, lam, region, res, recheck, tol, out):
    """Push a solution through a group element and grid the image."""
    g = _parse_element(element)
    reg = _parse_region(region)
    n_t, n_x = _parse_res(res)
    entry = catalog.get_case(case_id, lam)
    sol = _solution(entry, kind, nu, c1, c2)
    tsol = transform_solution(g, sol)

    grid, u = evaluate_grid(_values(tsol.u), reg, n_t, n_x, tsol.valid)
    ok = ~np.isnan(u)
    EmptySweepError.require(int(ok.sum()), reg, n_t, n_x)
    meta = {"element": g.to_dict(), "source": sol.provenance,
            "transformed_f": f"kappa^2/det * [{entry.f_expr}] pulled back through "
                             f"the inverse element",
            "points_checked": int(ok.sum()), "points_skipped": int((~ok).sum())}
    if recheck:
        # at the points with a value (ok masks this same grid); a point whose
        # residual is not finite is skipped too
        rep = sweep(lambda p: gbe_residual_scaled(tsol.u, tsol.f, p), reg, n_t, n_x,
                    valid=lambda p: ok)
        meta.update(points_checked=rep.points_checked, points_skipped=rep.points_skipped,
                    recheck_max_scaled_residual=rep.max_abs_residual,
                    recheck_pass=rep.max_abs_residual <= tol)
    click.echo(_json_dumps(meta), err=True, nl=False)
    _emit(csv_text(grid.t[ok].tolist(), grid.x[ok].tolist(), u[ok].tolist()), out)
    if recheck and not meta["recheck_pass"]:
        sys.exit(EXIT_VERIFY_FAIL)


@cli.command("solve")
@click.option("--case", "case_id", type=int, required=True)
@solution_options
@click.option("--region", required=True, help="t0,t1,x0,x1")
@click.option("--nx", type=int, default=64, show_default=True)
@click.option("--dt-safety", type=float, default=0.8, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Write the full numeric solution as CSV.")
@domain_errors_to_exit
def cmd_solve(case_id, kind, nu, c1, c2, lam, region, nx, dt_safety, out):
    """Integrate the equation numerically against a manufactured solution."""
    reg = _parse_region(region)
    entry = catalog.get_case(case_id, lam)
    sol = _solution(entry, kind, nu, c1, c2)
    spec = IbvpSpec(f=entry.f, region=reg, n_x=nx, dt_safety=dt_safety, exact=sol)
    num = _write_levels(march(spec), out) if out else solve_ibvp(spec)
    max_err, l2_err = compare(num, sol)
    click.echo(_json_dumps({"case": entry.id, "solution": sol.provenance,
                            "n_x": nx, "scheme": num.scheme_metadata,
                            "max_err": max_err, "l2_err": l2_err}), nl=False)


@cli.command("convergence")
@click.option("--case", "case_id", type=int, required=True)
@solution_options
@click.option("--region", required=True, help="t0,t1,x0,x1")
@click.option("--resolutions", default="32,64,128", show_default=True)
@click.option("--dt-safety", type=float, default=0.8, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@domain_errors_to_exit
def cmd_convergence(case_id, kind, nu, c1, c2, lam, region, resolutions, dt_safety, out):
    """Refinement study of the numerical error against an exact solution."""
    reg = _parse_region(region)
    try:
        res = [int(s) for s in resolutions.split(",")]
    except ValueError:
        raise click.BadParameter("resolutions must be comma-separated integers",
                                 param_hint="--resolutions")
    entry = catalog.get_case(case_id, lam)
    sol = _solution(entry, kind, nu, c1, c2)
    spec = IbvpSpec(f=entry.f, region=reg, n_x=res[0], dt_safety=dt_safety, exact=sol)
    report = convergence_study(spec, res)
    _emit(_json_dumps({"case": entry.id, "solution": sol.provenance,
                       **report.to_dict()}), out)


if __name__ == "__main__":
    cli()
