"""Independent numerical integration of generalized Burgers IBVPs.

Method of lines: second-order central differences in space, classic
fourth-order Runge-Kutta in time with a parabolic step restriction, and
Dirichlet boundary rows pinned to data at every stage time.  The stage
times are t_n = t0 + n*dt and t_n + dt/2, and f and the Dirichlet data are
sampled once at each, in blocks of up to _BLOCK_STEPS steps: one
``f.sample`` on a column of the block's stage times and the row of interior
points and one ``boundary_values`` call per block.  numpy gives an element
the same bits whatever the shape of its array, and a float t samples as an
array of one element, so neither the blocks nor t0 show in the levels.  A
block's levels are the rows of one array, checked for blow-up once the
block's steps are done.  The right-hand side is the paper's operator
L[u] = u*u_x + f*u_xx, with u_t = -L[u]; forward integration is diffusive
only for f < 0, so specs are rejected unless f stays strictly negative on
the region.

The oracle is manufactured-only: the initial and boundary data are
sampled from the exact solution being checked, so the measured error is
pure discretization error; refining the grid must then show second-order
convergence, which is an end-to-end cross-check of the closed forms that
never touches the jet machinery.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .ansatz import SolutionField
from .jets import EvaluationError, Region, ScalarField, SingularPointError

#: number of times at which f and the exact u are probed on the mesh before stepping
_PROBE_NT = 65

#: steps whose f and Dirichlet data are sampled in one call each
_BLOCK_STEPS = 64

#: refuse runs that would take more steps than this
_MAX_STEPS = 20_000_000


class WellPosednessError(Exception):
    """f fails to be strictly negative somewhere on the region."""


class BlowUpError(Exception):
    def __init__(self, message: str, last_stable_time: float):
        super().__init__(message)
        self.last_stable_time = last_stable_time


@dataclass(frozen=True)
class IbvpSpec:
    """One initial-boundary-value problem on a space-time rectangle, with
    its initial and Dirichlet data taken from the exact solution ``exact``.

    ``f`` is the coefficient the march integrates with; it is normally
    ``exact.f``, and a different one makes a negative control.
    """

    f: ScalarField
    region: Region
    n_x: int
    exact: SolutionField
    dt_safety: float = 0.8

    def __post_init__(self) -> None:
        if self.n_x < 8:
            raise ValueError("n_x must be at least 8")
        if not self.region.t0 < self.region.t1:
            raise ValueError(f"the region's t span must be positive: t0 = t1 = {self.region.t0}")
        if not self.region.x0 < self.region.x1:
            raise ValueError(f"the region's x span must be positive: x0 = x1 = {self.region.x0}")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError("dt_safety must lie in (0, 1]")

    def initial_values(self, xs: np.ndarray) -> np.ndarray:
        return _sample(self.exact.u, self.region.t0, xs)

    def boundary_values(self, ts: np.ndarray) -> np.ndarray:
        """The Dirichlet data: row i is u at (ts[i], x0) and (ts[i], x1)."""
        return _sample(self.exact.u, np.asarray(ts, dtype=float)[:, None],
                       np.array([self.region.x0, self.region.x1]))


def _sample(field: ScalarField, t, x, error=SingularPointError) -> np.ndarray:
    """field at the points of t and x, as ``ScalarField.sample``.  A pole of
    phi is NaN on arrays, and max/min would drop it silently, so the first
    non-finite value in row-major order raises, naming its point."""
    vals = field.sample(t, x)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        ti, xi = (np.broadcast_to(c, vals.shape).flat[bad[0]] for c in (t, x))
        raise error(f"non-finite value of field {field.name or '<anonymous>'} at (t, x) = "
                    f"({ti:.6g}, {xi:.6g})")
    return vals


class NumericSolution(NamedTuple):
    """One time level of a march: u on the mesh xs at time t."""

    t: float
    xs: np.ndarray
    u: np.ndarray
    scheme_metadata: str


def march(spec: IbvpSpec) -> Iterator[NumericSolution]:
    """March the IBVP on a uniform grid, yielding each time level in order
    and holding the levels of one block of up to _BLOCK_STEPS steps, not the
    history.

    dt = dt_safety * min(dx^2/(2*max|f|), dx/(1 + max|u|)), rounded down so
    the final step lands exactly on t1, with f and the exact u sampled once
    each on one probe grid, _PROBE_NT rows of the mesh.  Every check runs
    before level 0, the initial data, whose ends are the Dirichlet data at
    t0; later levels carry the Dirichlet data at their ends.  Step n reads f
    and those data at t_n + dt/2, for k2 and k3, and at t_{n+1} = t0 +
    (n+1)*dt, for k4, level n+1's ends and the next k1, so each time of the
    grid is sampled once.  A block's data are sampled together before its
    first step, so a non-finite Dirichlet value raises before any level of
    the block.  Each k is L[u] = u*u_x + f*u_xx at a stage row.  k4's is the
    row of level n+1, a row of a new array per block whose ends hold the
    data at t_{n+1}; u - dt/6*(k1 + 2*k2 + 2*k3 + k4) then overwrites it,
    and it is never written once yielded.  A block's levels are checked for
    finiteness after its last step: those before the first non-finite one
    are yielded, and BlowUpError then gives the time of the last of them.
    Deterministic: identical specs produce bit-identical levels.
    """
    region = spec.region
    xs = np.linspace(region.x0, region.x1, spec.n_x + 1)
    dx = (region.x1 - region.x0) / spec.n_x

    probe = region.points(_PROBE_NT, spec.n_x + 1)
    fv = _sample(spec.f, probe.t, probe.x, EvaluationError)
    j = int(np.argmax(fv))  # the first maximum in row-major order
    if fv[j] >= 0.0:
        raise WellPosednessError(
            f"f must be strictly negative for forward integration; "
            f"f = {fv[j]:.6g} at (t, x) = ({probe.t[j]:.6g}, {probe.x[j]:.6g})")
    fabs = float(np.max(np.abs(fv)))
    umax = float(np.max(np.abs(_sample(spec.exact.u, probe.t, probe.x))))
    u0 = spec.initial_values(xs)

    span = region.t1 - region.t0
    dt_bound = spec.dt_safety * min(dx * dx / (2.0 * fabs), dx / (1.0 + umax))
    n_steps = max(1, int(math.ceil(span / dt_bound)))
    if n_steps > _MAX_STEPS:
        raise ValueError(
            f"step bound dt = {dt_bound:.3g} needs {n_steps} steps; "
            f"the data or coefficient magnitudes make this problem intractable")
    dt = span / n_steps
    meta = (f"method-of-lines central2 + RK4, n_x={spec.n_x}, dx={dx:.6g}, "
            f"dt={dt:.6g}, steps={n_steps}, dt_safety={spec.dt_safety}")

    # numpy's cost per call, not arithmetic, sets the step's time on meshes of
    # this size: the ufuncs are bound to locals, out is passed positionally and
    # the step's constants are 0-d float64 arrays
    add, subtract, multiply = np.add, np.subtract, np.multiply
    c_2dx, c_dx2 = np.array(1.0 / (2.0 * dx)), np.array(1.0 / (dx * dx))
    c_half, c_dt, c_sixth = np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0)
    x_int = xs[1:-1]

    # the stage row at t_n + dt/2, whose ends hold the Dirichlet data, and its
    # (left, centre, right) stencil views; the stage row at t_{n+1} is the new level
    mid_row = np.empty_like(xs)
    mid_l, mid_c, mid_r = mid_row[:-2], mid_row[1:-1], mid_row[2:]
    ux_buf = np.empty_like(x_int)
    k1, k2, k3, k4 = (np.empty_like(x_int) for _ in range(4))

    def rhs(left: np.ndarray, centre: np.ndarray, right: np.ndarray, fv: np.ndarray,
            out: np.ndarray) -> None:
        """L[u] = u*u_x + f*u_xx on the interior of a row, given as its
        (left, centre, right) views, into out."""
        subtract(right, left, ux_buf)
        multiply(ux_buf, c_2dx, ux_buf)
        multiply(ux_buf, centre, ux_buf)
        add(centre, centre, out)
        subtract(right, out, out)
        add(out, left, out)
        multiply(out, c_dx2, out)
        multiply(out, fv, out)
        add(out, ux_buf, out)

    t = float(region.t0)
    yield NumericSolution(t, xs, u0, meta)
    # t_{n+1}'s data serve k4, level n+1's ends and the next k1; level 0's ends are
    # boundary_values([t0]), as sample takes the float t0 as an array of one element
    f_n = spec.f.sample(t, x_int)
    u_l, u_c, u_r = u0[:-2], u0[1:-1], u0[2:]
    for n0 in range(0, n_steps, _BLOCK_STEPS):
        ns = np.arange(n0, min(n0 + _BLOCK_STEPS, n_steps))
        t_next = region.t0 + (ns + 1) * dt
        ts = np.column_stack((region.t0 + ns * dt + 0.5 * dt, t_next)).ravel()
        # f on the interior and the Dirichlet data, one row per time of ts
        f_block, ends_block = spec.f.sample(ts[:, None], x_int), spec.boundary_values(ts)
        mids = ends_block[0::2].tolist()
        # row i is level n0+i+1: a new array per block, whose rows are never
        # written once yielded
        levels = np.empty((len(ns), xs.size))
        levels[:, [0, -1]] = ends_block[1::2]
        lev_l, lev_c, lev_r = levels[:, :-2], levels[:, 1:-1], levels[:, 2:]
        # blow-up is found after the block's steps; numpy's error state is never
        # held across a yield
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(ns)):
                fm, f_next = f_block[2 * i], f_block[2 * i + 1]
                rhs(u_l, u_c, u_r, f_n, k1)
                mid_row[0], mid_row[-1] = mids[i]
                multiply(k1, c_half, mid_c)
                subtract(u_c, mid_c, mid_c)
                rhs(mid_l, mid_c, mid_r, fm, k2)
                multiply(k2, c_half, mid_c)
                subtract(u_c, mid_c, mid_c)
                rhs(mid_l, mid_c, mid_r, fm, k3)
                # k4's stage row is level n+1's, whose ends hold the data at t_{n+1}
                v_l, v_c, v_r = lev_l[i], lev_c[i], lev_r[i]
                multiply(k3, c_dt, v_c)
                subtract(u_c, v_c, v_c)
                rhs(v_l, v_c, v_r, f_next, k4)
                # k2 becomes dt/6*(k1 + 2*k2 + 2*k3 + k4), summed left to right
                add(k2, k2, k2)
                add(k2, k1, k2)
                add(k3, k3, k3)
                add(k2, k3, k2)
                add(k2, k4, k2)
                multiply(k2, c_sixth, k2)
                subtract(u_c, k2, v_c)
                u_l, u_c, u_r, f_n = v_l, v_c, v_r, f_next
        finite = np.isfinite(lev_c).all(axis=1)
        stable = len(ns) if finite.all() else int(finite.argmin())
        times = t_next.tolist()
        for i in range(stable):
            t = times[i]
            yield NumericSolution(t, xs, levels[i], meta)
        if stable < len(ns):
            # t is the last level yielded, which t_{n+1} - dt can miss by an ulp
            raise BlowUpError(f"solution blew up between t = {t} and t = {times[stable]}",
                              last_stable_time=t)


def solve_ibvp(spec: IbvpSpec) -> NumericSolution:
    """The last time level of :func:`march`."""
    for num in march(spec):
        pass
    return num


def compare(num: NumericSolution, exact: SolutionField) -> tuple[float, float]:
    """(max, RMS) error of a time level against the exact solution."""
    diff = num.u - _sample(exact.u, num.t, num.xs)
    return (float(np.max(np.abs(diff))), float(np.sqrt(np.mean(diff * diff))))


@dataclass(frozen=True)
class ConvergenceReport:
    resolutions: tuple[int, ...]
    dx_values: tuple[float, ...]
    max_errors: tuple[float, ...]
    l2_errors: tuple[float, ...]
    observed_order: float
    degenerate: bool      # errors at the roundoff floor, slope meaningless
    non_monotone: bool    # errors did not decrease under refinement

    def to_dict(self) -> dict:
        """The report as JSON values: a degenerate study's order, NaN here, is None."""
        d = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        if self.degenerate:
            d["observed_order"] = None
        return d


#: errors below this are considered to sit on the roundoff floor
_DEGENERATE_FLOOR = 1e-12


def convergence_study(spec_template: IbvpSpec,
                      resolutions: Sequence[int]) -> ConvergenceReport:
    """Refinement study in n_x; least-squares slope of log(max_err) vs log(dx).

    Requires at least three resolutions, each at least doubling the
    previous.  A non-monotone error sequence is reported with a warning
    flag rather than raised; errors at roundoff set the degenerate flag.
    """
    res = tuple(int(r) for r in resolutions)
    if len(res) < 3:
        raise ValueError("need at least 3 resolutions")
    for a, b in zip(res, res[1:]):
        if b < 2 * a:
            raise ValueError(f"resolutions must at least double: {a} -> {b}")

    errors = [compare(solve_ibvp(replace(spec_template, n_x=n)), spec_template.exact)
              for n in res]

    span = spec_template.region.x1 - spec_template.region.x0
    dxs = [span / n for n in res]
    max_errs, l2_errs = (list(c) for c in zip(*errors))

    degenerate = any(e <= _DEGENERATE_FLOOR for e in max_errs)
    non_monotone = any(b >= a for a, b in zip(max_errs, max_errs[1:]))
    if degenerate:
        order = math.nan
    else:
        lx = np.log(np.array(dxs))
        ly = np.log(np.array(max_errs))
        order = float(np.polyfit(lx, ly, 1)[0])

    return ConvergenceReport(
        resolutions=res, dx_values=tuple(dxs),
        max_errors=tuple(max_errs), l2_errors=tuple(l2_errs),
        observed_order=order, degenerate=degenerate, non_monotone=non_monotone)
