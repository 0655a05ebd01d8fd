import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from gburgers import verify
from gburgers.ansatz import RiccatiBranch, SolutionField, build_solution
from gburgers.catalog import get_case
from gburgers.cli import _write_levels, cli
from gburgers.equivalence import EquivalenceElement, transform_solution
from gburgers.jets import Region, ScalarField, constant_field
from gburgers.numsolve import BlowUpError, IbvpSpec, march
from gburgers.verify import RELATIONS, pfde_residual_scaled, sweep

BOOST = '{"alpha":1,"beta":0,"gamma":0,"delta":1,"mu0":0,"mu1":3,"kappa":1}'
IDENTITY = '{"alpha":1,"beta":0,"gamma":0,"delta":1,"mu0":0,"mu1":0,"kappa":1}'
DEGENERATE = '{"alpha":1,"beta":2,"gamma":1,"delta":2,"mu0":0,"mu1":0,"kappa":1}'
NAN_MU0 = '{"alpha":1,"beta":0,"gamma":0,"delta":1,"mu0":NaN,"mu1":0,"kappa":1}'
INFINITE_KAPPA = '{"alpha":1,"beta":0,"gamma":0,"delta":1,"mu0":0,"mu1":0,"kappa":Infinity}'


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(cli, list(args), catch_exceptions=False)


class TestList:
    def test_text_has_17_rows(self, runner):
        res = run(runner, "list")
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        assert len(lines) == 18  # header + 17

    def test_json(self, runner):
        res = run(runner, "list", "--format", "json")
        rows = json.loads(res.output)
        assert len(rows) == 17
        assert rows[6]["f_expr"] == "-x^2/(2t)"

    def test_single_case(self, runner):
        res = run(runner, "list", "--case", "7")
        assert res.exit_code == 0
        assert "-2t/x" in res.output
        assert res.output.count("\n") == 2

    def test_out_of_range(self, runner):
        res = runner.invoke(cli, ["list", "--case", "0"])
        assert res.exit_code == 2


class TestEval:
    def test_grid_shape_and_odd_symmetry(self, runner):
        res = run(runner, "eval", "--case", "2", "--nu", "-1", "--c1", "1",
                  "--c2", "1", "--region", "0,1,-2,2", "--res", "11x11")
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        assert lines[0] == "t,x,u"
        assert len(lines) == 1 + 121
        # u(t, 0) = 0 by odd symmetry of the front
        zero_rows = [ln for ln in lines[1:] if ln.split(",")[1] == "0"]
        assert len(zero_rows) == 11
        assert all(float(ln.split(",")[2]) == 0.0 for ln in zero_rows)

    def test_zero_branch_grid(self, runner):
        res = run(runner, "eval", "--case", "4", "--nu", "0", "--c2", "0",
                  "--region", "0,1,-1,1", "--res", "5x5")
        vals = {float(ln.split(",")[2]) for ln in res.output.strip().split("\n")[1:]}
        assert vals == {0.0}

    def test_singular_region_exits_3(self, runner):
        res = runner.invoke(cli, ["eval", "--case", "7", "--solution", "xi",
                                  "--region", "1,2,-1,1", "--res", "5x5"])
        assert res.exit_code == 3

    def test_json_format(self, runner):
        res = run(runner, "eval", "--case", "2", "--solution", "xi",
                  "--region", "0,1,0,1", "--res", "3x3", "--format", "json")
        data = json.loads(res.output)
        assert len(data["rows"]) == 9
        assert data["provenance"] == "xi-as-solution(case 2)"

    def test_json_writes_negative_zero_as_zero(self, runner):
        # u(t, 0) of this front is -0.0, which the CSV writes as 0
        res = run(runner, "eval", "--case", "2", "--nu", "-1", "--region", "0,1,-2,2",
                  "--res", "3x3", "--format", "json")
        rows = json.loads(res.output)["rows"]
        assert [r["u"] for r in rows if r["x"] == 0.0] == [0.0] * 3
        assert "-0.0" not in res.output

    def test_bad_region_is_usage_error(self, runner):
        res = runner.invoke(cli, ["eval", "--case", "2", "--region", "0,1", "--res", "3x3"])
        assert res.exit_code == 2


class TestNonSquareGrid:
    """A 3x5 grid: a swap of n_t and n_x, which a square grid cannot show,
    would put the rows out of row-major (t, x) order."""

    @pytest.mark.parametrize("command", [["eval"], ["transform", "--element", BOOST]],
                             ids=lambda command: command[0])
    def test_rows_in_row_major_order_with_the_values_of_u(self, command):
        res = CliRunner().invoke(cli, [*command, "--case", "2", "--nu", "-1", "--region",
                                       "0,1,-2,2", "--res", "3x5"], catch_exceptions=False)
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "t,x,u"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        ts, xs = Region(0.0, 1.0, -2.0, 2.0).grid(3, 5)
        assert [(t, x) for t, x, _ in rows] == [(t, x) for t in ts.tolist() for x in xs.tolist()]
        sol = build_solution(get_case(2), RiccatiBranch(-1.0, 1.0, 1.0))
        if command[0] == "transform":
            sol = transform_solution(EquivalenceElement.from_dict(json.loads(BOOST)), sol)
        # + 0.0: the CSV writes -0.0 as 0
        assert [u.hex() for _, _, u in rows] == [(sol.u.value(t, x) + 0.0).hex()
                                                 for t, x, _ in rows]


class TestVerify:
    def test_single_case_reduced(self, runner):
        res = run(runner, "verify", "--case", "7", "--which", "reduced",
                  "--res", "20x20")
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["pass"] is True
        assert rep["max_abs_residual"] <= 1e-10

    def test_all_cases_pfde(self, runner):
        res = run(runner, "verify", "--all", "--which", "pfde", "--res", "15x15")
        assert res.exit_code == 0
        reps = json.loads(res.output)
        assert len(reps) == 17
        assert all(r["pass"] for r in reps)

    def test_failing_tolerance_exits_1(self, runner):
        res = runner.invoke(cli, ["verify", "--case", "7", "--which", "reduced",
                                  "--res", "10x10", "--tol", "1e-30"])
        assert res.exit_code == 1

    def test_empty_region_exits_3(self, runner):
        res = runner.invoke(cli, ["verify", "--case", "7", "--which", "pfde",
                                  "--region", "1,2,0,0", "--res", "5x5"])
        assert res.exit_code == 3

    def test_requires_exactly_one_target(self, runner):
        res = runner.invoke(cli, ["verify", "--which", "pfde"])
        assert res.exit_code == 2
        res = runner.invoke(cli, ["verify", "--all", "--case", "2", "--which", "pfde"])
        assert res.exit_code == 2

    def test_determining_sweep(self, runner):
        res = run(runner, "verify", "--case", "9", "--which", "determining",
                  "--res", "10x10")
        assert res.exit_code == 0

    @pytest.mark.parametrize("which", RELATIONS)
    @pytest.mark.parametrize("case_args, entry, region", [
        (["--case", "13"], get_case(13), get_case(13).sample_region),
        # lambda = 1/2 puts the rays x/t = -1.678... and 0.768... inside the region
        (["--case", "5", "--lambda", "0.5", "--region", "0.5,1,0.2,3"], get_case(5, 0.5),
         Region(0.5, 1.0, 0.2, 3.0)),
    ], ids=["case13", "case5-rays"])
    def test_sweeps_the_row_of_the_relation_table(self, runner, which, case_args, entry,
                                                  region):
        res = runner.invoke(cli, ["verify", *case_args, "--which", which, "--res", "9x9"])
        rep = sweep(RELATIONS[which](entry), region, 9, 9, valid=entry.valid)
        passed = rep.max_abs_residual <= 1e-9
        assert res.exit_code == (0 if passed else 1)
        assert json.loads(res.output) == {"case": entry.id, "which": which, "pass": passed,
                                          "tol": 1e-9, **rep.to_dict()}

    def test_a_wrapper_on_the_module_attribute_sees_the_call(self, runner, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return pfde_residual_scaled(*args, **kwargs)

        monkeypatch.setattr(verify, "pfde_residual_scaled", counted)
        run(runner, "verify", "--case", "13", "--which", "pfde", "--res", "9x9")
        assert len(calls) == 1  # one call on the whole grid


class TestTransform:
    def test_identity_matches_eval(self, runner):
        ev = run(runner, "eval", "--case", "2", "--nu", "-1", "--region",
                 "0,1,-1,1", "--res", "5x5")
        tr = run(runner, "transform", "--element", IDENTITY, "--case", "2",
                 "--nu", "-1", "--region", "0,1,-1,1", "--res", "5x5")
        assert tr.output.endswith(ev.output) or tr.output == ev.output

    def test_boost_recheck_passes(self, runner):
        res = run(runner, "transform", "--element", BOOST, "--case", "2",
                  "--nu", "-1", "--region", "0,1,-1,1", "--res", "6x6",
                  "--recheck")
        assert res.exit_code == 0

    def test_degenerate_element_rejected_at_parse(self, runner):
        res = runner.invoke(cli, ["transform", "--element", DEGENERATE,
                                  "--case", "2", "--region", "0,1,-1,1"])
        assert res.exit_code == 2

    def test_malformed_json_rejected(self, runner):
        res = runner.invoke(cli, ["transform", "--element", "{not json",
                                  "--case", "2", "--region", "0,1,-1,1"])
        assert res.exit_code == 2

    def test_recheck_over_tolerance_exits_1(self, runner):
        # the README's boost with no tolerance: the image's roundoff residual fails
        res = runner.invoke(cli, ["transform", "--element", BOOST, "--case", "2", "--nu=-1",
                                  "--region", "0,1,-1,1", "--recheck", "--tol", "0"])
        assert res.exit_code == 1
        assert json.loads(res.stderr)["recheck_pass"] is False

    def test_no_point_evaluated_exits_3(self, runner):
        # as with --recheck below: nothing evaluated is not a success
        grid = ["--case", "7", "--region", "1,2,0,0", "--res", "3x3"]
        res = runner.invoke(cli, ["transform", "--element", IDENTITY, "--nu", "0", "--c1", "4",
                                  "--c2", "1", *grid])
        ver = runner.invoke(cli, ["verify", "--which", "pfde", *grid])
        assert res.exit_code == ver.exit_code == 3
        assert res.stdout == ""
        assert res.stderr == ver.stderr

    def test_recheck_with_no_point_checked_exits_3(self, runner):
        # every point of the column x = 0 is off case 7's domain, as in verify
        grid = ["--case", "7", "--region", "1,2,0,0", "--res", "3x3"]
        res = runner.invoke(cli, ["transform", "--element", IDENTITY, "--nu", "0", "--c1", "4",
                                  "--c2", "1", *grid, "--recheck"])
        ver = runner.invoke(cli, ["verify", "--which", "pfde", *grid])
        assert res.exit_code == ver.exit_code == 3
        assert res.stderr == ver.stderr == (
            "error: no valid points in Region(t0=1.0, t1=2.0, x0=0.0, x1=0.0) "
            "on a 3x3 grid (9 skipped)\n")


# u = 1/(x - 1/2) solves the equation with f = 1/2; its predicate admits the
# grid column x = 1/2, where its value fails
POLE = SolutionField(u=ScalarField(lambda t, x: 1.0 / (x - 0.5), name="pole"),
                     f=constant_field(0.5), provenance="pole", valid=lambda p: True)


class TestAValueThatFailsAtAValidPoint:
    GRID = ["--case", "2", "--region", "0,1,-1,1", "--res", "3x5"]

    def test_eval_names_the_first_such_point(self, runner, monkeypatch):
        monkeypatch.setattr("gburgers.cli._solution", lambda *args: POLE)
        res = runner.invoke(cli, ["eval", *self.GRID])
        assert res.exit_code == 3
        assert res.stderr == ("error: solution is singular at (0, 0.5); "
                              "choose a region inside the valid domain\n")

    def test_transform_skips_and_counts_it(self, runner, monkeypatch):
        monkeypatch.setattr("gburgers.cli._solution", lambda *args: POLE)
        res = runner.invoke(cli, ["transform", "--element", IDENTITY, *self.GRID, "--recheck"])
        assert res.exit_code == 0
        meta = json.loads(res.stderr)
        assert (meta["points_checked"], meta["points_skipped"]) == (12, 3)
        assert meta["recheck_pass"] is True
        rows = [line.split(",") for line in res.stdout.strip().split("\n")[1:]]
        assert len(rows) == 12 and "0.5" not in {x for _, x, _ in rows}


class TestSolveAndConvergence:
    def test_solve_reports_errors(self, runner):
        res = run(runner, "solve", "--case", "2", "--nu", "-1", "--region",
                  "0,0.2,-1,1", "--nx", "16")
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["max_err"] < 1e-2
        assert rep["n_x"] == 16

    def test_solve_ill_posed_case1(self, runner):
        res = runner.invoke(cli, ["solve", "--case", "1", "--solution", "xi",
                                  "--region", "0,0.5,-1,1", "--nx", "16"])
        assert res.exit_code == 3
        assert "strictly negative" in res.output

    def test_pole_of_the_exact_solution_exits_3(self, runner, tmp_path):
        # theta = x of case 2 puts the pole of this branch on the mesh line x = 1/2
        pole = ["--case", "2", "--nu", "0", "--c1=-0.5", "--c2", "1", "--region", "0,0.2,-1,1"]
        out = tmp_path / "levels.csv"
        for args in (["solve", *pole, "--nx", "16"],
                     ["solve", *pole, "--nx", "16", "--out", str(out)],
                     ["convergence", *pole, "--resolutions", "16,32,64"]):
            res = runner.invoke(cli, args)
            assert res.exit_code == 3 and res.stderr.startswith("error: "), args
        assert not out.exists()

    def test_blow_up_mid_march_leaves_no_file(self, tmp_path):
        # data spiking between the probe times overflow after some levels
        # were written
        f = ScalarField(lambda t, x: -1.0)
        u = ScalarField(lambda t, x: 0.0 * x + np.where((0.408 < t) & (t < 0.420), 1e200, 0.0))
        spiky = IbvpSpec(f=f, region=Region(0.0, 1.0, -1.0, 1.0), n_x=16,
                         exact=SolutionField(u=u, f=f, provenance="spike",
                                             valid=lambda p: True))
        out = tmp_path / "levels.csv"
        with pytest.raises(BlowUpError):
            _write_levels(march(spiky), str(out))
        assert not out.exists()

    def test_a_file_that_cannot_be_opened_is_kept(self, runner, tmp_path, monkeypatch):
        # only a file this run opened is removed when the run fails
        keep = tmp_path / "keep.csv"
        keep.write_text("earlier run\n")

        def refuse(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr("gburgers.cli.open", refuse, raising=False)
        res = runner.invoke(cli, ["solve", "--case", "2", "--nu=-1", "--region", "0,0.01,-1,1",
                                  "--nx", "8", "--out", str(keep)])
        assert keep.read_text() == "earlier run\n"
        assert res.exit_code == 2

    def test_convergence_table(self, runner):
        res = run(runner, "convergence", "--case", "2", "--nu", "-1", "--region",
                  "0,0.2,-1,1", "--resolutions", "16,32,64")
        rep = json.loads(res.output)
        assert 1.7 <= rep["observed_order"] <= 2.3
        assert len(rep["max_errors"]) == 3

    def test_degenerate_order_is_null(self, runner):
        # u = 0 is marched exactly, so the errors sit at the roundoff floor
        res = run(runner, "convergence", "--case", "2", "--nu", "0", "--c1", "1", "--c2", "0",
                  "--region", "0,0.2,-1,1", "--resolutions", "16,32,64")

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        rep = json.loads(res.output, parse_constant=refuse)
        assert rep["degenerate"] is True
        assert rep["observed_order"] is None

    def test_bad_resolutions_usage_error(self, runner):
        res = runner.invoke(cli, ["convergence", "--case", "2", "--region",
                                  "0,0.2,-1,1", "--resolutions", "16,20"])
        assert res.exit_code == 2


class TestUsageErrors:
    REGION = ["--region", "0,0.2,-1,1"]

    @pytest.mark.parametrize("args", [
        ["eval", "--case", "99", *REGION],
        ["verify", "--case", "99", "--which", "pfde"],
        ["eval", "--case", "2", "--lambda", "3", *REGION],
        ["solve", "--case", "2", *REGION, "--nx", "4"],
        ["solve", "--case", "2", *REGION, "--dt-safety", "2"],
        ["solve", "--case", "2", *REGION, "--c1", "0", "--c2", "0"],
        ["eval", "--case", "2", *REGION, "--res", "5by5"],
        ["eval", "--case", "2", *REGION, "--res", "1x5"],
        ["convergence", "--case", "2", *REGION, "--resolutions", "16,32.5,64"],
        ["eval", "--case", "2", "--region", "0,inf,0,1"],
        ["eval", "--case", "2", "--region=-1e308,1e308,0,1"],
        ["eval", "--case", "2", "--solution", "rational", "--c1", "1", "--c2", "inf", *REGION],
        ["eval", "--case", "2", "--nu", "nan", *REGION],
        ["eval", "--case", "2", "--c1", "inf", *REGION],
        ["eval", "--case", "5", "--lambda", "inf", "--region", "0.5,1,1.5,3"],
        ["list", "--case", "5", "--lambda", "nan"],
        ["transform", "--element", NAN_MU0, "--case", "2", *REGION],
        ["transform", "--element", INFINITE_KAPPA, "--case", "2", *REGION],
        ["verify", "--case", "7", "--which", "pfde", "--tol", "nan"],
        ["verify", "--case", "7", "--which", "pfde", "--tol", "inf"],
        ["verify", "--case", "7", "--which", "pfde", "--tol=-1"],
        ["transform", "--element", IDENTITY, "--case", "2", *REGION, "--tol", "nan"],
        ["solve", "--case", "2", "--region", "0,1,1,1"],
        ["convergence", "--case", "2", "--region", "0,0.2,1,1"],
        ["solve", "--case", "2", "--nu=-1", "--region", "0,0,-1,1", "--nx", "8"],
        ["convergence", "--case", "2", "--nu=-1", "--region", "0,0,-1,1"],
    ], ids=lambda args: " ".join(args))
    def test_bad_input_exits_2_without_a_traceback(self, args):
        res = CliRunner().invoke(cli, args)
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert "Error: " in res.stderr

    @pytest.mark.parametrize("args", [
        ["list"],
        ["eval", "--case", "2", "--nu=-1", *REGION, "--res", "5x5"],
        ["verify", "--case", "7", "--which", "pfde", "--res", "9x9"],
        ["convergence", "--case", "2", "--nu=-1", *REGION, "--resolutions", "8,16,32"],
    ], ids=lambda args: args[0])
    def test_out_holds_the_bytes_of_stdout(self, args, tmp_path):
        out = tmp_path / "out"
        to_stdout = CliRunner().invoke(cli, args, catch_exceptions=False)
        to_file = CliRunner().invoke(cli, [*args, "--out", str(out)], catch_exceptions=False)
        assert to_stdout.exit_code == to_file.exit_code == 0
        assert to_file.stdout == ""
        assert out.read_bytes() == to_stdout.stdout_bytes

    @pytest.mark.parametrize("args", [
        ["list"],
        ["verify", "--case", "7", "--which", "pfde", "--res", "9x9"],
        ["solve", "--case", "2", "--nu=-1", *REGION, "--nx", "8"],
        ["convergence", "--case", "2", "--nu=-1", *REGION, "--resolutions", "8,16,32"],
    ], ids=lambda args: args[0])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_exits_2_without_a_traceback(self, args, where, tmp_path):
        out = tmp_path / "missing" / "out" if where == "missing directory" else tmp_path
        res = CliRunner().invoke(cli, [*args, "--out", str(out)])
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert f"cannot write {out}" in res.stderr


class TestDeterminism:
    def test_byte_identical_reruns(self, runner):
        args = ["verify", "--case", "13", "--which", "potential", "--res", "9x9"]
        assert run(runner, *args).output == run(runner, *args).output

    def test_17_significant_digits(self, runner):
        res = run(runner, "eval", "--case", "7", "--solution", "xi",
                  "--region", "1,1,3,3", "--res", "2x2")
        # xi = x/t = 3 exactly; value printed exactly
        rows = res.output.strip().split("\n")[1:]
        assert all(r.split(",")[2] == "3" for r in rows)
        res2 = run(runner, "eval", "--case", "7", "--solution", "xi",
                   "--region", "1,1,1,2", "--res", "2x3")
        assert "1.5" in res2.output


def test_scipy_is_imported_only_when_needed():
    # scipy is only the tests' reference: with every import of it made to
    # fail, the listing, case 5's quadrature (eval) and its denominator's
    # roots at lambda = 0.5 (verify) all run
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = """if True:
        import sys
        sys.modules["scipy"] = None  # every import of scipy now raises ImportError
        from click.testing import CliRunner
        from gburgers.cli import cli
        for args in (["list"],
                     ["eval", "--case", "5", "--nu", "1", "--c1", "0.3", "--c2", "1",
                      "--region", "0.5,1,1.5,3", "--res", "11x11", "--format", "json"],
                     ["verify", "--case", "5", "--lambda", "0.5", "--which", "potential"]):
            res = CliRunner().invoke(cli, args)
            print(res.exit_code, len(res.output.splitlines()), repr(res.exception))
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in out] == ["0", "0", "0"], out
    assert out[0].split()[1] == "18"  # the listing: header and 17 rows
