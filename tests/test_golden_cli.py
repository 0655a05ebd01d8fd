"""Golden CLI outputs: stdout, stderr and exit code of fixed invocations.

The SHA-256 digests in ``golden_cli.json`` were recorded once; every later
version of the program must reproduce them byte for byte.  Floats are
printed with 17 significant digits, so a digest also pins every value to
the last bit, and with it the libm and numpy build that computed it: the
fixture names the platform, Python and numpy it was recorded with, and the
comparison is skipped elsewhere.

Re-record (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import hashlib
import json
import os
import platform
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from gburgers.cli import cli

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

BOOST = '{"alpha":1,"beta":0,"gamma":0,"delta":1,"mu0":0,"mu1":3,"kappa":1}'
# the element and target region of the benchmark's cli_export workload at seed 1
SEEDED = ('{"alpha": 0.8512881973699782, "beta": 0.10438472425394223, '
          '"delta": 1.1687476936820358, "gamma": -0.04846382170626248, '
          '"kappa": 1.3609624449125755, "mu0": -0.05550951284776673, '
          '"mu1": -0.12038477667627223}')
SEEDED_REGION = "0.08931338567024424,0.8530631029944178,-2.3764186867074386,2.272665119226769"
# its inverse has gamma*t + delta = 0 at t = 1, a row of the 11x11 grid below
PROJECTIVE = '{"alpha":1,"beta":0,"gamma":1,"delta":1,"mu0":0.5,"mu1":0.25,"kappa":2}'

INVOCATIONS = [
    ["list"],
    ["list", "--format", "json"],
    *(["verify", "--all", "--which", w] for w in
      ("gbe", "pfde", "potential", "reduced", "determining")),
    ["verify", "--case", "5", "--lambda", "0.5", "--which", "potential"],
    ["verify", "--case", "5", "--lambda", "0.5", "--which", "potential",
     "--region", "0.5,1,0.2,3"],
    ["verify", "--case", "7", "--which", "pfde", "--region", "1,2,-1,1"],
    ["verify", "--case", "7", "--which", "pfde", "--region", "1,2,0,0", "--res", "5x5"],
    ["verify", "--case", "13", "--which", "pfde"],
    *(["eval", "--case", "9", "--nu=-1", "--c1=1", "--c2=1",
       "--region", "0.5,1.5,-0.6,0.6", "--res", res] for res in ("11x11", "149x149")),
    *(["eval", "--case", "7", "--solution", "xi", "--region", "1,2,1,3", "--res", res]
      for res in ("11x11", "149x149")),
    *(["eval", "--case", "2", "--solution", "rational", "--c1", "1", "--c2", "1",
       "--region", "0,1,-2,2", "--res", res] for res in ("11x11", "149x149")),
    ["eval", "--case", "5", "--nu", "1", "--c1", "0.3", "--c2", "1",
     "--region", "0.5,1,1.5,3", "--res", "11x11", "--format", "json"],
    ["eval", "--case", "7", "--solution", "xi", "--region", "1,2,-1,1", "--res", "5x5"],
    ["eval", "--case", "2", "--nu", "0", "--c1=-0.5", "--c2", "1",
     "--region", "0,1,-2,2", "--res", "9x9"],
    ["transform", "--element", BOOST, "--case", "2", "--nu=-1",
     "--region", "0,1,-1,1", "--recheck"],
    ["transform", "--element", SEEDED, "--case", "2", "--nu=-1", "--c1=1", "--c2=1",
     "--region", SEEDED_REGION, "--res", "30x30", "--recheck"],
    ["transform", "--element", PROJECTIVE, "--case", "7", "--nu", "0", "--c1", "4",
     "--c2", "1", "--region", "0,2,1,3", "--recheck"],
    ["solve", "--case", "2", "--nu=-1", "--region", "0,0.2,-1,1", "--nx", "16"],
    ["convergence", "--case", "2", "--nu=-1", "--region", "0,0.2,-1,1",
     "--resolutions", "16,32,64"],
]


def environment() -> dict:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def outcome(args: list[str]) -> dict:
    res = CliRunner().invoke(cli, args, catch_exceptions=False)
    return {"args": args, "exit_code": res.exit_code,
            "stdout_sha256": hashlib.sha256(res.stdout_bytes).hexdigest(),
            "stderr_sha256": hashlib.sha256(res.stderr_bytes).hexdigest()}


def _load() -> dict:
    if not os.path.exists(FIXTURE):
        return {"recorded_with": {}, "invocations": []}
    with open(FIXTURE) as fh:
        return json.load(fh)


FIXTURE_DATA = _load()
GOLDEN = FIXTURE_DATA["invocations"]


def _same_build(recorded: dict) -> bool:
    here = environment()
    return all(recorded[k] == here[k] for k in ("machine", "numpy")) and \
        recorded["python"].rsplit(".", 1)[0] == here["python"].rsplit(".", 1)[0]


# the CSV of every time level of this solve (the header and 561 rows), pinned
# by its digest like the outputs in the fixture
SOLVE_OUT = ["solve", "--case", "2", "--nu=-1", "--region", "0,0.2,-1,1", "--nx", "16"]
SOLVE_OUT_SHA256 = "d802620fbb97612c95bfd203c683f51f0e0f892797295c28b011f80a85ea6f08"


def test_fixture_covers_every_invocation():
    assert [g["args"] for g in GOLDEN] == INVOCATIONS


@pytest.mark.parametrize("golden", GOLDEN, ids=[" ".join(g["args"][:3]) for g in GOLDEN])
def test_output_is_byte_identical(golden):
    recorded = FIXTURE_DATA["recorded_with"]
    if not _same_build(recorded):
        pytest.skip(f"digests were recorded with {recorded}, not {environment()}")
    assert outcome(golden["args"]) == golden


def test_solve_out_file_is_byte_identical(tmp_path):
    recorded = FIXTURE_DATA["recorded_with"]
    if not _same_build(recorded):
        pytest.skip(f"digests were recorded with {recorded}, not {environment()}")
    out = tmp_path / "levels.csv"
    res = CliRunner().invoke(cli, [*SOLVE_OUT, "--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 562
    assert hashlib.sha256(data).hexdigest() == SOLVE_OUT_SHA256


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    data = {"recorded_with": environment(),
            "invocations": [outcome(args) for args in INVOCATIONS]}
    with open(FIXTURE, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
