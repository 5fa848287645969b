"""Large CLI commands under a memory cap end in an answer or one error line, never a traceback.

Each command runs as ``python -m spindex`` in a child process whose address
space is capped at 1 GB (``RLIMIT_AS``), with a 60 s budget and one BLAS
thread, so the cap does not depend on the core count.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

from test_decompose_check import _su3_family

SRC = Path(__file__).resolve().parents[1] / "src"
CAP_BYTES = 1 << 30
BUDGET_S = 60


def _capped():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


def run_capped(*argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "spindex", *argv], capture_output=True,
                          text=True, env=env, timeout=BUDGET_S, preexec_fn=_capped)


def test_su3_500_1000_decomposes_under_a_1_gb_cap():
    run = run_capped("decompose", "--model", "su3-flag-bundle", "--a", "500", "--b", "1000")
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    assert lines[0] == "model: su3-flag-bundle(a=500,b=1000)"
    # rows after the header and its rule: infinitesimal character, highest weight, m, dim
    got = {}
    for row in lines[3:]:
        lam, _, m, _ = row.split()
        got[tuple(map(int, lam.split(",")))] = int(m)
    assert got == _su3_family(500, 1000)
    assert len(got) == 998


def test_a5_orbit_past_the_cap_ends_in_one_error_line():
    # the factors expanded before the one that would pass the 2^24-term bound
    # already take more than 1 GB, so the cap is met before the bound
    run = run_capped("index", "--model", "orbit", "--group", "A5", "--mu", "2,1,1,1,2")
    assert run.returncode == 2, run.stderr[-2000:]
    assert "Traceback" not in run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_su3_500_1000_verifies_under_a_1_gb_cap():
    run = run_capped("verify-qr", "--model", "su3-flag-bundle", "--a", "500", "--b", "1000",
                     "--provider", "constant:1", "--format", "json")
    assert run.returncode == 0, run.stderr[-2000:]
    report = json.loads(run.stdout)
    assert report["verdict"] == "match"
    got = {tuple(map(int, row["infinitesimal_character"])): row["multiplicity"]
           for row in report["lhs"]}
    assert got == _su3_family(500, 1000)
