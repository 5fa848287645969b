"""The three benchmark workloads: seeded request schedules, requests and answer checks.

Each workload has a fixed pool of requests.  The seed only sets the order in
which the pool is sent: every pass over the pool is a fresh stratified
shuffle (``balanced_order``), so that any prefix of a pass holds each stratum
(a group, or a band of su3 parameters) in proportion.  Per-request cost
depends mostly on the stratum, so a run of fixed length does about the same
work for every seed, and seed-to-seed spread comes from the machine rather
than from the draw.

Answers are checked by a route independent of the computation that made them;
a wrong answer is a failed request, never a crash.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIM = Path(__file__).resolve().parent / "cli_shim.py"

GRID_GROUPS = ("A1", "A2", "A3", "B2", "G2")
GRID_MAX = 4
SU3_MAX = 40
CLI_GROUPS = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "G2")
CLI_ORBIT_MAX = 4
CLI_REQUEST_TIMEOUT_S = 30.0

# Fundamental weights omega_i whose orbit is not admissible; the pool uses
# omega_i / 2 for these (Bourbaki numbering, as in spindex.roots).
HALVED_FUNDAMENTALS = {
    "A2": (1, 2), "A4": (1, 2, 3, 4), "B2": (1,), "B3": (1,), "B4": (1, 3),
    "C3": (2,), "C4": (2, 4), "D4": (2,), "G2": (1, 2),
}


def balanced_order(items, stratum, rng: random.Random) -> list:
    """One pass over ``items`` in a seeded order that spreads each stratum evenly.

    Items of a stratum of size n get keys (j + u) / n for a random offset u,
    after a shuffle inside the stratum; sorting by key interleaves strata in
    proportion to their sizes.
    """
    strata: dict = {}
    for item in items:
        strata.setdefault(stratum(item), []).append(item)
    keyed = []
    for name in sorted(strata):
        group = strata[name]
        rng.shuffle(group)
        u = rng.random()
        keyed += [((j + u) / len(group), rng.random(), item) for j, item in enumerate(group)]
    keyed.sort(key=lambda k: k[:2])
    return [item for _, _, item in keyed]


def schedule(pool, stratum, seed: int):
    """Endless request stream: passes over the pool, each in a fresh balanced order."""
    rng = random.Random(seed)
    while True:
        yield from balanced_order(pool, stratum, rng)


# -- classical group orders, for checks that do not trust spindex.roots ----------


def weyl_order(letter: str, n: int) -> int:
    """|W| of a simple type from the classical formulas (types A-D and G2)."""
    if n <= 0:
        return 1
    if letter == "A":
        return math.factorial(n + 1)
    if letter in "BC":
        return 2 ** n * math.factorial(n)
    if letter == "D":  # also right for D2 = A1 x A1 and D3 = A3
        return 2 ** (n - 1) * math.factorial(n)
    if letter == "G" and n == 2:
        return 12
    raise ValueError(f"no order formula for {letter}{n}")


def ray_stabilizer_order(letter: str, n: int, i: int) -> int:
    """|W_sigma| for the ray through omega_i: the Weyl group of the diagram minus node i."""
    if letter == "G":
        return 2
    if letter == "D" and i >= n - 1:
        return math.factorial(n)  # the fork nodes leave A_{n-1}
    # A_{i-1} on nodes 1 .. i-1 times the same type on nodes i+1 .. n
    return math.factorial(i) * weyl_order(letter, n - i)


def fundamental_mu(group: str, i: int) -> str:
    coords = ["0"] * int(group[1:])
    coords[i - 1] = "1/2" if i in HALVED_FUNDAMENTALS.get(group, ()) else "1"
    return ",".join(coords)


# -- orbit-grid -------------------------------------------------------------------


class OrbitGrid:
    """orbit_model -> localized_index -> decompose on every admissible orbit of the grid."""

    name = "orbit-grid"

    def __init__(self, sx, recorder=None):
        self.sx = sx
        self.groups = {label: sx.build_root_system(label) for label in GRID_GROUPS}
        self.pool = []
        for label, rs in self.groups.items():
            for face in sx.all_faces(rs):
                for orbit in sx.admissible_orbits_on_face(
                        face, (Fraction(0), Fraction(GRID_MAX)), rs):
                    predicted = sx.orbit_spin_index(orbit, rs)
                    expected = {} if predicted.is_zero else {predicted.lam: 1}
                    self.pool.append((label, orbit.mu, expected))

    @staticmethod
    def stratum(item):
        return item[0]

    def run(self, item):
        label, mu, _ = item
        rs = self.groups[label]
        sx = self.sx
        return sx.decompose(sx.localized_index(sx.orbit_model(rs, mu)), rs)

    @staticmethod
    def check(item, answer) -> bool:
        """The decomposition is orbit_spin_index's prediction: zero, or pi(lam) once."""
        return answer.multiplicities() == item[2]


# -- su3-qr -----------------------------------------------------------------------


def su3_family(a: int, b: int) -> dict:
    """Closed form for 0 <= a < b: sum_{j<=b-a-2} pi(rho + j w1) + sum_{j<a} pi(rho + j w2)."""
    acc: dict = {}
    for lam in [(1 + j, 1) for j in range(b - a - 1)] + [(1, 1 + j) for j in range(a)]:
        acc[lam] = acc.get(lam, 0) + 1
    return acc


class Su3Qr:
    """verify_qr(su3_flag_bundle(a, b), constant:1) over 0 <= a, b <= SU3_MAX."""

    name = "su3-qr"

    def __init__(self, sx, recorder=None):
        self.sx = sx
        self.provider = sx.ConstantProvider(1)
        self.pool = [(a, b) for a in range(SU3_MAX + 1) for b in range(SU3_MAX + 1)]

    @staticmethod
    def stratum(item):
        return tuple(min(x // 10, 3) for x in item)

    def run(self, item):
        return self.sx.verify_qr(self.sx.su3_flag_bundle(*item), self.provider)

    @staticmethod
    def check(item, report) -> bool:
        """Both sides agree term by term, and for a < b the left side is the closed family."""
        a, b = item
        lhs = report.lhs.multiplicities()
        if not report.match or lhs != report.rhs.multiplicities():
            return False
        return a >= b or lhs == su3_family(a, b)


# -- cli-census -------------------------------------------------------------------


def cli_pool() -> list[tuple[str, ...]]:
    pool = []
    for group in CLI_GROUPS:
        pool.append(("faces", "--group", group, "--format", "json"))
        pool.append(("orbits", "--group", group, "--face", "w1",
                     "--max", str(CLI_ORBIT_MAX), "--format", "json"))
        for i in range(1, int(group[1:]) + 1):
            pool.append(("export-model", "--model", "orbit", "--group", group,
                         "--mu", fundamental_mu(group, i)))
    return pool


def check_cli_output(argv, stdout: str) -> bool:
    """Structural check of one CLI answer against counts known in closed form."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        return False
    group = argv[argv.index("--group") + 1]
    letter, rank = group[0], int(group[1:])
    if argv[0] == "faces":
        return obj.get("group") == group and len(obj.get("faces", ())) == 2 ** rank
    if argv[0] == "orbits":
        # the w1 coordinate steps by 1 through (0, max] from its admissible residue
        mus = [o["mu"] for o in obj.get("orbits", ())]
        return (len(mus) == CLI_ORBIT_MAX
                and all(set(mu[1:]) <= {"0"} and len(mu) == rank for mu in mus))
    mu = argv[argv.index("--mu") + 1].split(",")
    i = next(k for k, c in enumerate(mu, 1) if c != "0")
    expected = weyl_order(letter, rank) // ray_stabilizer_order(letter, rank, i)
    return len(obj.get("fixed_points", ())) == expected


def child_env() -> dict:
    """Environment of every benchmark process: the checkout's ``src`` first on the path.

    numpy's OpenBLAS reserves address space for a thread pool sized by the
    core count, which would make the RLIMIT_AS cap depend on the machine;
    spindex does no linear algebra, so one BLAS thread is enough.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class CliCensus:
    """Cold ``python -m spindex`` processes drawn from a fixed pool of commands."""

    name = "cli-census"

    def __init__(self, sx, recorder=None):
        self.pool = cli_pool()
        self.recorder = recorder
        self.env = child_env()

    @staticmethod
    def stratum(item):
        return item[item.index("--group") + 1]

    def run(self, item):
        if self.recorder is None:
            proc = subprocess.run([sys.executable, "-m", "spindex", *item], env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CLI_REQUEST_TIMEOUT_S)
            return proc.returncode, proc.stdout
        return self.recorder.traced_process(
            [sys.executable, str(SHIM), *item], self.env, CLI_REQUEST_TIMEOUT_S)

    @staticmethod
    def check(item, answer) -> bool:
        """Exit code 0, parseable JSON, and the counts ``check_cli_output`` knows."""
        code, stdout = answer
        return code == 0 and check_cli_output(item, stdout)


CLASSES = {cls.name: cls for cls in (OrbitGrid, Su3Qr, CliCensus)}
WORKLOADS = tuple(CLASSES)
