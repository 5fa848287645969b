"""Tests of the benchmark itself: statistics, self time, seeding, checkers, isolation.

Run with ``PYTHONPATH=src python -m pytest -q bench/test_bench.py``.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spindex  # noqa: E402
import spindex.cli  # noqa: E402
from run import percentile, run_child, tail_percentile  # noqa: E402
from tracing import layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CLI_GROUPS,
    CLASSES,
    CliCensus,
    OrbitGrid,
    Su3Qr,
    check_cli_output,
    cli_pool,
    fundamental_mu,
    ray_stabilizer_order,
    schedule,
    weyl_order,
)


# -- tail percentile ---------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert percentile(values, 99.9) == 100
    assert percentile([7], 50.0) == 7


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_children_once_and_within_parent():
    spans = [
        ["request", 0.0, 10.0, None, 0, None],
        ["qr.verify", 1.0, 9.0, 0, 0, 3],
        ["localization.index", 2.0, 5.0, 1, 0, 7],
        ["characters.decompose", 4.0, 6.0, 1, 0, 1],  # overlaps its sibling
        ["characters.weyl", 5.5, 6.0, 3, 0, "k"],
        ["cli.import", 8.5, 11.0, 1, 0, None],  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.5, 3.0, 1.5, 0.5, 2.5])
    metrics = layer_metrics(spans, overhead_ratio=0.9)
    assert metrics["qr.verify_self_s"] == (pytest.approx(3.5), "s")
    assert metrics["localization.index_s"] == (pytest.approx(3.0), "s")
    assert metrics["localization.index_terms_out"] == (7, "count")
    assert metrics["localization.index_share"][0] == pytest.approx(0.3)
    assert metrics["qr.orbit_terms"] == (3, "count")
    assert metrics["roots.build_s"] == (0.0, "s")
    assert metrics["trace.overhead_ratio"] == (0.9, "ratio")


def test_weyl_repeat_ratio_counts_keys_seen_before():
    spans = [["characters.weyl", float(i), i + 0.5, None, 0, key]
             for i, key in enumerate(["a", "b", "a", "a"])]
    assert layer_metrics(spans, 1.0)["characters.weyl_repeat_ratio"] == (0.5, "ratio")


def test_recorder_wraps_every_lookup_name():
    from tracing import Recorder

    original = spindex.localization.localized_index
    recorder = Recorder()
    replaced = recorder.install()
    try:
        assert spindex.qr.localized_index is spindex.localization.localized_index
        assert spindex.localized_index.__wrapped__ is original
        spindex.verify_qr(spindex.su3_flag_bundle(0, 2), spindex.ConstantProvider(1))
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)
    names = [s[0] for s in recorder.spans]
    assert {"qr.verify", "localization.index", "characters.decompose",
            "localization.model"} <= set(names)
    parents = {s[0]: recorder.spans[s[3]][0] for s in recorder.spans if s[3] is not None}
    assert parents["localization.index"] == "qr.verify"
    assert spindex.qr.localized_index is original


# -- seeding -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def workloads():
    return {name: cls(spindex) for name, cls in CLASSES.items()}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_same_seed_same_requests_other_seed_other_draw(workloads, name):
    wl = workloads[name]
    n = len(wl.pool) + 7  # crosses into the second pass

    def draw(seed):
        return list(itertools.islice(schedule(wl.pool, wl.stratum, seed), n))

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)
    first_pass = draw(3)[:len(wl.pool)]
    assert sorted(map(repr, first_pass)) == sorted(map(repr, wl.pool))


def test_balanced_order_spreads_strata(workloads):
    wl = workloads["cli-census"]
    order = list(itertools.islice(schedule(wl.pool, wl.stratum, 9), len(wl.pool)))
    half = [wl.stratum(item) for item in order[:len(order) // 2]]
    for group in CLI_GROUPS:
        size = sum(wl.stratum(item) == group for item in wl.pool)
        assert abs(half.count(group) - size / 2) <= 1


def test_pools_cover_the_stated_inputs(workloads):
    grid = workloads["orbit-grid"].pool
    assert len(grid) == 205
    assert sum(label in ("A1", "A2", "A3") for label, _, _ in grid) == 155
    assert len(workloads["su3-qr"].pool) == 41 * 41
    assert len(cli_pool()) == sum(2 + int(g[1:]) for g in CLI_GROUPS)


# -- checkers ----------------------------------------------------------------------


def _perturbed(mult: dict) -> dict:
    lam = next(iter(mult))
    return {**mult, lam: mult[lam] + 1}


@pytest.mark.parametrize("label, mu", [("A2", (1, 1)), ("A2", (Q(1, 2), 0)), ("B2", (1, 1))])
def test_orbit_grid_checker_rejects_a_perturbed_answer(workloads, label, mu):
    wl = workloads["orbit-grid"]
    item = next(i for i in wl.pool if i[0] == label and i[1] == mu)
    answer = wl.run(item)
    assert OrbitGrid.check(item, answer)
    mult = answer.multiplicities() or {spindex.build_root_system(label).rho: 0}
    assert not OrbitGrid.check(item, spindex.Decomposition(_perturbed(mult)))


@pytest.mark.parametrize("a, b", [(1, 3), (0, 5), (3, 1), (2, 2)])
def test_su3_checker_rejects_a_perturbed_answer(workloads, a, b):
    report = workloads["su3-qr"].run((a, b))
    assert Su3Qr.check((a, b), report)
    lhs = spindex.Decomposition(_perturbed(report.lhs.multiplicities()))
    assert not Su3Qr.check((a, b), dataclasses.replace(report, lhs=lhs))


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert spindex.cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv, key", [
    (("faces", "--group", "B3", "--format", "json"), "faces"),
    (("orbits", "--group", "A2", "--face", "w1", "--max", "4", "--format", "json"), "orbits"),
    (("export-model", "--model", "orbit", "--group", "D4", "--mu", "0,0,0,1"),
     "fixed_points"),
])
def test_cli_checker_rejects_a_perturbed_answer(argv, key):
    stdout = _cli(argv)
    assert CliCensus.check(argv, (0, stdout))
    assert not CliCensus.check(argv, (1, stdout))
    assert not CliCensus.check(argv, (0, stdout[:-20]))
    obj = json.loads(stdout)
    obj[key] = obj[key][1:]
    assert not check_cli_output(argv, json.dumps(obj))


def test_fundamental_orbits_are_admissible_exactly_when_halved():
    for group in CLI_GROUPS:
        rs = spindex.build_root_system(group)
        for i in range(1, rs.rank + 1):
            mu = spindex.parse_weight(fundamental_mu(group, i))
            assert spindex.is_admissible(mu, rs)
            if mu[i - 1] != 1:
                assert not spindex.is_admissible(tuple(2 * c for c in mu), rs)


@pytest.mark.parametrize("group", ["A1", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_classical_orders_match_enumeration(group):
    rs = spindex.build_root_system(group)
    letter, rank = group[0], rs.rank
    assert weyl_order(letter, rank) == rs.weyl_order()
    for i in range(1, rank + 1):
        model = spindex.orbit_model(rs, spindex.parse_weight(fundamental_mu(group, i)))
        assert weyl_order(letter, rank) // ray_stabilizer_order(letter, rank, i) \
            == len(model.fixed_points)


# -- child isolation ---------------------------------------------------------------


def test_wall_clock_budget_ends_the_child_as_timeout():
    run = run_child("orbit-grid", 0, seconds=60.0, budget=1.5)
    assert run["status"] == "timeout"
    assert run["failed"] == 1
    assert run["attempted"] == len(run["requests"]) + 1


def test_address_space_cap_ends_the_child_as_oom():
    probe = run_child("orbit-grid", 0, setup_only=True, budget=30.0)
    assert probe["status"] == "ok" and probe["vm_peak_kb"]
    cap_mb = probe["vm_peak_kb"] // 1024 + 8  # room for set-up, not for the big A3 orbits
    run = run_child("orbit-grid", 0, seconds=20.0, budget=30.0, mem_mb=cap_mb)
    assert run["status"] == "oom", run["stderr"]
    assert run["failed"] >= 1
