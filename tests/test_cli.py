"""Command-line behavior: outputs, exit codes, determinism."""

import itertools
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spindex import build_root_system, cli, model_to_json_obj, orbit_model
from spindex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_qr_match(capsys):
    code, out, _ = run(capsys, "verify-qr", "--model", "su3-flag-bundle",
                       "--a", "1", "--b", "3", "--provider", "constant:1")
    assert code == 0
    assert "verdict: match" in out
    assert "2" in out  # the trivial representation shows multiplicity 2


def test_verify_qr_mismatch_exit_code(capsys):
    code, out, _ = run(capsys, "verify-qr", "--model", "su3-flag-bundle",
                       "--a", "1", "--b", "3", "--provider", "constant:2")
    assert code == 3
    assert "verdict: mismatch" in out


def test_verify_qr_computation_error_exit_code(capsys):
    code, _, err = run(capsys, "verify-qr", "--model", "su3-flag-bundle",
                       "--a", "1", "--b", "3", "--convention", "literal")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "orbits", "--group", "A2")  # missing --face/--max
    assert code == 1
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_orbits_table(capsys):
    code, out, _ = run(capsys, "orbits", "--group", "A2", "--face", "w1", "--max", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("mu", "-"))]
    assert lines[0].split() == ["1/2,0", "0", "-", "-"]
    assert lines[1].split() == ["3/2,0", "pi(1,1)", "0,0", "1"]
    assert lines[2].split() == ["5/2,0", "pi(2,1)", "1,0", "3"]


def test_decompose_orbit(capsys):
    code, out, _ = run(capsys, "decompose", "--model", "orbit",
                       "--group", "A2", "--mu", "1,1")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("1,1")]
    assert len(rows) == 1
    assert rows[0].split() == ["1,1", "0,0", "1", "1"]


def test_faces_listing(capsys):
    code, out, _ = run(capsys, "faces", "--group", "A2")
    assert code == 0
    assert "S={1} ~ S={2}" in out


def test_export_model_round_trip(capsys, tmp_path):
    path = tmp_path / "model.json"
    code, _, _ = run(capsys, "export-model", "--model", "su3-flag-bundle",
                     "--a", "1", "--b", "3", "--out", str(path))
    assert code == 0
    code, out_file, _ = run(capsys, "index", "--model", str(path), "--format", "json")
    assert code == 0
    code, out_builder, _ = run(capsys, "index", "--model", "su3-flag-bundle",
                               "--a", "1", "--b", "3", "--format", "json")
    assert code == 0
    assert out_file == out_builder  # bit-for-bit


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("faces_G2.txt", ["faces", "--group", "G2"]),
    ("faces_B2.json", ["faces", "--group", "B2", "--format", "json"]),
    ("orbits_B2_w1.txt", ["orbits", "--group", "B2", "--face", "w1", "--max", "3"]),
    ("decompose_su3_7_19.txt", ["decompose", "--model", "su3-flag-bundle", "--a", "7", "--b", "19"]),
    ("decompose_su3_7_19.json", ["decompose", "--model", "su3-flag-bundle", "--a", "7", "--b", "19",
                                 "--format", "json"]),
    ("verify_qr_orbit_A2_2_1.txt", ["verify-qr", "--model", "orbit", "--group", "A2", "--mu", "2,1"]),
])
def test_output_matches_golden_file(capsys, name, argv):
    # the files print root data, rho_sigma and dimensions; a float or a Fraction
    # repr reaching the output changes their bytes
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert not re.search(r"\d\.\d|Fraction", out)
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_orbit_model_export_round_trip(capsys, tmp_path):
    path = tmp_path / "model.json"
    builder = ("--model", "orbit", "--group", "B2", "--mu", "5/2,0")
    code, _, _ = run(capsys, "export-model", *builder, "--out", str(path))
    assert code == 0
    code, out_file, _ = run(capsys, "index", "--model", str(path), "--format", "json")
    assert code == 0
    code, out_builder, _ = run(capsys, "index", *builder, "--format", "json")
    assert code == 0
    assert out_file == out_builder  # bit-for-bit


def test_json_output_byte_stable(capsys):
    args = ("verify-qr", "--model", "su3-flag-bundle", "--a", "2", "--b", "5",
            "--provider", "constant:1", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["verdict"] == "match"
    assert obj["provider"] == "constant:1"


def test_index_cross_check_and_moment_report(capsys):
    args = ("index", "--model", "su3-flag-bundle", "--a", "1", "--b", "3",
            "--cross-check", "--trials", "20", "--seed", "11", "--moment-report")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "cross-check: pass" in out
    assert "in kirwan" in out
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out)["cross_check"] == "pass"


def test_index_cross_check_failure_exits_2(capsys, monkeypatch):
    import spindex.cli as cli
    from spindex import VirtualCharacter

    exact = cli.localized_index
    monkeypatch.setattr(cli, "localized_index", lambda model:
                        exact(model) + VirtualCharacter.monomial((0, 0)))
    code, out, err = run(capsys, "index", "--model", "su3-flag-bundle",
                         "--a", "1", "--b", "3", "--cross-check")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cross-check failed")


def test_index_of_a_sum_that_is_not_a_finite_character_exits_2(capsys, tmp_path):
    model = tmp_path / "half.json"
    model.write_text(json.dumps({
        "group": "A1", "generic_stabilizer": [[]], "kirwan": [],
        "fixed_points": [{"label": "p", "det_weight": ["2"], "tangent_weights": [["2"]]}],
    }))
    code, out, err = run(capsys, "index", "--model", str(model))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "do not sum to a finite character" in err


@pytest.mark.parametrize("command", ["index", "decompose", "verify-qr"])
def test_a_sum_with_no_term_in_its_support_exits_2(capsys, tmp_path, command):
    # 1/(1 - t^-8) is not finite, and both of its terms in the window, t^0 and
    # t^-8, lie below the support bound of a finite sum, so every command stops
    # in the engine with that cause, before decompose checks Weyl invariance
    model = tmp_path / "a1-not-finite.json"
    model.write_text(json.dumps({
        "name": "a1-not-finite", "group": "A1", "generic_stabilizer": [[]], "kirwan": [],
        "fixed_points": [{"label": "p", "det_weight": ["8"], "tangent_weights": [["8"]]}],
    }))
    code, out, err = run(capsys, command, "--model", str(model))
    assert (code, out) == (2, "")
    assert err == ("error: the fixed points of model 'a1-not-finite' do not sum to a finite "
                   "character: 2 terms below its support bound do not cancel\n")


def test_index_checks_one_trial_without_cross_check(capsys, monkeypatch):
    # the support bound is necessary, not proven sufficient, so index runs one
    # trial even without --cross-check: a character one monomial off fails it
    from spindex import VirtualCharacter

    exact_index = cli.localized_index
    with monkeypatch.context() as patch:
        patch.setattr(cli, "localized_index",
                      lambda model: exact_index(model) + VirtualCharacter.monomial((0, 0)))
        code, out, err = run(capsys, "index", "--model", "su3-flag-bundle", "--a", "1", "--b", "3")
    assert (code, out) == (2, "")
    assert err == ("error: cross-check failed: su3-flag-bundle(a=1,b=3) differs from its "
                   "fixed-point sum\n")
    calls = []
    exact = cli.exact_cross_check
    monkeypatch.setattr(cli, "exact_cross_check",
                        lambda *args: calls.append(args[2:]) or exact(*args))
    code, out, err = run(capsys, "index", "--model", "su3-flag-bundle", "--a", "1", "--b", "3")
    assert (code, err, calls) == (0, "", [(1, 0)])
    assert "cross-check" not in out


def test_an_expansion_past_its_bound_exits_2(capsys, tmp_path):
    # h and the next two points of the moment curve are each orthogonal to one
    # of these tangent weights; along k = 3, (5, 11), one series would pass
    # its 2^24-term bound
    tangents = [["1", "-1"], ["2", "-3"], ["3", "-2"], ["1", "-2"], ["2", "-1"],
                ["16", "-15"], ["66", "-65"], ["16391", "-16383"], ["4705", "-4753"]]
    model = tmp_path / "nine.json"
    model.write_text(json.dumps({
        "group": "A2", "generic_stabilizer": [[]], "kirwan": [],
        "fixed_points": [{"label": "p", "det_weight": ["1", "1"], "tangent_weights": tangents}],
    }))
    code, out, err = run(capsys, "index", "--model", str(model))
    assert code == 2
    assert out == ""
    assert err == f"error: a series of the expansion passes its fixed bound of {2 ** 24} terms\n"


@pytest.mark.parametrize("exc,text", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 8 GiB"), "error: out of memory (Unable to allocate 8 GiB)\n"),
])
def test_running_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, exc, text):
    def exhausted(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "faces", exhausted)
    code, out, err = run(capsys, "faces", "--group", "A2")
    assert (code, out, err) == (2, "", text)


@pytest.mark.parametrize("kirwan,text", [
    (None, "admissibility test requires a dominant weight, got (-1,2)"),
    ({"face": [], "points": [["-1", "2"]]}, "Kirwan point (-1,2) is not in the dominant chamber"),
    ({"face": [1], "points": [["1", "2"]]}, "Kirwan point (1,2) is not in the closure of S={1}"),
])
def test_weights_in_error_messages_print_as_coordinates(capsys, tmp_path, kirwan, text):
    if kirwan is None:
        argv = ("index", "--model", "orbit", "--group", "A2", "--mu=-1,2")
    else:
        model = tmp_path / "kirwan.json"
        model.write_text(json.dumps({
            "group": "A2", "generic_stabilizer": [[]], "kirwan": [kirwan],
            "fixed_points": [{"label": "p", "det_weight": ["1", "1"],
                              "tangent_weights": [["2", "-1"], ["-1", "2"]]}],
        }))
        argv = ("index", "--model", str(model))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {text}\n")


def test_table_provider_from_file(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({
        "entries": [
            {"mu": ["3/2", "0"], "value": 1},
        ]
    }))
    code, out, _ = run(capsys, "verify-qr", "--model", "orbit", "--group", "A2",
                       "--mu", "3/2,0", "--provider", f"table:{table}")
    assert code == 0
    assert "verdict: match" in out


def test_table_key_of_the_wrong_rank_is_a_warning(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"entries": [
        {"mu": mu, "value": 1}
        for mu in (["0", "1/2"], ["0", "3/2"], ["1/2", "0"], ["3/2", "0"], ["1"])]}))
    code, out, _ = run(capsys, "verify-qr", "--model", "su3-flag-bundle", "--a", "1",
                       "--b", "3", "--provider", f"table:{table}")
    assert code == 0
    assert "warning: NonAdmissibleKey: table entry at (1) is not an admissible orbit" in out
    assert "verdict: match" in out


def test_moment_report_on_a_36_point_kirwan_piece(capsys, tmp_path):
    # 36 points in rank 3 have C(36,1) + ... + C(36,4) = 66,711 subsets of at most
    # rank + 1 points, so membership must not enumerate them; the centre of the
    # cube lies inside the hull of the other points
    obj = model_to_json_obj(orbit_model(build_root_system("A3"), (1, 1, 1)))
    cube = [p for p in itertools.product(range(3), repeat=3) if p != (1, 1, 1)]
    far = [(3, k, k % 3) for k in range(10)]
    obj["kirwan"] = [{"face": [], "segments": [],
                      "points": [[str(c) for c in p] for p in cube + far]}]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "index", "--model", str(model), "--moment-report")
    assert code == 0
    rows = out.split("in kirwan", 1)[1].splitlines()[2:]
    assert len(rows) == 24 and all(row.split()[-1] == "yes" for row in rows), out


def test_from_multiplicities_provider(capsys):
    code, out, _ = run(capsys, "verify-qr", "--model", "orbit", "--group", "A1",
                       "--mu", "2", "--provider", "from-multiplicities")
    assert code == 0
    assert "verdict: match" in out


def test_orbits_json_deterministic(capsys):
    code, out, _ = run(capsys, "orbits", "--group", "A2", "--face", "w1",
                       "--max", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["orbits"][0] == {"mu": ["1/2", "0"], "index": None, "highest_weight": None}
    assert obj["orbits"][1]["index"] == ["1", "1"]


def test_explicit_cartan_matrix_group(capsys):
    code, out, _ = run(capsys, "faces", "--group", "[[2,-1],[-1,2]]")
    assert code == 0
    assert "S={1,2}" in out


@pytest.mark.parametrize("argv", [
    ("index", "--model", "{no_fixed_points}"),
    ("index", "--model", "{not_json}"),
    ("decompose", "--model", "orbit", "--group", "A2", "--mu", "1,x"),
    ("orbits", "--group", "A2", "--face", "w1", "--max", "abc"),
    ("orbits", "--group", "A2", "--face", "w1", "--max", "1/0"),
    ("orbits", "--group", "A2", "--face", "wx", "--max", "3"),
    ("faces", "--group", "[[2,-1],[-1,2]"),
    ("faces", "--group", "[1,2]"),
    ("verify-qr", "--model", "su3-flag-bundle", "--a", "1", "--b", "3",
     "--provider", "constant:x"),
    ("verify-qr", "--model", "su3-flag-bundle", "--a", "1", "--b", "3",
     "--provider", "table:{no_fixed_points}"),
    ("index", "--model", "{mistyped}"),
    ("index", "--model", "su3-flag-bundle", "--a", "1", "--b", "3",
     "--cross-check", "--trials", "0"),
    ("index", "--model", "su3-flag-bundle", "--a", "1", "--b", "3", "--cutoff", "0"),
    ("index", "--model", "su3-flag-bundle", "--a", "-1", "--b", "3"),
    ("index", "--model", "su3-flag-bundle", "--a", "1", "--b", "-1"),
    ("orbits", "--group", "A2", "--face", "s:7", "--max", "3"),
    ("orbits", "--group", "A2", "--face", "w1", "--max", "-1"),
    ("index", "--model", "{info_list}"),
    ("index", "--model", "{info_text}"),
    ("verify-qr", "--model", "{info_list}"),
    ("export-model", "--model", "{info_text}"),
])
def test_malformed_input_is_a_one_line_usage_error(capsys, tmp_path, argv):
    no_fixed_points = tmp_path / "no_fixed_points.json"
    no_fixed_points.write_text(json.dumps({"group": "A1", "generic_stabilizer": [[]],
                                           "kirwan": []}))
    mistyped = tmp_path / "mistyped.json"
    mistyped.write_text(json.dumps({"group": "A1", "fixed_points": 5,
                                    "generic_stabilizer": [[]], "kirwan": []}))
    not_json = tmp_path / "not_json.json"
    not_json.write_text("fixed_points: none\n")
    files = {"no_fixed_points": no_fixed_points, "mistyped": mistyped, "not_json": not_json}
    sphere = model_to_json_obj(orbit_model(build_root_system("A1"), (1,)))
    for name, info in (("info_list", [["a", "b"]]), ("info_text", "x")):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(dict(sphere, info=info)))
    argv = [a.format(**files) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(("usage error: ", "error: ")) and err.count("\n") == 1, err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["verify-qr", "--help"]) == 0


def test_exceptional_groups(capsys):
    code, out, _ = run(capsys, "faces", "--group", "E6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["faces"]) == 64 and len(obj["stabilizer_classes"]) == 17
    code, out, err = run(capsys, "faces", "--group", "E7")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_face_listing_past_the_bound_exits_2_before_listing(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "faces", "--group", "A30")
    assert time.monotonic() - start < 1
    assert (code, out, err) == (
        2, "", "error: A30 has 2^30 chamber faces, more than the 65536 to list\n")


@pytest.mark.parametrize("argv", [
    ("orbits", "--group", "A5", "--face", "open", "--max", "60"),  # 60^5 orbits
    ("orbits", "--group", "A1", "--face", "open", "--max", "100000000"),
])
def test_an_orbit_region_past_the_bound_exits_2(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# flag -> (well-formed values, junk values); None for a switch
_FUZZ_VALUES = {
    "--group": (["A1", "A2", "[[2,-1],[-1,2]]"], ["A1xA1", "[[2]]", "Z9", "[1", "", "E"]),
    "--format": (["table", "json"], ["xml"]),
    "--face": (["w1", "w2", "open", "origin", "s:1", "s:1,2", "s:"], ["w3", "s:7", "wx", ""]),
    "--max": (["0", "2", "3/2"], ["-1", "abc", "1/0"]),
    "--model": (["orbit", "su3-flag-bundle", "{model}"], ["missing.json", "{junk}", "x"]),
    "--mu": (["1", "2", "1,1", "3/2,0", "1/2,0"], ["1,0", "0,0", "1,x", "", "1,1,1"]),
    "--a": (["0", "1", "2"], ["-1", "x"]),
    "--b": (["0", "1", "3"], ["-1", "x"]),
    "--convention": (["calibrated"], ["literal", "other"]),
    "--trials": (["1", "3"], ["0", "x"]),
    "--seed": (["0", "7"], ["x"]),
    "--provider": (["constant:1", "table:{table}", "from-multiplicities"],
                   ["constant:x", "table:{junk}", "table:missing.json", "bogus"]),
    "--out": (["{out}"], []),
    "--cross-check": None,
    "--moment-report": None,
    "--help": None,
    "--bogus": None,
}
_MODEL_FLAGS = ["--model", "--group", "--mu", "--a", "--b", "--convention"]
_FUZZ_COMMANDS = {
    "faces": ["--group", "--format"],
    "orbits": ["--group", "--face", "--max", "--format"],
    "index": _MODEL_FLAGS + ["--cross-check", "--trials", "--seed", "--moment-report",
                             "--format"],
    "decompose": _MODEL_FLAGS + ["--format"],
    "verify-qr": _MODEL_FLAGS + ["--provider", "--format"],
    "export-model": _MODEL_FLAGS + ["--out"],
    "nope": [],
}


def _mostly(value: bool):
    return st.sampled_from((value,) * 4 + (not value,))


@st.composite
def _argv(draw):
    """A subcommand with most of its flags, mostly well-formed values and some junk."""
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    flags = [f for f in _FUZZ_COMMANDS[command] if draw(_mostly(True))]
    if draw(_mostly(False)):
        flags.append(draw(st.sampled_from(sorted(_FUZZ_VALUES))))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if _FUZZ_VALUES[flag] is not None:
            good, junk = _FUZZ_VALUES[flag]
            pool = junk if junk and draw(_mostly(False)) else good
            argv.append(draw(st.sampled_from(pool)))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_cli_fuzz_returns_an_exit_code(capsys, tmp_path, argv):
    files = {"model": tmp_path / "model.json", "junk": tmp_path / "junk.json",
             "table": tmp_path / "table.json", "out": tmp_path / "out.json"}
    files["model"].write_text(json.dumps({
        "group": "A1", "generic_stabilizer": [[]], "kirwan": [{"face": [], "points": [["1"]]}],
        "fixed_points": [{"label": "p", "det_weight": ["2"], "tangent_weights": [["2"]]},
                         {"label": "q", "det_weight": ["-2"], "tangent_weights": [["-2"]]}]}))
    files["junk"].write_text("[1, 2")
    files["table"].write_text(json.dumps({"entries": [{"mu": ["1"], "value": 1}]}))
    assert main([a.format(**files) for a in argv]) in (0, 1, 2, 3)
    capsys.readouterr()


def _b2_model_file(tmp_path, edit):
    obj = model_to_json_obj(orbit_model(build_root_system("B2"), (1, 1)))
    edit(obj["fixed_points"][0])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    return path


def test_a_zero_denominator_in_a_model_file_is_one_usage_error(capsys, tmp_path):
    path = _b2_model_file(tmp_path, lambda fp: fp["det_weight"].__setitem__(0, "1/0"))
    code, out, err = run(capsys, "index", "--model", str(path))
    assert (code, out) == (1, "")
    assert err == (f"usage error: malformed model file {path}: ValueError(\"coordinate 1 of "
                   f"the weight ['1/0', '2'] has a zero denominator: '1/0'\")\n")


def test_a_zero_denominator_in_a_table_provider_is_one_usage_error(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"entries": [{"mu": ["1/0", "1"], "value": 1}]}))
    code, out, err = run(capsys, "verify-qr", "--model", "su3-flag-bundle", "--a", "1",
                         "--b", "3", "--provider", f"table:{table}")
    assert (code, out) == (1, "")
    assert err == (f"usage error: cannot parse provider 'table:{table}': coordinate 1 of "
                   f"the weight ['1/0', '1'] has a zero denominator: '1/0'\n")


@pytest.mark.parametrize("builder, edit, reason", [
    (("orbit", "--group", "B2", "--mu", "1,1"),
     lambda obj: obj["fixed_points"][0]["det_weight"].__setitem__(0, float("inf")),
     "coordinate 1 of the weight [inf, '2'] is not a rational: inf"),
    (("orbit", "--group", "B2", "--mu", "1,1"),
     lambda obj: obj["kirwan"][0]["points"][0].__setitem__(1, float("nan")),
     "coordinate 2 of the weight ['1', nan] is not a rational: nan"),
    (("su3-flag-bundle", "--a", "1", "--b", "3"),
     lambda obj: obj["kirwan"][0].__setitem__("segments", [["0", "1/0"]]),
     "coordinate 2 of the weight ['0', '1/0'] has a zero denominator: '1/0'"),
    (("su3-flag-bundle", "--a", "1", "--b", "3"),
     lambda obj: obj["fixed_points"][0].__setitem__("det_weight", "04"),
     "a weight must be a list of rationals, got '04'"),
], ids=["det-weight-infinity", "kirwan-point-nan", "segment-zero-denominator", "weight-string"])
def test_a_weight_that_is_not_rationals_in_a_model_file_is_one_usage_error(
        capsys, tmp_path, builder, edit, reason):
    path = tmp_path / "model.json"
    assert run(capsys, "export-model", "--model", *builder, "--out", str(path))[0] == 0
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))  # Infinity and NaN, as json.load accepts them
    code, out, err = run(capsys, "index", "--model", str(path))
    assert (code, out) == (1, "")
    assert err == f"usage error: malformed model file {path}: ValueError({reason!r})\n"


@pytest.mark.parametrize("table, reason", [
    ([], "a table must be a JSON object with an 'entries' list"),
    ({"entries": 5}, "a table must be a JSON object with an 'entries' list"),
    ({"entries": [5]}, "a table entry must be a JSON object, got 5"),
    ({"entries": [{"mu": 3, "value": 1}]}, "a weight must be a list of rationals, got 3"),
    ({"entries": [{"mu": ["1/2", "0"], "value": None}]},
     "table entry {'mu': ['1/2', '0'], 'value': None} needs an integer 'value' and a string "
     "or no 'chamber'"),
    ({"entries": [{"mu": ["1/2", "0"], "value": 1, "chamber": []}]},
     "table entry {'mu': ['1/2', '0'], 'value': 1, 'chamber': []} needs an integer 'value' "
     "and a string or no 'chamber'"),
    ({"entries": [{"mu": [float("inf"), "1"], "value": 1}]},
     "coordinate 1 of the weight [inf, '1'] is not a rational: inf"),
], ids=["list", "entries-int", "entry-int", "mu-int", "value-null", "chamber-list", "mu-infinity"])
def test_a_malformed_table_provider_is_one_usage_error(capsys, tmp_path, table, reason):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, "verify-qr", "--model", "su3-flag-bundle", "--a", "1",
                         "--b", "3", "--provider", f"table:{path}")
    assert (code, out) == (1, "")
    assert err == f"usage error: cannot parse provider 'table:{path}': {reason}\n"


@pytest.mark.parametrize("extra", [1, -1])
def test_weights_of_two_lengths_at_one_fixed_point_exit_2(capsys, tmp_path, extra):
    # a tangent weight of 3 coordinates beside a determinant weight of 2, or of 1
    def edit(fp):
        tangent = fp["tangent_weights"][0]
        fp["tangent_weights"][0] = tangent + ["0"] if extra > 0 else tangent[:1]
    path = _b2_model_file(tmp_path, edit)
    tangent = json.loads(path.read_text())["fixed_points"][0]["tangent_weights"][0]
    code, out, err = run(capsys, "index", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: fixed point 'w(1,1)': tangent weight ({','.join(tangent)}) has "
                   f"{2 + extra} coordinates but the determinant weight has 2\n")
