"""Seeded fuzz over mutated model and table files read by the CLI.

Each case replaces one to three nodes of a valid file, leaves included, with a
value from a fixed list, or deletes them, and runs the commands that read the
file through ``spindex.cli.main`` in process.  Every run must end in a
documented exit code; an exception escaping ``main`` is a traceback at the
shell.
"""

import json
import random

import pytest

from spindex import build_root_system, model_to_json_obj, orbit_model, su3_flag_bundle
from spindex.cli import main

_DELETE = object()
_VALUES = (float("inf"), None, "1/0", [], {}, 5, "x", 2, _DELETE)
_CASES = 100
_SU3 = ("--model", "su3-flag-bundle", "--a", "1", "--b", "3")


def _nodes(node, path=()):
    """Paths to every node below the root, containers before their children."""
    if path:
        yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


def _mutate(obj, rng):
    for _ in range(rng.randint(1, 3)):
        nodes = list(_nodes(obj))
        if not nodes:  # every key deleted
            break
        *parent, key = rng.choice(nodes)
        target = obj
        for k in parent:
            target = target[k]
        value = rng.choice(_VALUES)
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value
    return obj


def _table():
    # the four admissible orbits su3(1, 3) meets, each with reduced index 1
    return {"entries": [{"mu": mu, "value": 1, "chamber": chamber}
                        for mu, chamber in ((["0", "1/2"], "a"), (["0", "3/2"], "a"),
                                            (["1/2", "0"], "b"), (["3/2", "0"], "b"))]}


def _model_commands(path):
    return [(command, "--model", path) for command in ("index", "decompose", "verify-qr")]


def _table_commands(path):
    return [("verify-qr", *_SU3, "--provider", f"table:{path}")]


_SOURCES = {
    "su3-model": (lambda: model_to_json_obj(su3_flag_bundle(1, 3)), _model_commands),
    "b2-model": (lambda: model_to_json_obj(orbit_model(build_root_system("B2"), (1, 1))),
                 _model_commands),
    "a2-table": (_table, _table_commands),
}


@pytest.mark.parametrize("source", sorted(_SOURCES))
def test_mutated_files_end_in_an_exit_code(capsys, tmp_path, source):
    build, commands = _SOURCES[source]
    valid = json.dumps(build())
    path = tmp_path / "file.json"
    for argv in commands(str(path)):  # the valid file passes
        path.write_text(valid)
        assert main(list(argv)) == 0, argv
    rng = random.Random(f"{source}-fuzz")
    codes = set()
    for _ in range(_CASES):
        text = json.dumps(_mutate(json.loads(valid), rng))
        path.write_text(text)
        for argv in commands(str(path)):
            try:
                code = main(list(argv))
            except Exception as exc:  # any escape is a traceback at the shell
                pytest.fail(f"{argv[0]} on {text} raised {exc!r}")
            assert code in (0, 1, 2, 3), (argv[0], text, code)
            codes.add(code)
        capsys.readouterr()
    assert {1, 2} <= codes  # mutations reach both the file readers and the computation
