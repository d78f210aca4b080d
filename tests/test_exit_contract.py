"""The 0/1/2 exit contract under malformed input, and the exit-1 layout.

Every command that reads a family, code or scheme file must return 0, 1
or 2 through `cli.main`, whatever the file holds: exit 2 writes exactly
one `error:` line to stderr, and no exception escapes. The inputs are
valid files with one seeded mutation each: a key deleted, a list item
dropped or duplicated, or a value replaced by one of the wrong kind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from pathlib import Path

from msrlab import cli
from msrlab.cli import main
from msrlab.matrix import Matrix
from msrlab.repair import GeneralRepairScheme, random_constant_instance

REPLACEMENTS = (None, True, False, 1.5, float("nan"), "x", 2**70, 10**400, [], {})
MUTATIONS = 400


def _paths(node, prefix=()):
    """Every dict key and list index path into a loaded JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def mutate(payload, rng: random.Random):
    """A deep copy of payload with one seeded mutation, and its description.
    The depth is drawn first, so the few top-level fields are hit about as
    often as the many matrix entries."""
    payload = json.loads(json.dumps(payload))
    by_depth = {}
    for path in _paths(payload):
        by_depth.setdefault(len(path), []).append(path)
    *where, last = rng.choice(by_depth[rng.choice(sorted(by_depth))])
    parent = payload
    for key in where:
        parent = parent[key]
    if isinstance(parent, dict):
        kind = rng.choice(("delete", "replace"))
    else:
        kind = rng.choice(("drop", "duplicate", "replace"))
    if kind in ("delete", "drop"):
        del parent[last]
        return payload, (kind, *where, last)
    if kind == "duplicate":
        parent.insert(last, json.loads(json.dumps(parent[last])))
        return payload, (kind, *where, last)
    value = rng.choice(REPLACEMENTS)
    parent[last] = value
    return payload, (kind, *where, last, repr(value)[:20])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


def test_mutated_inputs_keep_the_exit_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["construct", "--r", "2", "--m", "3", "--p", "3", "--out", "family.json"])[0] == 0
    code, constant = random_constant_instance(5, 3, 4, random.Random(0))
    general = GeneralRepairScheme((constant.matrices,) * code.r)
    originals = {
        "family.json": json.loads(Path("family.json").read_text()),
        "code.json": code.to_json_dict(),
        "constant.json": constant.to_json_dict(),
        "general.json": general.to_json_dict(),
    }
    commands = {
        "family.json": [
            ["verify", "--in", "family.json"],
            ["bound", "--in", "family.json"],
            ["decay", "--in", "family.json", "--order", "random:1"],
        ],
        "code.json": [
            ["repair-check", "--code", "code.json", "--scheme", "constant.json"],
            ["repair-check", "--code", "code.json", "--scheme", "general.json"],
            ["extract", "--code", "code.json", "--scheme", "constant.json"],
        ],
        "constant.json": [
            ["repair-check", "--code", "code.json", "--scheme", "constant.json"],
            ["extract", "--code", "code.json", "--scheme", "constant.json"],
        ],
        "general.json": [
            ["repair-check", "--code", "code.json", "--scheme", "general.json"],
            ["extract", "--code", "code.json", "--scheme", "general.json"],
        ],
    }
    for name, payload in originals.items():
        Path(name).write_text(json.dumps(payload))
    # the unmutated files pass every command, except extract, which refuses a general scheme
    for argv in (argv for group in commands.values() for argv in group):
        assert run(argv)[0] == (2 if argv[-1] == "general.json" and argv[0] == "extract" else 0)

    rng = random.Random(2024)
    names = list(originals)
    seen = set()
    for trial in range(MUTATIONS):
        name = names[trial % len(names)]
        payload, mutation = mutate(originals[name], rng)
        Path(name).write_text(json.dumps(payload))
        for argv in commands[name]:
            try:
                status, err = run(argv)
            except BaseException as exc:  # any escape breaks the contract
                raise AssertionError(f"{argv} on {mutation} raised {exc!r}") from exc
            assert status in (0, 1, 2), (argv, mutation, status)
            seen.add(status)
            if status == 2:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, mutation, err)
        Path(name).write_text(json.dumps(originals[name]))
    assert seen == {0, 1, 2}  # some mutations pass, some fail a check, most are refused


def test_evenodd_failure_report_puts_the_kind_first_and_the_replay_last(monkeypatch, capsys):
    real = cli.evenodd_repair

    def wrong(blocks, node):
        result = real(blocks, node)
        return dataclasses.replace(result, block=Matrix(result.block.spec, [[1], [1]]))

    monkeypatch.setattr(cli, "evenodd_repair", wrong)
    assert main(["evenodd", "--repair", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "failure", "data", "node", "recovered", "expected", "bandwidth", "replay",
    ]
    assert report["failure"] == "evenodd-repair"
    assert report["data"] == [[0, 0], [0, 0]]
    assert report["node"] == 1
    assert report["replay"] == "msrlab evenodd --repair 1"
