"""Command-line interface: exit codes, file round trips, determinism."""

from __future__ import annotations

import json
import random
import time

import pytest

from msrlab import cli
from msrlab.cli import _ell_within, main
from msrlab.errors import CeilingExceeded, LemmaViolation
from msrlab.matrix import Matrix
from msrlab.msr_family import MsrSubspaceFamily
from msrlab.repair import ConstantRepairScheme, evenodd_constant_instance, random_constant_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def family_file(tmp_path, capsys):
    path = tmp_path / "family.json"
    code = main(["construct", "--r", "2", "--m", "2", "--p", "3", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


@pytest.fixture
def instance_files(tmp_path):
    code, scheme = evenodd_constant_instance()
    code_path = tmp_path / "code.json"
    scheme_path = tmp_path / "scheme.json"
    code_path.write_text(json.dumps(code.to_json_dict()))
    scheme_path.write_text(json.dumps(scheme.to_json_dict()))
    return code_path, scheme_path


# ---------------------------------------------------------------- usage

def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, *[])
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--in", "/does/not/exist.json")
    assert code == 2
    assert "error" in err


def test_malformed_json_is_usage_error(tmp_path, instance_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2
    # nested past the recursion limit, so json.load raises RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code_path, scheme_path = instance_files
    for argv in (
        ["verify", "--in", deep],
        ["repair-check", "--code", deep, "--scheme", scheme_path],
        ["repair-check", "--code", code_path, "--scheme", deep],
    ):
        code, out, err = run(capsys, *map(str, argv))
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in out + err


def test_deeply_nested_value_gives_a_short_error(family_file, instance_files, capsys):
    # 900 levels load, but the whole value would print about 1,800 characters
    deep = "[" * 900 + "0" + "]" * 900
    payload = json.loads(family_file.read_text())
    payload["maps"][0][0]["data"][0][0] = "DEEP"
    entry = family_file.parent / "deep_entry.json"
    entry.write_text(json.dumps(payload).replace('"DEEP"', deep))
    payload["p"] = "DEEP"
    field = family_file.parent / "deep_p.json"
    field.write_text(json.dumps(payload).replace('"DEEP"', deep))
    code_path, scheme_path = instance_files
    scheme = json.loads(scheme_path.read_text())
    scheme["kind"] = "DEEP"
    kind = family_file.parent / "deep_kind.json"
    kind.write_text(json.dumps(scheme).replace('"DEEP"', deep))
    for argv in (["verify", "--in", entry], ["verify", "--in", field],
                 ["repair-check", "--code", code_path, "--scheme", kind]):
        code, out, err = run(capsys, *map(str, argv))
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert len(err.rstrip("\n")) < 200
        assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["verify", "bound", "decay"])
@pytest.mark.parametrize("entry", [1.5, "1", True])
def test_malformed_map_entry_is_input_error(family_file, command, entry, capsys):
    payload = json.loads(family_file.read_text())
    payload["maps"][0][0]["data"][0][0] = entry
    family_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, command, "--in", str(family_file))
    assert code == 2
    assert err.startswith("error:") and "integers" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("basis", [[[1.0, 0, 0, 0]], [[1, 0, 0, "x"]], [1, 0, 0, 0], None, 0])
def test_malformed_subspace_basis_is_input_error(family_file, basis, capsys):
    payload = json.loads(family_file.read_text())
    payload["subspaces"][0]["basis"] = basis
    family_file.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", "--in", str(family_file))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["verify", "bound", "decay"])
@pytest.mark.parametrize(
    "field, value",
    [("p", None), ("subspaces", 5), ("maps", None), ("r", [1]), ("ell", "4"), ("ell", True)],
)
def test_malformed_family_field_is_input_error(family_file, command, field, value, capsys):
    payload = json.loads(family_file.read_text())
    payload[field] = value
    family_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, command, "--in", str(family_file))
    assert code == 2
    assert err.startswith(f"error: {field} must be")
    assert "Traceback" not in out + err


def _json_paths(node, prefix=()):
    """Every key or first-index path into a loaded JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node:
        items = [(0, node[0])]
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def test_every_malformed_family_field_maps_to_an_exit_code(tmp_path, capsys):
    path = tmp_path / "family.json"
    assert main(["construct", "--r", "2", "--m", "1", "--p", "3", "--out", str(path)]) == 0
    base = json.loads(path.read_text())
    for where in _json_paths(base):
        for value in (None, -1, "x", [1], [[]], {}, True, 1.5):
            payload = json.loads(json.dumps(base))
            node = payload
            for key in where[:-1]:
                node = node[key]
            node[where[-1]] = value
            path.write_text(json.dumps(payload))
            for command in ("verify", "bound"):
                code = main([command, "--in", str(path)])
                assert code in (0, 1, 2), (where, value, command)
    capsys.readouterr()


def test_malformed_code_and_scheme_fields_are_input_errors(instance_files, capsys):
    code_path, scheme_path = instance_files
    for path, field, value in [
        (code_path, "n", None),
        (code_path, "parity", 3),
        (scheme_path, "p", [3]),
        (scheme_path, "repair", None),
    ]:
        original = path.read_text()
        payload = json.loads(original)
        payload[field] = value
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "repair-check", "--code", str(code_path), "--scheme", str(scheme_path))
        path.write_text(original)
        assert code == 2, (field, value)
        assert err.startswith(f"error: {field} must be")
        assert "Traceback" not in out + err


def scheme_payload(kind, p, grid):
    """A scheme file whose repair matrices are given as lists of rows."""
    def as_matrix(rows):
        return {"rows": len(rows), "cols": len(rows[0]), "p": p, "data": rows}

    if kind == "constant":
        return {"kind": kind, "p": p, "repair": [as_matrix(rows) for rows in grid]}
    return {"kind": kind, "p": p, "repair": [[as_matrix(rows) for rows in row] for row in grid]}


EYE3 = {"rows": 3, "cols": 3, "p": 2, "data": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
BOTH = ("repair-check", "extract")


@pytest.mark.parametrize("edit_code, scheme, commands, message", [
    (lambda code: code.update(n=4, parity=code["parity"] + code["parity"][:1]), None, BOTH,
     "r = 3 does not divide ell = 2"),
    (None, scheme_payload("general", 2, [[[[1, 0]]]]), ("repair-check",),
     "repair grid is 1x1, expected 2x1"),
    (None, scheme_payload("constant", 3, [[[1, 0]]]), BOTH,
     "repair matrix for node 0 over GF(3)"),
    (None, scheme_payload("constant", 2, [[[1, 0, 0]]]), BOTH,
     "repair matrix for node 0 has shape (1, 3), expected (1, 2)"),
    (None, scheme_payload("constant", 2, []), BOTH, "scheme with no repair matrices"),
    (None, scheme_payload("general", 2, []), BOTH, "scheme with no repair matrices"),
    (None, scheme_payload("general", 2, [[[[1, 0]], [[0, 1]]], [[[1, 0]]]]), BOTH,
     "ragged repair matrix grid"),
    (lambda code: code.update(ell=0), None, BOTH, "need ell >= 1, got 0"),
    (lambda code: code.update(parity=[row * 2 for row in code["parity"]]), None, BOTH,
     "parity row 0 has 2 blocks, expected 1"),
    (lambda code: code.update(parity=[[EYE3]] + code["parity"][1:]), None, BOTH,
     "parity block (0,0) has shape (3, 3)"),
])
def test_code_or_scheme_that_does_not_fit_is_an_input_error(
    edit_code, scheme, commands, message, instance_files, capsys
):
    # the evenodd constant instance: n = 3, k = 1, ell = 2 over GF(2)
    code_path, scheme_path = instance_files
    if edit_code is not None:
        code = json.loads(code_path.read_text())
        edit_code(code)
        code_path.write_text(json.dumps(code))
    if scheme is not None:
        scheme_path.write_text(json.dumps(scheme))
    for command in commands:
        status, out, err = run(capsys, command, "--code", str(code_path), "--scheme", str(scheme_path))
        assert (status, out, err) == (2, "", f"error: {message}\n"), command


def test_family_member_outside_the_ambient_space_is_an_input_error(family_file, capsys):
    payload = json.loads(family_file.read_text())
    payload["subspaces"][0] = {"ambient": 3, "p": 3, "basis": [[1, 0, 0]]}
    family_file.write_text(json.dumps(payload))
    for command in ("verify", "bound", "decay"):
        status, out, err = run(capsys, command, "--in", str(family_file))
        assert (status, out, err) == (2, "", "error: subspace 0 lives in F^3, not F^4\n")


def test_decay_violation_is_a_checked_failure(family_file, monkeypatch, capsys):
    def violated(family, order=None):
        raise LemmaViolation("invariant dim rose at t = 2", {"t": 2, "dims": [16, 12, 13]})

    monkeypatch.setattr(cli, "decay_trace", violated)
    status, out, err = run(capsys, "decay", "--in", str(family_file))
    assert (status, err) == (1, "")
    assert json.loads(out) == {
        "failure": "decay-violation",
        "message": "invariant dim rose at t = 2",
        "payload": {"t": 2, "dims": [16, 12, 13]},
    }


def test_sweep_list_that_is_not_integers_is_a_usage_error(capsys):
    status, out, err = run(capsys, "sweep", "--r-list", "2,x")
    assert (status, out) == (2, "")
    assert err == "error: expected comma-separated integers, got '2,x'\n"


def test_ceiling_exceeded(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "--r", "3", "--m", "5", "--p", "3",
        "--out", str(tmp_path / "f.json"),
    )
    assert code == 2
    assert "ceiling" in err


# ---------------------------------------------------------------- pipeline

def test_construct_verify_bound_round_trip(family_file, capsys):
    code, out, _ = run(capsys, "verify", "--in", str(family_file))
    assert code == 0
    assert "VERIFY PASS" in out

    code, out, _ = run(capsys, "bound", "--in", str(family_file))
    assert code == 0
    assert "within bound: True" in out

    family = MsrSubspaceFamily.from_json_dict(json.loads(family_file.read_text()))
    assert family.k == 6 and family.ell == 4


def test_decay_csv(family_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "decay", "--in", str(family_file), "--out", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,invariant_dim,bound_numerator,bound_denominator,pass"
    assert lines[1] == "0,16,16,1,True"
    assert lines[2] == "1,12,12,1,True"
    assert lines[-1] == "6,1,729,256,True"
    assert len(lines) == 8  # header + t = 0..6


def test_decay_random_order_is_deterministic(family_file, tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(capsys, "decay", "--in", str(family_file), "--order", "random:5", "--out", str(first))[0] == 0
    assert run(capsys, "decay", "--in", str(family_file), "--order", "random:5", "--out", str(second))[0] == 0
    assert first.read_text() == second.read_text()


def test_decay_bad_order(family_file, capsys):
    code, _, err = run(capsys, "decay", "--in", str(family_file), "--order", "sideways")
    assert code == 2


def test_verify_failure_reports_instance(tmp_path, capsys):
    swap = {"rows": 2, "cols": 2, "p": 3, "data": [[0, 1], [1, 0]]}
    payload = {
        "ell": 2, "r": 2, "p": 3,
        "subspaces": [
            {"ambient": 2, "p": 3, "basis": [[1, 0]]},
            {"ambient": 2, "p": 3, "basis": [[0, 1]]},
        ],
        "maps": [[swap], [swap]],
    }
    path = tmp_path / "bad_family.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    assert "VERIFY FAIL" in out
    report = json.loads(out[out.index("{") :])
    assert report["failure"] == "verify"
    assert report["family"] == payload  # offending instance serialized
    assert "replay" in report


def test_bound_failure_reports_instance(tmp_path, capsys):
    # six lines of F_7^2 with ell = 2, r = 2: 6 > 4 * 2 * ln 2 ~= 5.545
    identity = {"rows": 2, "cols": 2, "p": 7, "data": [[1, 0], [0, 1]]}
    payload = {
        "ell": 2, "r": 2, "p": 7,
        "subspaces": [{"ambient": 2, "p": 7, "basis": [[1, i]]} for i in range(6)],
        "maps": [[identity] for _ in range(6)],
    }
    path = tmp_path / "over_bound.json"
    path.write_text(json.dumps(payload))
    for extra, suffix in (((), ""), (("--ceiling", "16"), " --ceiling 16")):
        code, out, _ = run(capsys, "bound", "--in", str(path), *extra)
        assert code == 1
        head, body = out[: out.index("{")], out[out.index("{") :]
        assert head.splitlines() == [
            "k = 6, ell = 2, r = 2", "4 * r * ln(ell) ~= 5.545177", "within bound: False"]
        report = json.loads(body)
        assert list(report) == ["failure", "report", "family", "replay"]
        assert report["failure"] == "bound"
        assert list(report["report"]) == ["k", "ell", "r", "bound_approx", "within_bound"]
        assert report["report"]["k"] == 6 and report["report"]["within_bound"] is False
        assert report["family"] == payload
        assert list(report["family"]) == list(payload)
        assert report["replay"] == f"msrlab bound --in {path}{suffix}"
        assert body == json.dumps(report, indent=2) + "\n"


def test_sweep_small_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--r-list", "2", "--m-list", "1,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["r", "m", "ell", "k_construct"]
    assert lines[1].split()[:4] == ["2", "1", "2", "3"]
    assert lines[2].split()[:4] == ["2", "2", "4", "6"]
    assert all("True" in line for line in lines[1:3])


def test_sweep_failure_replay_reproduces_the_report(capsys):
    # lambda = 3 gives r = 4, m = 1 a ratio below a quarter; the replay must
    # rebuild that family, not the default lambda = 2 one
    argv = ("sweep", "--r-list", "4", "--m-list", "1", "--p", "5", "--lambda", "3", "--ceiling", "64")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    report = json.loads(out[out.index("{"):])
    assert report["row"]["ratio_ge_quarter"] == "False"
    replay = report["replay"].split()
    assert replay[0] == "msrlab"
    code, again, _ = run(capsys, *replay[1:])
    assert code == 1
    assert json.loads(again[again.index("{"):]) == report


def test_sweep_empty_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--r-list", "", "--m-list", "1,2")
    assert code == 0
    assert out.splitlines()[0].startswith("r")
    assert len(out.splitlines()) == 1


def test_sweep_csv(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--r-list", "2", "--m-list", "1", "--out", str(table))
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0].startswith("r,m,ell,k_construct,")
    assert lines[1].startswith("2,1,2,3,")


def test_sweep_respects_ceiling(capsys):
    code, _, err = run(capsys, "sweep", "--r-list", "3", "--m-list", "5")
    assert code == 2
    assert "ceiling" in err


def test_evenodd(capsys):
    code, out, _ = run(capsys, "evenodd")
    assert code == 0
    assert "64 repairs exact" in out
    code, out, _ = run(capsys, "evenodd", "--repair", "2")
    assert code == 0
    assert "16 repairs exact" in out


def test_cutset(capsys):
    code, out, _ = run(capsys, "cutset", "--n", "4", "--k", "2", "--ell", "2")
    assert code == 0
    assert "3/1" in out and "3.000000" in out
    code, _, _ = run(capsys, "cutset", "--n", "4", "--k", "4", "--ell", "2")
    assert code == 2
    # the bound is an integer, so its decimal line is exact far above 2**53
    # and above float's range (about 1.8e308)
    for digits in (23, 400):
        ell = 10**digits
        code, out, err = run(capsys, "cutset", "--n", str(ell + 1), "--k", "1", "--ell", str(ell))
        assert code == 0 and err == ""
        assert out == f"cutset bound: {ell}/1\ndecimal: {ell}.000000\n"


def test_repair_check_and_extract(instance_files, tmp_path, capsys):
    code_path, scheme_path = instance_files
    code, out, _ = run(capsys, "repair-check", "--code", str(code_path), "--scheme", str(scheme_path))
    assert code == 0
    assert "SCHEME PASS" in out

    out_path = tmp_path / "extracted.json"
    code, out, _ = run(
        capsys, "extract", "--code", str(code_path), "--scheme", str(scheme_path),
        "--out", str(out_path),
    )
    assert code == 0
    assert "VERIFY PASS" in out
    family = MsrSubspaceFamily.from_json_dict(json.loads(out_path.read_text()))
    assert family.k == 1
    assert family.verify().ok


def test_repair_check_prints_failing_interference(tmp_path, capsys):
    code, scheme = random_constant_instance(5, 3, 4, random.Random(5))
    # node 1 borrows node 0's repair matrix: its regeneration fails, and so
    # does its interference check against node 0
    broken = ConstantRepairScheme((scheme.matrices[0], scheme.matrices[0], scheme.matrices[2]))
    code_path = tmp_path / "code.json"
    scheme_path = tmp_path / "scheme.json"
    code_path.write_text(json.dumps(code.to_json_dict()))
    scheme_path.write_text(json.dumps(broken.to_json_dict()))
    status, out, _ = run(capsys, "repair-check", "--code", str(code_path), "--scheme", str(scheme_path))
    assert status == 1
    lines = out.splitlines()
    assert lines[0] == "node 0: regeneration ok, interference ok"
    assert lines[1] == "node 1: regeneration FAIL, interference FAIL"
    assert lines[2] == "node 2: regeneration ok, interference ok"
    report = json.loads(out[out.index("{") :])
    assert report["reports"][1]["interference_ok"] == [[0, False], [2, True]]


def test_selftest_deterministic(capsys):
    code, first, _ = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    assert "SELFTEST PASS seed=3" in first
    code, second, _ = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--r", "3", "--m", "30000000", "--p", "3", "--out", "unused.json"],
        ["sweep", "--r-list", "3", "--m-list", "20000000"],
    ],
)
def test_ceiling_refuses_huge_powers_at_once(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error: ell = 3**") and "exceeds ceiling 81" in err
    assert "Traceback" not in out + err
    assert not (tmp_path / "unused.json").exists()


def count_rref_calls(monkeypatch) -> list:
    """Patch Matrix.rref to count its calls; returns the list it appends to."""
    calls = []
    original = Matrix.rref

    def counted(self):
        calls.append(self.shape)
        return original(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    return calls


@pytest.mark.parametrize("command", ["verify", "bound", "decay"])
def test_loaded_family_above_the_ceiling_is_refused(command, tmp_path, capsys, monkeypatch):
    path = tmp_path / "f8.json"
    assert main(["construct", "--r", "2", "--m", "3", "--p", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    # member 0 of dimension 1 where ell / r = 4: the family's own check
    # would refuse it, but only after parsing and eliminating the file
    broken = json.loads(path.read_text())
    broken["subspaces"][0]["basis"] = broken["subspaces"][0]["basis"][:1]
    broken_path = tmp_path / "f8_broken.json"
    broken_path.write_text(json.dumps(broken))
    calls = count_rref_calls(monkeypatch)
    for loaded_path in (path, broken_path):
        code, out, err = run(capsys, command, "--in", str(loaded_path), "--ceiling", "4")
        assert (code, out, err) == (2, "", "error: ell = 8 exceeds ceiling 4\n")
    assert calls == []
    code, _, _ = run(capsys, command, "--in", str(path), "--ceiling", "8")
    assert code == 0
    code, _, err = run(capsys, command, "--in", str(broken_path), "--ceiling", "8")
    assert (code, err) == (2, "error: subspace 0 has dim 1, expected 4\n")


@pytest.mark.parametrize("command", ["repair-check", "extract"])
def test_loaded_code_above_the_ceiling_is_refused(command, tmp_path, capsys, monkeypatch):
    code, scheme = random_constant_instance(5, 3, 4, random.Random(5))
    code_path = tmp_path / "code.json"
    scheme_path = tmp_path / "scheme.json"
    code_path.write_text(json.dumps(code.to_json_dict()))
    scheme_path.write_text(json.dumps(scheme.to_json_dict()))
    # a zero parity block (0,0): the code's own check would refuse it as
    # singular, but only after parsing the file and ranking its blocks
    broken = code.to_json_dict()
    broken["parity"][0][0]["data"] = [[0] * 4 for _ in range(4)]
    broken_path = tmp_path / "code_broken.json"
    broken_path.write_text(json.dumps(broken))
    calls = count_rref_calls(monkeypatch)
    for loaded_path in (code_path, broken_path):
        argv = (command, "--code", str(loaded_path), "--scheme", str(scheme_path))
        status, out, err = run(capsys, *argv, "--ceiling", "2")
        assert (status, out, err) == (2, "", "error: ell = 4 exceeds ceiling 2\n")
    assert calls == []
    argv = (command, "--code", str(code_path), "--scheme", str(scheme_path))
    status, _, _ = run(capsys, *argv, "--ceiling", "4")
    assert status == 0
    argv = (command, "--code", str(broken_path), "--scheme", str(scheme_path))
    status, _, err = run(capsys, *argv, "--ceiling", "4")
    assert (status, err) == (2, "error: parity block (0,0) is singular\n")


def test_replay_keeps_a_non_default_ceiling(tmp_path, capsys):
    code, scheme = random_constant_instance(5, 3, 4, random.Random(5))
    broken = ConstantRepairScheme((scheme.matrices[0], scheme.matrices[0], scheme.matrices[2]))
    code_path = tmp_path / "code.json"
    scheme_path = tmp_path / "scheme.json"
    code_path.write_text(json.dumps(code.to_json_dict()))
    scheme_path.write_text(json.dumps(broken.to_json_dict()))
    replay = f"msrlab repair-check --code {code_path} --scheme {scheme_path}"
    for extra, expected in (((), replay), (("--ceiling", "81"), replay),
                            (("--ceiling", "16"), replay + " --ceiling 16")):
        status, out, _ = run(capsys, "repair-check", "--code", str(code_path),
                             "--scheme", str(scheme_path), *extra)
        assert status == 1
        assert json.loads(out[out.index("{") :])["replay"] == expected


def test_ceiling_decision_matches_the_power():
    for r in range(-3, 5):
        for m in range(-1, 7):
            for ceiling in (-1, 0, 1, 8, 9, 81):
                if r < 2 or m < 1:  # left for the construction to reject
                    _ell_within(r, m, ceiling)
                elif r**m > ceiling:
                    with pytest.raises(CeilingExceeded, match=f"{r}\\*\\*{m} exceeds ceiling"):
                        _ell_within(r, m, ceiling)
                else:
                    assert _ell_within(r, m, ceiling) == r**m


@pytest.mark.parametrize("kind", ["constant", "general"])
@pytest.mark.parametrize("command", ["repair-check", "extract"])
def test_rank_deficient_scheme_file_is_an_input_error(kind, command, tmp_path, capsys):
    code, scheme = random_constant_instance(5, 3, 4, random.Random(2))
    payload = scheme.to_json_dict()
    flat = dict(payload["repair"][1], data=[[1, 2, 0, 1], [2, 1, 0, 2]])  # rank 1 over GF(3)
    payload["repair"][1] = flat
    if kind == "general":
        payload = {"kind": "general", "p": 3, "repair": [payload["repair"], payload["repair"]]}
    code_path = tmp_path / "code.json"
    scheme_path = tmp_path / "scheme.json"
    code_path.write_text(json.dumps(code.to_json_dict()))
    scheme_path.write_text(json.dumps(payload))
    status, out, err = run(capsys, command, "--code", str(code_path), "--scheme", str(scheme_path))
    assert status == 2
    assert err.startswith("error: repair matrix") and "is not full row rank" in err
    assert "Traceback" not in out + err


def test_zero_r_with_negative_m_is_an_input_error(tmp_path, capsys):
    # 0 ** -1 used to raise ZeroDivisionError before the construction could
    # reject the parameters
    for argv in (
        ["construct", "--r", "0", "--m", "-1", "--p", "3", "--out", str(tmp_path / "f.json")],
        ["sweep", "--r-list", "0", "--m-list", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: need r >= 2 and m >= 1")
        assert "Traceback" not in out + err


def test_one_parser_serves_every_call_without_leaking_options(tmp_path, monkeypatch, capsys):
    path = tmp_path / "fam16.json"
    assert main(["construct", "--r", "2", "--m", "4", "--p", "3", "--out", str(path)]) == 0
    assert cli._shared_parser() is cli._shared_parser()

    def rebuilt():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, _, err = run(capsys, "decay", "--in", str(path), "--ceiling", "8")
    assert code == 2 and "exceeds ceiling 8" in err
    # the previous call's --ceiling does not stick to the parser
    code, out, _ = run(capsys, "decay", "--in", str(path))
    assert code == 0 and out.endswith("final dim 1\n")
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0 and out.endswith("VERIFY PASS\n")
    code, _, err = run(capsys, "decay")
    assert code == 2 and "--in" in err
    code, out, _ = run(capsys, "decay", "--in", str(path), "--order", "random:1")
    assert code == 0 and "along order [" in out
