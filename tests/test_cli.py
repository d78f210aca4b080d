"""Command-line interface: exit codes, file round trips, determinism."""

from __future__ import annotations

import json
import random

import pytest

from msrlab.cli import main
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


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2


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


@pytest.mark.parametrize("basis", [[[1.0, 0, 0, 0]], [[1, 0, 0, "x"]], [1, 0, 0, 0]])
def test_malformed_subspace_basis_is_input_error(family_file, basis, capsys):
    payload = json.loads(family_file.read_text())
    payload["subspaces"][0]["basis"] = basis
    family_file.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", "--in", str(family_file))
    assert code == 2
    assert err.startswith("error:")


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


def test_sweep_small_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--r-list", "2", "--m-list", "1,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["r", "m", "ell", "k_construct"]
    assert lines[1].split()[:4] == ["2", "1", "2", "3"]
    assert lines[2].split()[:4] == ["2", "2", "4", "6"]
    assert all("True" in line for line in lines[1:3])


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
