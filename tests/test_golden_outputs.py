"""Byte-for-byte CLI outputs: exit code, stdout and stderr of fixed runs.

Each run goes through `cli.main` in a temporary working directory that
holds the input files under relative names, since failure reports echo
the input paths in their replay lines. The expected outputs live in
tests/golden/, one file per run. After a change that is meant to alter
an output, rewrite them with

    PYTHONPATH=src python tests/test_golden_outputs.py --write

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from msrlab.cli import main
from msrlab.field import FieldSpec
from msrlab.repair import (
    ConstantRepairScheme,
    GeneralRepairScheme,
    evenodd_code,
    evenodd_scheme,
    random_constant_instance,
)

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "construct-16": "construct --r 2 --m 4 --p 3 --out built.json",
    "sweep-p3": "sweep",
    "sweep-p65537": "sweep --p 65537 --lambda 3",
    "sweep-p2147483647": "sweep --p 2147483647 --lambda 3",
    "sweep-fail": "sweep --r-list 4 --m-list 1 --p 5 --lambda 3 --ceiling 64",
    **{f"decay-random-{seed}": f"decay --in fam16.json --order random:{seed}" for seed in range(20)},
    "decay-identity-8": "decay --in fam8.json",
    "decay-unverified": "decay --in bad_family.json",
    "selftest-0": "selftest --seed 0",
    "selftest-11": "selftest --seed 11",
    "evenodd": "evenodd",
    "evenodd-repair-3": "evenodd --repair 3",
    "verify-pass": "verify --in fam16.json",
    "verify-fail": "verify --in bad_family.json",
    "bound-pass": "bound --in fam8.json",
    "repair-check-pass": "repair-check --code code.json --scheme scheme.json",
    "repair-check-fail": "repair-check --code small_code.json --scheme small_broken.json",
    "repair-check-general-pass": "repair-check --code evenodd_code.json --scheme evenodd_scheme.json",
    "repair-check-general-fail": (
        "repair-check --code evenodd_code.json --scheme evenodd_broken.json --ceiling 64"
    ),
    "repair-check-p65537": "repair-check --code code65537.json --scheme scheme65537.json",
    "extract": "extract --code code.json --scheme scheme.json --out extracted.json",
}


def _write(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload))


def write_inputs() -> None:
    """The input files of every run, under relative names in the working directory."""
    with contextlib.redirect_stdout(io.StringIO()):
        for name, m in (("fam16.json", 4), ("fam8.json", 3)):
            assert main(["construct", "--r", "2", "--m", str(m), "--p", "3", "--out", name]) == 0
    # two lines of F_3^2 whose maps both swap them, so each map moves the
    # other member and both alignment checks fail
    swap = {"rows": 2, "cols": 2, "p": 3, "data": [[0, 1], [1, 0]]}
    _write("bad_family.json", {
        "ell": 2, "r": 2, "p": 3,
        "subspaces": [
            {"ambient": 2, "p": 3, "basis": [[1, 0]]},
            {"ambient": 2, "p": 3, "basis": [[0, 1]]},
        ],
        "maps": [[swap], [swap]],
    })
    for suffix, spec in (("", None), ("65537", FieldSpec(65537))):
        code, scheme = random_constant_instance(6, 4, 16, random.Random(0), spec)
        _write(f"code{suffix}.json", code.to_json_dict())
        _write(f"scheme{suffix}.json", scheme.to_json_dict())
    # node 1 borrows node 0's repair matrix, so node 1 fails both checks
    code, scheme = random_constant_instance(5, 3, 4, random.Random(5))
    broken = ConstantRepairScheme((scheme.matrices[0], scheme.matrices[0], scheme.matrices[2]))
    _write("small_code.json", code.to_json_dict())
    _write("small_broken.json", broken.to_json_dict())
    # EVENODD's general scheme, and one whose node 1 asks both parities for the same row
    grid = evenodd_scheme().matrices
    _write("evenodd_code.json", evenodd_code().to_json_dict())
    _write("evenodd_scheme.json", evenodd_scheme().to_json_dict())
    _write("evenodd_broken.json", GeneralRepairScheme(
        ((grid[0][0], grid[1][1]), grid[1])).to_json_dict())


def render(command: str) -> str:
    """The exit code, stdout and stderr of one run through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(command.split())
    return f"$ msrlab {command}\nexit {status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    previous = os.getcwd()
    os.chdir(path)
    try:
        write_inputs()
    finally:
        os.chdir(previous)
    return path


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_golden(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render(RUNS[name]) == expected


def test_every_golden_file_has_a_run():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(RUNS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_outputs.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        write_inputs()
        for name, command in RUNS.items():
            (GOLDEN / f"{name}.txt").write_text(render(command), encoding="utf-8")
    print(f"wrote {len(RUNS)} files to {GOLDEN}")
