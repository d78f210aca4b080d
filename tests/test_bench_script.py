"""bench/make_bench.py in its tiny mode, and the schema of the BENCH files
it writes, the committed ones included; files from BENCH_14.json on also
time the product kernel, files written from now on name the source
they measured by its sha256 (BENCH_12 and BENCH_14 predate that key), and
files from BENCH_17.json on also time decay: its eliminations, through
Matrix.rref and the per-pivot loop alone, and the whole trace per ell,
once more at ell = 81 over GF(65537)."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROW_KEYS = ["layer", "ell", "shape", "inputs", "p", "rref_calls", "repeats", "median_s",
            "iqr_s", "nproc", "python", "numpy", "commit", "dirty"]
RANK_LAYERS = {"Matrix.rank", "rref()[1]"}
PRODUCT_LAYER = "matrix._product"
RREF_LAYERS = {"Matrix.rref", "matrix._eliminate"}
DECAY_LAYER = "decay_trace"
VERIFY_LAYERS = RANK_LAYERS | {"MsrSubspaceFamily.verify", PRODUCT_LAYER}
LARGE_P = 65537


def check_schema(payload: dict, ells: set[int], repeats: int | None = None):
    assert list(payload) == ["rows"]
    rows = payload["rows"]
    for row in rows:
        assert list(row) in (ROW_KEYS, ROW_KEYS + ["source_sha256"])
        assert row["layer"] in VERIFY_LAYERS | RREF_LAYERS | {DECAY_LAYER}
        assert row["ell"] in ells
        # a product's shape is rows, inner, cols, led by the batch when stacked
        sizes = (3, 4) if row["layer"] == PRODUCT_LAYER else (2,)
        assert len(row["shape"]) in sizes and all(type(n) is int and n > 0 for n in row["shape"])
        assert type(row["inputs"]) is int and row["inputs"] > 0
        large = row["p"] == LARGE_P and row["layer"] == DECAY_LAYER and row["ell"] == 81
        assert (row["p"] == 3 or large) and row["nproc"] >= 1
        assert repeats is None or row["repeats"] == repeats
        q1, q3 = row["iqr_s"]
        assert 0 < q1 <= row["median_s"] <= q3
        assert isinstance(row["commit"], str) and isinstance(row["dirty"], bool)
        assert isinstance(row["python"], str) and isinstance(row["numpy"], str)
        if row["layer"] in {"rref()[1]", "Matrix.rref"}:
            assert row["rref_calls"] == row["inputs"]
        if row["layer"] == "matrix._eliminate":
            assert row["rref_calls"] == 0
        if row["layer"] == DECAY_LAYER:
            # one elimination per member: the first Kronecker kernel, then equations
            assert row["rref_calls"] == row["shape"][0]
    # both rank layers time the same captured inputs, and every ell has a verify row
    by_layer = {layer: sorted((r["ell"], r["shape"], r["inputs"]) for r in rows
                              if r["layer"] == layer) for layer in RANK_LAYERS | RREF_LAYERS}
    assert by_layer["Matrix.rank"] == by_layer["rref()[1]"] != []
    assert by_layer["Matrix.rref"] == by_layer["matrix._eliminate"]
    assert {r["ell"] for r in rows if r["layer"] == "MsrSubspaceFamily.verify"} == ells


def check_decay_rows(payload: dict, ells: set[int], large_p: bool):
    """Every ell has rref rows and a decay row at p = 3; with large_p also
    one single-repeat ell = 81 decay row over GF(65537)."""
    rows = payload["rows"]
    assert {r["ell"] for r in rows if r["layer"] == "Matrix.rref"} == ells
    assert sorted(r["ell"] for r in rows if r["layer"] == DECAY_LAYER and r["p"] == 3) == sorted(ells)
    large = [(r["layer"], r["ell"], r["repeats"]) for r in rows if r["p"] == LARGE_P]
    assert large == ([(DECAY_LAYER, 81, 1)] if large_p else [])


def test_tiny_mode_writes_the_schema(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "make_bench.py"), "--tiny",
                    "--out", str(out)], check=True, cwd=tmp_path, timeout=120)
    payload = json.loads(out.read_text())
    check_schema(payload, {4, 8}, repeats=1)
    check_decay_rows(payload, {4, 8}, large_p=False)
    assert {r["ell"] for r in payload["rows"] if r["layer"] == PRODUCT_LAYER} == {4, 8}
    source = b"".join(path.read_bytes() for path in sorted((ROOT / "src" / "msrlab").glob("*.py")))
    assert {r.get("source_sha256") for r in payload["rows"]} == {hashlib.sha256(source).hexdigest()}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_keep_the_schema(path):
    rows = json.loads(path.read_text())
    check_schema(rows, {16, 27, 81})
    # at these sizes every rank of verify is decided by the peel
    assert all(r["rref_calls"] == 0 for r in rows["rows"]
               if r["layer"] in VERIFY_LAYERS - {"rref()[1]"})
    if int(path.stem.split("_")[1]) >= 14:
        assert {r["ell"] for r in rows["rows"] if r["layer"] == PRODUCT_LAYER} == {16, 27, 81}
    if int(path.stem.split("_")[1]) > 14:
        assert all("source_sha256" in r for r in rows["rows"])
    if int(path.stem.split("_")[1]) >= 17:
        check_decay_rows(rows, {16, 27, 81}, large_p=True)
