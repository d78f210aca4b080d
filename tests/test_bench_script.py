"""bench/make_bench.py in its tiny mode, and the schema of the BENCH files
it writes, the committed ones included; files from BENCH_14.json on also
time the product kernel, files written from now on name the source
they measured by its sha256 (BENCH_12 and BENCH_14 predate that key), and
files from BENCH_17.json on also time decay: its eliminations, through
Matrix.rref and the per-pivot loop alone, and the whole trace per ell,
once more at ell = 81 over GF(65537). Files from BENCH_19.json on also
time construct_tensor_family once per ell, and files from BENCH_20.json
on also time loading that family from its JSON once per ell. Files from
BENCH_24.json on time verify's batched rank calls, `matrix._ranks`, where
earlier files time `Matrix.rank` once per matrix. Files from BENCH_26.json
on time verify's float32 kernel calls, `matrix._float_product`, each on a
chunk and a batch of maps, against one `matrix._product` per map on the
same operands; earlier files time `matrix._product` on one map at a time."""

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
RANK_LAYERS = {"Matrix.rank", "matrix._ranks", "rref()[1]"}
PRODUCT_LAYER = "matrix._product"
KERNEL_LAYER = "matrix._float_product"
RREF_LAYERS = {"Matrix.rref", "matrix._eliminate"}
DECAY_LAYER = "decay_trace"
CONSTRUCT_LAYER = "construct_tensor_family"
LOAD_LAYER = "MsrSubspaceFamily.from_json_dict"
VERIFY_LAYERS = RANK_LAYERS | {"MsrSubspaceFamily.verify", PRODUCT_LAYER, KERNEL_LAYER}
LARGE_P = 65537
# 1 where the first member of the ell's `--order random:7` is coordinate, so
# that decay reads its annihilator off as it is, with no elimination
FIRST_IS_COORDINATE = {4: 1, 8: 1, 16: 1, 27: 0, 81: 0}
# verify's kernel calls per ell over GF(3), two per chunk and batch of maps
KERNEL_CALLS = {4: 2, 8: 4, 16: 4, 27: 4, 81: 64}


def check_schema(payload: dict, ells: set[int], repeats: int | None = None,
                 inverses: bool = False, batched: bool = True, kernel: bool = True):
    """inverses: written when construction inverted each r x r factor and
    every Subspace eliminated its generators, as up to BENCH_20.json.
    batched: verify's ranks timed per `_ranks` call, from BENCH_24.json on;
    before, per matrix through Matrix.rank.
    kernel: verify's products timed per float32 kernel call, from
    BENCH_26.json on; before, per map through `matrix._product`."""
    assert list(payload) == ["rows"]
    rows = payload["rows"]
    for row in rows:
        assert list(row) in (ROW_KEYS, ROW_KEYS + ["source_sha256"])
        assert row["layer"] in VERIFY_LAYERS | RREF_LAYERS | {DECAY_LAYER, CONSTRUCT_LAYER,
                                                              LOAD_LAYER}
        assert row["ell"] in ells
        # a product's shape is rows, inner, cols, led by the batch when stacked;
        # a kernel call's by the batch of maps, then the chunk's members for the
        # images against the annihilators
        if row["layer"] in {PRODUCT_LAYER, KERNEL_LAYER}:
            sizes = (4, 5) if kernel else (3, 4)
        else:
            sizes = (2,)
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
        if row["layer"] == DECAY_LAYER and inverses:
            # one elimination per member: the first annihilator, then equations
            assert row["rref_calls"] == row["shape"][0]
        elif row["layer"] == DECAY_LAYER:
            # a coordinate first member's annihilator is canonical already
            assert row["rref_calls"] == row["shape"][0] - FIRST_IS_COORDINATE[row["ell"]]
        if row["layer"] == CONSTRUCT_LAYER and inverses:
            # the r x r inverses of the factors, r + 1 <= k of them; no basis is eliminated
            assert 0 < row["rref_calls"] <= row["shape"][0]
        elif row["layer"] == CONSTRUCT_LAYER:
            # every factor in closed form, every basis canonical
            assert row["rref_calls"] == 0
        if row["layer"] == LOAD_LAYER:
            # every basis in the file is already canonical
            assert row["rref_calls"] == 0
    # both rank layers time the same captured inputs, and every ell has a verify row
    by_layer = {layer: sorted((r["ell"], r["shape"], r["inputs"]) for r in rows
                              if r["layer"] == layer) for layer in RANK_LAYERS | RREF_LAYERS}
    rank_layer, other = ("matrix._ranks", "Matrix.rank") if batched else ("Matrix.rank",
                                                                          "matrix._ranks")
    assert by_layer[rank_layer] == by_layer["rref()[1]"] != [] and by_layer[other] == []
    if batched:
        # two calls per ell: the k(r-1) maps, then the k regeneration stacks
        assert sorted(ell for ell, _, _ in by_layer[rank_layer]) == sorted(2 * list(ells))
    assert by_layer["Matrix.rref"] == by_layer["matrix._eliminate"]
    # the kernel and the per-map products time the same captured calls
    products = {layer: sorted((r["ell"], r["shape"], r["inputs"]) for r in rows
                              if r["layer"] == layer) for layer in (PRODUCT_LAYER, KERNEL_LAYER)}
    if kernel:
        assert products[KERNEL_LAYER] == products[PRODUCT_LAYER] != []
        calls = {ell: sum(n for e, _, n in products[KERNEL_LAYER] if e == ell) for ell in ells}
        assert calls == {ell: KERNEL_CALLS[ell] for ell in ells}
    else:
        assert products[KERNEL_LAYER] == []
    assert {r["ell"] for r in rows if r["layer"] == "MsrSubspaceFamily.verify"} == ells


def check_construct_rows(payload: dict, ells: set[int]):
    """One construction row per ell."""
    assert sorted(r["ell"] for r in payload["rows"] if r["layer"] == CONSTRUCT_LAYER) == sorted(ells)


def check_load_rows(payload: dict, ells: set[int]):
    """One family-load row per ell."""
    assert sorted(r["ell"] for r in payload["rows"] if r["layer"] == LOAD_LAYER) == sorted(ells)


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
    check_construct_rows(payload, {4, 8})
    check_load_rows(payload, {4, 8})
    assert {r["ell"] for r in payload["rows"] if r["layer"] == PRODUCT_LAYER} == {4, 8}
    source = b"".join(path.read_bytes() for path in sorted((ROOT / "src" / "msrlab").glob("*.py")))
    assert {r.get("source_sha256") for r in payload["rows"]} == {hashlib.sha256(source).hexdigest()}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_keep_the_schema(path):
    rows = json.loads(path.read_text())
    number = int(path.stem.split("_")[1])
    check_schema(rows, {16, 27, 81}, inverses=number <= 20, batched=number >= 24,
                 kernel=number >= 26)
    # at these sizes every rank of verify is decided by the peel
    assert all(r["rref_calls"] == 0 for r in rows["rows"]
               if r["layer"] in VERIFY_LAYERS - {"rref()[1]"})
    if number >= 14:
        assert {r["ell"] for r in rows["rows"] if r["layer"] == PRODUCT_LAYER} == {16, 27, 81}
    if number > 14:
        assert all("source_sha256" in r for r in rows["rows"])
    if number >= 17:
        check_decay_rows(rows, {16, 27, 81}, large_p=True)
    if number >= 19:
        check_construct_rows(rows, {16, 27, 81})
    if number >= 20:
        check_load_rows(rows, {16, 27, 81})
