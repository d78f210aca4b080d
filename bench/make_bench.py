"""Per-layer timings of the ranks and products that `verify` takes, written as one BENCH file.

    python3 bench/make_bench.py --out BENCH_14.json           # ell = 16, 27, 81
    python3 bench/make_bench.py --tiny --out bench_tiny.json  # ell = 4, 8; one repeat

Run it from the root of a checkout. The inputs are captured, not listed: for
each ell the script builds the tensor family over GF(3), runs verify() once
with Matrix.rank and the product kernel wrapped, and keeps every matrix that
verify ranks and every pair of arrays that it multiplies, grouped by shape.
Each rank group is timed through Matrix.rank and through rref()[1], the rank
by elimination alone, on the same matrices; each product group through the
kernel, `matrix._product`, whose shape is the left operand's shape followed
by the right one's column count (batch, rows, inner, cols when stacked). A
row's times are seconds per call: each repeat times one pass over the group
and divides by its size. `rref_calls` counts the eliminations one pass
makes. One more row per ell times the whole library verify() of the family,
whose shape is (k, ell).

Every row also names the code it measured: `source_sha256` is the sha256
of the files `src/msrlab/*.py` concatenated in sorted name order, which
can be recomputed at any commit. `commit` and `dirty` only say where the
checkout stood, and a BENCH file is written before its change is committed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from msrlab import msr_family  # noqa: E402
from msrlab.field import FieldSpec  # noqa: E402
from msrlab.matrix import Matrix, _product  # noqa: E402
from msrlab.msr_family import construct_tensor_family  # noqa: E402

P = 3
REPEATS = 21
FAMILIES = {16: (2, 4), 27: (3, 3), 81: (3, 4)}  # ell: (r, m), ell = r**m
TINY_FAMILIES = {4: (2, 2), 8: (2, 3)}
LAYERS = {"Matrix.rank": Matrix.rank, "rref()[1]": lambda mat: mat.rref()[1]}


def git(*args: str) -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def source_sha256() -> str:
    """sha256 of src/msrlab/*.py, the files concatenated in sorted name order."""
    files = sorted((ROOT / "src" / "msrlab").glob("*.py"))
    return hashlib.sha256(b"".join(path.read_bytes() for path in files)).hexdigest()


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git("rev-parse", "HEAD") or "unknown",
        # uncommitted edits to tracked files: the commit alone does not name the code
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "source_sha256": source_sha256(),
    }


def timed(call, repeats: int, per: int) -> dict:
    """Median and quartiles of `repeats` timed calls, each divided by `per`."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) / per)
    q1, median, q3 = np.percentile(times, [25, 50, 75]).tolist()
    return {"repeats": repeats, "median_s": median, "iqr_s": [q1, q3]}


def count_rref(call) -> int:
    """Eliminations made by one call."""
    real, seen = Matrix.rref, []
    Matrix.rref = lambda self: seen.append(1) or real(self)
    try:
        call()
    finally:
        Matrix.rref = real
    return len(seen)


def rows_for(ell: int, r: int, m: int, repeats: int, stamp: dict) -> list[dict]:
    family = construct_tensor_family(r, m, FieldSpec(P))
    ranked, multiplied, real = [], [], Matrix.rank
    Matrix.rank = lambda self: ranked.append(self) or real(self)
    msr_family._product = lambda a, b, p: multiplied.append((a, b)) or _product(a, b, p)
    try:
        if not family.verify().ok:
            raise SystemExit(f"the ell = {ell} tensor family does not verify")
    finally:
        Matrix.rank = real
        msr_family._product = _product
    groups: dict[tuple[int, int], list[Matrix]] = {}
    for mat in ranked:
        groups.setdefault(mat.shape, []).append(mat)
    products: dict[tuple[int, ...], list[tuple]] = {}
    for a, b in multiplied:
        products.setdefault(a.shape + b.shape[-1:], []).append((a, b))
    rows = []
    for shape, pairs in products.items():
        def one_pass(pairs=pairs):
            for a, b in pairs:
                _product(a, b, P)
        rows.append({"layer": "matrix._product", "ell": ell, "shape": list(shape),
                     "inputs": len(pairs), "p": P, "rref_calls": count_rref(one_pass),
                     **timed(one_pass, repeats, len(pairs)), **stamp})
    for shape, mats in groups.items():
        for layer, rank in LAYERS.items():
            def one_pass(rank=rank, mats=mats):
                for mat in mats:
                    rank(mat)
            rows.append({"layer": layer, "ell": ell, "shape": list(shape), "inputs": len(mats),
                         "p": P, "rref_calls": count_rref(one_pass),
                         **timed(one_pass, repeats, len(mats)), **stamp})

    def verify():
        object.__setattr__(family, "_report", None)  # verify() caches its report
        family.verify()

    rows.append({"layer": "MsrSubspaceFamily.verify", "ell": ell, "shape": [family.k, ell],
                 "inputs": 1, "p": P, "rref_calls": count_rref(verify),
                 **timed(verify, repeats, 1), **stamp})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    parser.add_argument("--tiny", action="store_true", help="ell = 4 and 8, one repeat")
    args = parser.parse_args(argv)
    families, repeats = (TINY_FAMILIES, 1) if args.tiny else (FAMILIES, REPEATS)
    stamp = machine()
    rows = [row for ell, (r, m) in families.items() for row in rows_for(ell, r, m, repeats, stamp)]
    Path(args.out).write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
