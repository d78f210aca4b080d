"""Per-layer timings of what `verify` and `decay_trace` run, written as one BENCH file.

    python3 bench/make_bench.py --out BENCH_17.json           # ell = 16, 27, 81
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

Decay is captured the same way: for each ell the script runs
decay_trace(family, order) along the order of the command line's
`--order random:7` and keeps every matrix that reaches Matrix.rref, that is
the kernel of the first Kronecker system and each member's equations,
grouped by shape. Each group is timed through Matrix.rref, which peels
singleton rows first, and through `matrix._eliminate`, the per-pivot loop
alone, on a fresh copy. One `decay_trace` row per ell times the whole
trace (shape (k, ell)); its runs count their eliminations. The full mode
adds one ell = 81 decay row at p = 65537 with a single repeat, where every
large product runs in int64.

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
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from msrlab import msr_family  # noqa: E402
from msrlab.field import FieldSpec  # noqa: E402
from msrlab.invariant import decay_trace  # noqa: E402
from msrlab.matrix import Matrix, _eliminate, _product  # noqa: E402
from msrlab.msr_family import construct_tensor_family  # noqa: E402

P = 3
LARGE_P = 65537
REPEATS = 21
DECAY_REPEATS = 5  # a whole trace at ell = 81 takes seconds
ORDER_SEED = 7  # the command line's --order random:7
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


def eliminated(call) -> list[Matrix]:
    """Every matrix that reaches Matrix.rref during one call."""
    real, seen = Matrix.rref, []
    Matrix.rref = lambda self: seen.append(self) or real(self)
    try:
        call()
    finally:
        Matrix.rref = real
    return seen


def count_rref(call) -> int:
    """Eliminations made by one call."""
    return len(eliminated(call))


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


def decay_inputs(r: int, m: int, p: int) -> tuple:
    """The verified ell = r**m tensor family over GF(p) and the order of
    `--order random:7`. verify() keeps its report, so decay does not rerun it."""
    family = construct_tensor_family(r, m, FieldSpec(p))
    if not family.verify().ok:
        raise SystemExit(f"the ell = {family.ell} tensor family does not verify")
    order = list(range(family.k))
    random.Random(ORDER_SEED).shuffle(order)
    return family, order


def decay_row(ell: int, r: int, m: int, p: int, repeats: int, stamp: dict) -> dict:
    """The whole decay_trace of the ell = r**m family over GF(p)."""
    family, order = decay_inputs(r, m, p)
    counts = []
    times = timed(lambda: counts.append(count_rref(lambda: decay_trace(family, order))), repeats, 1)
    return {"layer": "decay_trace", "ell": ell, "shape": [family.k, ell], "inputs": 1, "p": p,
            "rref_calls": counts[0], **times, **stamp}


def rref_rows(ell: int, r: int, m: int, repeats: int, stamp: dict) -> list[dict]:
    """Matrix.rref and the per-pivot loop alone on the matrices decay eliminates."""
    family, order = decay_inputs(r, m, P)
    groups: dict[tuple[int, int], list[Matrix]] = {}
    for mat in eliminated(lambda: decay_trace(family, order)):
        groups.setdefault(mat.shape, []).append(mat)
    layers = {"Matrix.rref": lambda mat: mat.rref(),
              "matrix._eliminate": lambda mat: _eliminate(mat._a.copy(), P)}
    rows = []
    for shape, mats in groups.items():
        for layer, reduce in layers.items():
            def one_pass(reduce=reduce, mats=mats):
                for mat in mats:
                    reduce(mat)
            rows.append({"layer": layer, "ell": ell, "shape": list(shape), "inputs": len(mats),
                         "p": P, "rref_calls": count_rref(one_pass),
                         **timed(one_pass, repeats, len(mats)), **stamp})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    parser.add_argument("--tiny", action="store_true", help="ell = 4 and 8, one repeat")
    args = parser.parse_args(argv)
    families, repeats = (TINY_FAMILIES, 1) if args.tiny else (FAMILIES, REPEATS)
    decay_repeats = 1 if args.tiny else DECAY_REPEATS
    stamp = machine()
    rows = []
    for ell, (r, m) in families.items():
        rows += rows_for(ell, r, m, repeats, stamp)
        rows += rref_rows(ell, r, m, repeats, stamp)
        rows.append(decay_row(ell, r, m, P, decay_repeats, stamp))
    if not args.tiny:
        rows.append(decay_row(81, *FAMILIES[81], LARGE_P, 1, stamp))
    Path(args.out).write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
