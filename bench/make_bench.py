"""Per-layer timings of construction, `verify` and `decay_trace`, written as one BENCH file.

    python3 bench/make_bench.py --out BENCH_26.json           # ell = 16, 27, 81
    python3 bench/make_bench.py --tiny --out bench_tiny.json  # ell = 4, 8; one repeat

Run it from the root of a checkout. The inputs are captured, not listed: for
each ell the script builds the tensor family over GF(3), runs verify() once
with the batched rank `matrix._ranks` and the float32 kernel
`matrix._float_product` wrapped, and keeps the arrays of every `_ranks`
call that verify makes, one group per call (the k(r-1) maps, then the k
regeneration stacks), and the operands of every kernel call, grouped by
shape. Each rank group is timed through one `_ranks` call and through
rref()[1], the rank by elimination alone, of each matrix in it. Each kernel
group is timed through `_float_product` and through one int64
`matrix._product` per map on the same operands, as verify() multiplied
before it batched its maps; a kernel call's shape is the batch of maps,
then rows, inner and cols, with the chunk's members before rows for the
images against the annihilators. A row's times are seconds per matrix or
kernel call: each repeat times one pass over the group and divides by its
size. `rref_calls` counts the eliminations one pass makes. One more row
per ell times the whole library verify() of the family, whose shape is
(k, ell). Files up to BENCH_24.json time `matrix._product` on one map at a
time, and files up to BENCH_20.json `Matrix.rank` once per matrix instead
of `_ranks`, on the matrices verify then ranked one at a time.

Decay is captured the same way: for each ell the script runs
decay_trace(family, order) along the order of the command line's
`--order random:7` and keeps every matrix that reaches Matrix.rref, that is
the first member's annihilator basis, unless that member is coordinate and
its annihilator canonical already, and each later member's equations,
grouped by shape. Each group is timed through Matrix.rref, which peels
singleton rows first, and through `matrix._eliminate`, the per-pivot loop
alone, on a fresh copy. One `decay_trace` row per ell times the whole
trace (shape (k, ell)); its runs count their eliminations. The full mode
adds one ell = 81 decay row at p = 65537 with a single repeat, where every
large product runs in int64.

One `construct_tensor_family` row per ell times building the whole family
over GF(3) (shape (k, ell)); its runs count the eliminations, which are
none: every factor is built in closed form and every basis is canonical.
Files up to BENCH_20.json count the r x r inverses that construction
took before. One `MsrSubspaceFamily.from_json_dict` row
per ell times loading that family from its parsed JSON, as `decay --in`
and `verify --in` do after the parse; every basis in it is already
canonical, so it counts no elimination.

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
from msrlab.matrix import Matrix, _eliminate, _float_product, _product, _ranks  # noqa: E402
from msrlab.msr_family import MsrSubspaceFamily, construct_tensor_family  # noqa: E402

P = 3
LARGE_P = 65537
REPEATS = 21
DECAY_REPEATS = 5  # a whole trace at ell = 81 takes seconds
ORDER_SEED = 7  # the command line's --order random:7
FAMILIES = {16: (2, 4), 27: (3, 3), 81: (3, 4)}  # ell: (r, m), ell = r**m
TINY_FAMILIES = {4: (2, 2), 8: (2, 3)}


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


def kernel_shape(a: np.ndarray, b: np.ndarray) -> tuple[int, ...]:
    """The batch np.matmul broadcasts a and b to, then rows, inner and cols."""
    return np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + a.shape[-2:] + b.shape[-1:]


def per_map(a: np.ndarray, b: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """One batched kernel call of verify() as int64 operands of one `_product`
    per map, as verify() multiplied before: the maps run along the leading
    axis of the operand with more axes (the stack of maps, or of images)."""
    a, b = a.astype(np.int64), b.astype(np.int64)
    return [(part, b) for part in a] if a.ndim > b.ndim else [(a, part) for part in b]


def rows_for(ell: int, r: int, m: int, repeats: int, stamp: dict) -> list[dict]:
    family = construct_tensor_family(r, m, FieldSpec(P))
    groups, multiplied = [], []
    msr_family._ranks = lambda arrays, spec: groups.append(arrays) or _ranks(arrays, spec)
    msr_family._float_product = (
        lambda a, b, p: multiplied.append((a, b)) or _float_product(a, b, p))
    try:
        if not family.verify().ok:
            raise SystemExit(f"the ell = {ell} tensor family does not verify")
    finally:
        msr_family._ranks = _ranks
        msr_family._float_product = _float_product
    products: dict[tuple[int, ...], list[tuple]] = {}
    for a, b in multiplied:
        products.setdefault(kernel_shape(a, b), []).append((a, b))
    rows = []
    for shape, pairs in products.items():
        maps = [per_map(a, b) for a, b in pairs]
        layers = {"matrix._float_product": lambda pairs=pairs: [_float_product(a, b, P)
                                                               for a, b in pairs],
                  "matrix._product": lambda maps=maps: [_product(a, b, P)
                                                        for call in maps for a, b in call]}
        for layer, one_pass in layers.items():
            rows.append({"layer": layer, "ell": ell, "shape": list(shape), "inputs": len(pairs),
                         "p": P, "rref_calls": count_rref(one_pass),
                         **timed(one_pass, repeats, len(pairs)), **stamp})
    for arrays in groups:
        mats = [Matrix._adopt(family.spec, a) for a in arrays]
        layers = {"matrix._ranks": lambda: _ranks(arrays, family.spec),
                  "rref()[1]": lambda: [mat.rref()[1] for mat in mats]}
        for layer, one_pass in layers.items():
            rows.append({"layer": layer, "ell": ell, "shape": list(arrays[0].shape),
                         "inputs": len(arrays), "p": P, "rref_calls": count_rref(one_pass),
                         **timed(one_pass, repeats, len(arrays)), **stamp})

    def verify():
        object.__setattr__(family, "_report", None)  # verify() caches its report
        family.verify()

    rows.append({"layer": "MsrSubspaceFamily.verify", "ell": ell, "shape": [family.k, ell],
                 "inputs": 1, "p": P, "rref_calls": count_rref(verify),
                 **timed(verify, repeats, 1), **stamp})
    return rows


def construct_row(ell: int, r: int, m: int, repeats: int, stamp: dict) -> dict:
    """Building the whole ell = r**m tensor family over GF(3)."""
    def build():
        construct_tensor_family(r, m, FieldSpec(P))

    return {"layer": "construct_tensor_family", "ell": ell, "shape": [(r + 1) * m, ell],
            "inputs": 1, "p": P, "rref_calls": count_rref(build), **timed(build, repeats, 1),
            **stamp}


def load_row(ell: int, r: int, m: int, repeats: int, stamp: dict) -> dict:
    """Loading the ell = r**m tensor family over GF(3) from its parsed JSON."""
    payload = json.loads(json.dumps(construct_tensor_family(r, m, FieldSpec(P)).to_json_dict()))

    def load():
        MsrSubspaceFamily.from_json_dict(payload)

    return {"layer": "MsrSubspaceFamily.from_json_dict", "ell": ell,
            "shape": [(r + 1) * m, ell], "inputs": 1, "p": P, "rref_calls": count_rref(load),
            **timed(load, repeats, 1), **stamp}


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
        rows.append(construct_row(ell, r, m, repeats, stamp))
        rows.append(load_row(ell, r, m, repeats, stamp))
        rows += rows_for(ell, r, m, repeats, stamp)
        rows += rref_rows(ell, r, m, repeats, stamp)
        rows.append(decay_row(ell, r, m, P, decay_repeats, stamp))
    if not args.tiny:
        rows.append(decay_row(81, *FAMILIES[81], LARGE_P, 1, stamp))
    Path(args.out).write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
