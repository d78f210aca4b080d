"""Matrix.rank and the batched peel `_ranks`, which peel singleton rows and
columns before they eliminate, against rref()[1], the rank of the one
elimination kernel.

A row whose one nonzero is in column c adds 1 to the rank per distinct c, and
a column whose one nonzero is in row i adds 1 per distinct i; zero rows and
columns add nothing. The inputs below reach every case: empty shapes, zero
rows and columns, several singletons sharing one column or one row, a peel
that stops with a dense remainder for rref, and dense matrices that are not
peeled at all, over GF(2), GF(3), GF(5) and GF(2**31 - 1).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msrlab.field import FieldSpec
from msrlab.matrix import Matrix, _ranks
from msrlab.msr_family import construct_tensor_family

PRIMES = (2, 3, 5, 2**31 - 1)


def sparse(p, rows, cols, density, rng) -> Matrix:
    values = rng.integers(1, p, size=(rows, cols), dtype=np.int64)
    values[rng.random((rows, cols)) >= density] = 0
    return Matrix._adopt(FieldSpec(p), values)


@pytest.fixture
def eliminated(monkeypatch):
    """Every matrix that reaches Matrix.rref while the test runs."""
    seen = []
    real = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: seen.append(self) or real(self))
    return seen


def assert_rank_is_rref_rank(mat: Matrix):
    assert mat.rank() == mat.rref()[1]


@pytest.mark.parametrize("p", PRIMES)
def test_random_sparse_ranks_match_rref(p, eliminated):
    rng = np.random.default_rng(p % 1000)
    outcomes = set()
    for _ in range(300):
        rows, cols = rng.integers(1, 14, size=2)
        mat = sparse(p, int(rows), int(cols), rng.choice([0.05, 0.15, 0.3, 0.6, 0.9]), rng)
        eliminated.clear()
        rank = mat.rank()
        if not eliminated:
            outcomes.add("peeled")
        elif eliminated[0] is mat:
            outcomes.add("dense")
        else:
            outcomes.add("remainder")
        assert rank == mat.rref()[1]
    # the seeded inputs reach all three ways a rank can end
    assert outcomes == {"peeled", "dense", "remainder"}


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
def test_empty_shapes_have_rank_zero(shape):
    for p in PRIMES:
        assert Matrix.zeros(FieldSpec(p), *shape).rank() == 0


@pytest.mark.parametrize("p", PRIMES)
def test_zero_rows_and_columns(p):
    rng = np.random.default_rng(7)
    spec = FieldSpec(p)
    assert Matrix.zeros(spec, 4, 6).rank() == 0
    for _ in range(50):
        values = sparse(p, 9, 7, 0.5, rng)._a.copy()
        values[rng.random(9) < 0.4] = 0
        values[:, rng.random(7) < 0.4] = 0
        assert_rank_is_rref_rank(Matrix._adopt(spec, values))


@pytest.mark.parametrize("p", PRIMES)
def test_singletons_sharing_a_column_or_a_row_count_once(p, eliminated):
    spec = FieldSpec(p)
    top = p - 1
    # rows 0-2 are singletons in column 1 and count once; in the rest (rows
    # 3-5 without column 1) columns 0 and 4 are singletons in rows 3 and 5,
    # and then columns 2 and 3 in row 4, which counts once: nothing is left
    mat = Matrix(spec, [[0, 1, 0, 0, 0], [0, top, 0, 0, 0], [0, 1, 0, 0, 0],
                        [1, 0, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1]])
    assert mat.rank() == 4
    assert eliminated == []
    assert mat.rref()[1] == 4
    # no singleton row; columns 0-2 are singletons in row 0 and count once,
    # as do columns 5 and 7 in rows 3 and 4; rows 1-2 at columns 3 and 4
    # are left, with two nonzeros in every row and column, for rref
    mat = Matrix(spec, [[1, 1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0],
                        [0, 0, 0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 1, 0],
                        [0, 0, 0, 0, 0, 0, 1, 1]])
    eliminated.clear()
    assert mat.rank() == 4
    assert [m.shape for m in eliminated] == [(2, 2)]
    assert mat.rref()[1] == 4
    rng = np.random.default_rng(11)
    for _ in range(50):
        # rows 0-4 are singletons in one column, rows 5-9 have two nonzeros
        values = np.zeros((10, 10), dtype=np.int64)
        values[:5, rng.integers(10)] = rng.integers(1, p, size=5)
        for row in range(5, 10):
            values[row, rng.choice(10, 2, replace=False)] = rng.integers(1, p, size=2)
        assert_rank_is_rref_rank(Matrix._adopt(spec, values))
        # the transpose: singleton columns sharing one row
        assert_rank_is_rref_rank(Matrix._adopt(spec, values.T.copy()))


@pytest.mark.parametrize("p", PRIMES)
def test_peel_stops_and_leaves_the_dense_remainder_to_rref(p, eliminated):
    rng = np.random.default_rng(3)
    spec = FieldSpec(p)
    # a dense 3 x 3 block and nine singleton rows: 18 nonzeros < 2 * 12,
    # so the nine are peeled and the block (9 nonzeros >= 2 * 3) is not
    values = np.zeros((12, 12), dtype=np.int64)
    values[:3, :3] = rng.integers(1, p, size=(3, 3))
    values[np.arange(3, 12), np.arange(3, 12)] = rng.integers(1, p, size=9)
    mat = Matrix._adopt(spec, values[rng.permutation(12)][:, rng.permutation(12)])
    rank = mat.rank()
    assert [m.shape for m in eliminated] == [(3, 3)]
    assert rank == 9 + Matrix._adopt(spec, values[:3, :3].copy()).rref()[1]
    assert rank == mat.rref()[1]


def test_dense_and_small_matrices_reach_rref_once_as_themselves(eliminated):
    rng = np.random.default_rng(5)
    spec = FieldSpec(5)
    dense = Matrix._adopt(spec, rng.integers(1, 5, size=(8, 8)))
    # fewer than 5 rows or columns: not peeled, however sparse
    small = [Matrix.identity(spec, 4), Matrix.identity(spec, 9).columns(range(4)),
             Matrix.zeros(spec, 1, 30)]
    for mat in [dense, *small]:
        eliminated.clear()
        rank = mat.rank()
        assert len(eliminated) == 1 and eliminated[0] is mat
        assert rank == mat.rref()[1]


def test_verify_of_a_tensor_family_eliminates_nothing(eliminated):
    family = construct_tensor_family(3, 3, FieldSpec(3))
    assert family.ell == 27
    eliminated.clear()  # construction's own eliminations
    assert family.verify().ok
    assert eliminated == []


# ---------------------------------------------------------------- _ranks

RANKS_PRIMES = (2, 3, 65537, 2**31 - 1)


def sparse_rows(p, rows, cols, rng) -> np.ndarray:
    """1 or 2 nonzeros in each row, at random columns."""
    values = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        at = rng.choice(cols, int(rng.integers(1, 3)), replace=False)
        values[i, at] = rng.integers(1, p, size=at.size)
    return values


def assert_ranks_are_rref_ranks(arrays, spec):
    expected = [Matrix._adopt(spec, a.copy()).rref()[1] for a in arrays]
    ranks = _ranks(arrays, spec)
    assert ranks == expected and all(type(rank) is int for rank in ranks)


@pytest.mark.parametrize("p", RANKS_PRIMES)
def test_batched_ranks_of_sparse_stacks_match_rref(p, eliminated):
    rng, spec = np.random.default_rng(p % 997), FieldSpec(p)
    cored = 0
    for rows, cols in ((9, 9), (12, 7), (6, 15), (5, 5)):
        for size in (1, 2, 7):
            arrays = [sparse_rows(p, rows, cols, rng) for _ in range(size)]
            eliminated.clear()
            assert_ranks_are_rref_ranks(arrays, spec)
            # an elimination of another shape is the core some array kept
            cored += any(m.shape != (rows, cols) for m in eliminated)
    assert cored  # the seeded stacks reach the core as well as the full peel


@pytest.mark.parametrize("p", RANKS_PRIMES)
def test_batched_ranks_of_dense_stacks_go_to_rref_unpeeled(p, eliminated):
    rng, spec = np.random.default_rng(p % 991), FieldSpec(p)
    for shape in ((6, 6), (8, 5), (3, 9)):
        arrays = [rng.integers(0, p, size=shape) for _ in range(4)]
        arrays[1][:, 0] = arrays[1][:, 1]  # one rank-deficient member
        expected = [Matrix._adopt(spec, a).rref()[1] for a in arrays]
        eliminated.clear()
        assert _ranks(arrays, spec) == expected
        # one elimination per array, of the whole array
        assert [m.shape for m in eliminated] == [shape] * len(arrays)


@pytest.mark.parametrize("p", RANKS_PRIMES)
def test_batched_ranks_leave_an_unpeelable_core_to_rref(p, eliminated):
    rng, spec = np.random.default_rng(p % 983), FieldSpec(p)
    arrays = []
    for _ in range(3):
        # an all-nonzero 3 x 3 block among nine singleton rows, permuted
        values = np.zeros((12, 12), dtype=np.int64)
        values[:3, :3] = rng.integers(1, p, size=(3, 3))
        values[np.arange(3, 12), np.arange(3, 12)] = rng.integers(1, p, size=9)
        arrays.append(values[rng.permutation(12)][:, rng.permutation(12)])
    arrays.append(sparse_rows(p, 12, 12, rng))
    eliminated.clear()
    ranks = _ranks(arrays, spec)
    assert [m.shape for m in eliminated[:3]] == [(3, 3)] * 3
    assert ranks == [Matrix._adopt(spec, a).rref()[1] for a in arrays]


@pytest.mark.parametrize("p", RANKS_PRIMES)
def test_batched_ranks_of_zero_empty_and_single_stacks(p):
    rng, spec = np.random.default_rng(p % 977), FieldSpec(p)
    assert _ranks([], spec) == []
    assert _ranks([np.zeros((7, 9), dtype=np.int64)] * 3, spec) == [0, 0, 0]
    for shape in ((0, 0), (0, 6), (6, 0)):
        assert _ranks([np.zeros(shape, dtype=np.int64)] * 2, spec) == [0, 0]
    # zero arrays among sparse ones, and a stack of one
    arrays = [sparse_rows(p, 8, 11, rng), np.zeros((8, 11), dtype=np.int64),
              sparse_rows(p, 8, 11, rng)]
    assert_ranks_are_rref_ranks(arrays, spec)
    assert_ranks_are_rref_ranks(arrays[:1], spec)
    assert _ranks([arrays[0]], spec) == [Matrix._adopt(spec, arrays[0]).rank()]


def test_no_masked_arrays_are_imported(tmp_path):
    # np.unique imports numpy.ma on first use, which costs about 1.7 MiB of
    # peak RSS; no command of the benchmarked paths may pull it in
    script = """
import contextlib, io, json, random, sys
from msrlab import cli
from msrlab.repair import random_constant_instance
code, scheme = random_constant_instance(6, 4, 16, random.Random(0))
json.dump(code.to_json_dict(), open("code.json", "w"))
json.dump(scheme.to_json_dict(), open("scheme.json", "w"))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["sweep"]) == 0
    assert cli.main(["construct", "--r", "2", "--m", "4", "--p", "3", "--out", "f.json"]) == 0
    assert cli.main(["decay", "--in", "f.json", "--order", "random:7"]) == 0
    assert cli.main(["extract", "--code", "code.json", "--scheme", "scheme.json"]) == 0
print("numpy.ma" in sys.modules)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, timeout=120,
                         check=True)
    assert out.stdout.split() == ["False"]
