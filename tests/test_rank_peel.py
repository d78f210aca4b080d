"""Matrix.rank, which peels singleton rows and columns before it eliminates,
against rref()[1], the rank of the one elimination kernel.

A row whose one nonzero is in column c adds 1 to the rank per distinct c, and
a column whose one nonzero is in row i adds 1 per distinct i; zero rows and
columns add nothing. The inputs below reach every case: empty shapes, zero
rows and columns, several singletons sharing one column or one row, a peel
that stops with a dense remainder for rref, and dense matrices that are not
peeled at all, over GF(2), GF(3), GF(5) and GF(2**31 - 1).
"""

from __future__ import annotations

import numpy as np
import pytest

from msrlab.field import FieldSpec
from msrlab.matrix import Matrix
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
    # rows 0-2 are singletons in column 1 and count once; the 3 x 4 rest
    # (rows 3-5 without column 1) goes to rref
    mat = Matrix(spec, [[0, 1, 0, 0, 0], [0, top, 0, 0, 0], [0, 1, 0, 0, 0],
                        [1, 0, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1]])
    assert mat.rank() == 4
    assert [m.shape for m in eliminated] == [(3, 4)]
    assert mat.rref()[1] == 4
    # no singleton row; columns 0-2 are singletons in row 0 and count once,
    # as do columns 5 and 7 in rows 3 and 4; rows 1-2 at columns 3, 4 and 6
    # are left, transposed
    mat = Matrix(spec, [[1, 1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0],
                        [0, 0, 0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 1, 0],
                        [0, 0, 0, 0, 0, 0, 1, 1]])
    eliminated.clear()
    assert mat.rank() == 4
    assert [m.shape for m in eliminated] == [(3, 2)]
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
