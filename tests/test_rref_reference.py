"""Matrix.rref against the plain per-pivot loop it replaced.

`reference_rref` below is that loop verbatim: each pivot subtracts an outer
product from the whole matrix and reduces the whole matrix mod p. The RREF
of a row space is unique, so the column-restricted, row-sparse pivot steps
must return byte-identical (matrix, rank, pivots) on every input: dense,
sparse Kronecker maps I (x) F (x) I, rank-deficient and zero, over small
fields and at p = 2**31 - 1, where update products come near 2**62.
Sparse matrices first peel their singleton rows, so the inputs at the end
also reach every way a peel can go: a cascade, singletons sharing a column,
a complete peel, a dense remainder, zero rows, and both edges of the gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from msrlab import matrix
from msrlab.field import FieldSpec
from msrlab.matrix import Matrix

PRIMES = (3, 7, 2**31 - 1)


def reference_rref(self):
    """The per-pivot loop Matrix.rref replaced, kept verbatim."""
    p = self.spec.p
    a = self._a.copy()
    n_rows, n_cols = a.shape
    pivots: list[int] = []
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        pivot_row = rank + int(nz[0])
        if pivot_row != rank:
            a[[rank, pivot_row]] = a[[pivot_row, rank]]
        inv = pow(int(a[rank, col]), -1, p)
        a[rank] = a[rank] * inv % p
        others = a[:, col].copy()
        others[rank] = 0
        if np.any(others):
            a -= np.outer(others, a[rank])
            a %= p
        pivots.append(col)
        rank += 1
    return Matrix._adopt(self.spec, a), rank, tuple(pivots)


def assert_same_rref(mat: Matrix):
    reduced, rank, pivots = mat.rref()
    expected, expected_rank, expected_pivots = reference_rref(mat)
    assert (rank, pivots) == (expected_rank, expected_pivots)
    assert reduced._a.dtype == expected._a.dtype and reduced.shape == expected.shape
    assert reduced._a.tobytes() == expected._a.tobytes()


def dense(p, rows, cols, rng):
    return Matrix._adopt(FieldSpec(p), rng.integers(0, p, (rows, cols), dtype=np.int64))


def low_rank(p, rows, cols, rank, rng):
    """A rows x cols product of random rows x rank and rank x cols factors."""
    left, right = dense(p, rows, rank, rng), dense(p, rank, cols, rng)
    return left @ right


def kron_map(p, before, size, after, rng):
    """I_before (x) F (x) I_after with F a random size x size matrix: the
    shape of the slot maps that verify ranks, about 1/size dense."""
    spec = FieldSpec(p)
    block = dense(p, size, size, rng)
    return Matrix.identity(spec, before).kron(block).kron(Matrix.identity(spec, after))


@pytest.mark.parametrize("p", PRIMES)
def test_small_and_medium_shapes_match_the_loop(p):
    rng = np.random.default_rng(p % 1000)
    shapes = ((1, 1), (1, 5), (5, 1), (2, 4), (4, 6), (8, 16), (16, 24), (27, 81), (64, 256))
    for rows, cols in shapes:
        assert_same_rref(dense(p, rows, cols, rng))
        assert_same_rref(low_rank(p, rows, cols, max(1, min(rows, cols) // 2), rng))
    assert_same_rref(Matrix.zeros(FieldSpec(p), 5, 7))
    assert_same_rref(Matrix.zeros(FieldSpec(p), 0, 7))
    assert_same_rref(Matrix.zeros(FieldSpec(p), 7, 0))


@pytest.mark.parametrize("p", PRIMES)
def test_sparse_kronecker_maps_match_the_loop(p):
    rng = np.random.default_rng(7)
    # the 81 x 81 maps of the ell = 81 sweep, and a 144 x 144 one
    for before, size, after in ((1, 3, 27), (9, 3, 3), (27, 3, 1), (3, 3, 9), (4, 4, 9)):
        assert_same_rref(kron_map(p, before, size, after, rng))
    # singular blocks give rank-deficient sparse maps
    singular = Matrix(FieldSpec(p), [[1, 2, 0], [2, 4, 0], [0, 1, 1]])
    identity = Matrix.identity(FieldSpec(p), 9)
    assert_same_rref(identity.kron(singular).kron(Matrix.identity(FieldSpec(p), 5)))


# Sparse matrices: rref peels singleton rows before it eliminates what is left.
PEEL_PRIMES = (2, 3, 5, 2**31 - 1)


@pytest.fixture
def eliminated(monkeypatch):
    """The shape of every array the per-pivot loop reduces while the test runs."""
    shapes = []
    real = matrix._eliminate
    monkeypatch.setattr(matrix, "_eliminate", lambda a, p: shapes.append(a.shape) or real(a, p))
    return shapes


def shuffled(p, values, rng) -> Matrix:
    """values over GF(p), its rows and columns in a random order."""
    rows, cols = values.shape
    return Matrix._adopt(FieldSpec(p), values[rng.permutation(rows)][:, rng.permutation(cols)])


def nonzeros(p, size, rng):
    """Random nonzero residues mod p."""
    return rng.integers(1, p, size=size, dtype=np.int64) if p > 2 else np.ones(size, np.int64)


@pytest.mark.parametrize("p", PEEL_PRIMES)
def test_a_cascade_peels_singletons_that_appear_as_columns_go(p, eliminated):
    rng = np.random.default_rng(1)
    for _ in range(10):
        # row 0 is a singleton at column 0; row i (1..5) holds columns i-1 and
        # i, so it becomes one when column i-1 goes; rows 6-7 hold columns
        # 6-9 and are left: 15 nonzeros < 2 * 10
        values = np.zeros((8, 10), dtype=np.int64)
        values[0, 0] = nonzeros(p, 1, rng)[0]
        for i in range(1, 6):
            values[i, [i - 1, i]] = nonzeros(p, 2, rng)
        values[6, [6, 7]] = nonzeros(p, 2, rng)
        values[7, [8, 9]] = nonzeros(p, 2, rng)
        eliminated.clear()
        assert_same_rref(shuffled(p, values, rng))
        assert eliminated[0] == (2, 4)


@pytest.mark.parametrize("p", PEEL_PRIMES)
def test_singleton_rows_sharing_a_column_give_one_pivot(p, eliminated):
    rng = np.random.default_rng(2)
    for _ in range(10):
        # rows 0-2 are singletons in column 1; rows 3-5 hold two nonzeros each,
        # one of them in column 1 for row 3
        values = np.zeros((6, 7), dtype=np.int64)
        values[:3, 1] = nonzeros(p, 3, rng)
        values[3, [1, 4]] = nonzeros(p, 2, rng)
        values[4, [2, 5]] = nonzeros(p, 2, rng)
        values[5, [5, 6]] = nonzeros(p, 2, rng)
        mat = shuffled(p, values, rng)
        eliminated.clear()
        assert_same_rref(mat)
        # row 3 peels once column 1 goes; rows 4-5 are left at columns 2, 5, 6
        assert eliminated[0] == (2, 3)
        assert mat.rref()[1] == 4


@pytest.mark.parametrize("p", PEEL_PRIMES)
def test_a_matrix_that_peels_completely_eliminates_nothing_left(p, eliminated):
    rng = np.random.default_rng(3)
    for _ in range(10):
        # an upper bidiagonal 9 x 9 whose last row is a singleton, and three
        # zero rows: the peel runs up from the bottom and takes every row
        values = np.zeros((12, 9), dtype=np.int64)
        values[np.arange(9), np.arange(9)] = nonzeros(p, 9, rng)
        values[np.arange(8), np.arange(1, 9)] = nonzeros(p, 8, rng)
        mat = shuffled(p, values, rng)
        eliminated.clear()
        assert_same_rref(mat)
        assert eliminated[0] == (0, 0)
        reduced, rank, pivots = mat.rref()
        assert rank == 9 and pivots == tuple(range(9))
        assert reduced == Matrix.identity(FieldSpec(p), 12).columns(range(9))
        # five singletons peel in one pass, and the row over two of their
        # columns is left zero without ever being a singleton
        values = np.zeros((6, 6), dtype=np.int64)
        values[np.arange(5), np.arange(5)] = nonzeros(p, 5, rng)
        values[5, [0, 1]] = nonzeros(p, 2, rng)
        eliminated.clear()
        assert_same_rref(shuffled(p, values, rng))
        assert eliminated == [(0, 0)]


@pytest.mark.parametrize("p", PEEL_PRIMES)
def test_a_peel_leaves_a_dense_remainder_to_the_loop(p, eliminated):
    rng = np.random.default_rng(4)
    for _ in range(10):
        # a dense 3 x 4 block at columns 0-3 and singleton rows at columns 0
        # and 4-11: 12 + 9 nonzeros < 2 * 13, and the block loses column 0
        values = np.zeros((13, 12), dtype=np.int64)
        values[:3, :4] = nonzeros(p, (3, 4), rng)
        values[3, 0] = nonzeros(p, 1, rng)[0]
        values[np.arange(4, 12), np.arange(4, 12)] = nonzeros(p, 8, rng)
        mat = shuffled(p, values, rng)
        eliminated.clear()
        assert_same_rref(mat)
        # the block's rows at its columns 1-3
        assert eliminated[0] == (3, 3)


@pytest.mark.parametrize("p", PEEL_PRIMES)
def test_zero_rows_and_random_sparse_matrices_match_the_loop(p, eliminated):
    rng = np.random.default_rng(5)
    spec = FieldSpec(p)
    assert_same_rref(Matrix.zeros(spec, 6, 6))
    assert eliminated == [(6, 6)]  # gated in, but there is no row to peel
    peeled = 0
    for _ in range(200):
        rows, cols = (int(n) for n in rng.integers(5, 30, size=2))
        values = np.zeros((rows, cols), dtype=np.int64)
        count = int(rng.integers(0, 2 * max(rows, cols)))
        values[rng.integers(rows, size=count), rng.integers(cols, size=count)] = nonzeros(
            p, count, rng)
        values[rng.random(rows) < 0.2] = 0
        eliminated.clear()
        assert_same_rref(Matrix._adopt(spec, values))
        peeled += eliminated[0] != values.shape
    assert peeled > 100


@pytest.mark.parametrize("p", PEEL_PRIMES)
def test_the_gate_leaves_small_and_dense_matrices_unpeeled(p, eliminated):
    rng = np.random.default_rng(6)
    spec = FieldSpec(p)
    # four rows, however sparse: one singleton row each
    narrow = np.zeros((4, 12), dtype=np.int64)
    narrow[np.arange(4), [3, 0, 7, 11]] = nonzeros(p, 4, rng)
    # 2 * max(shape) nonzeros, one row a singleton
    dense = np.zeros((6, 6), dtype=np.int64)
    dense[0, 2] = nonzeros(p, 1, rng)[0]
    dense[1:, :] = np.eye(5, 6, dtype=np.int64) + np.eye(5, 6, 1, dtype=np.int64)
    dense[1, 5] = 1
    assert np.count_nonzero(dense) == 12
    for values in (narrow, narrow.T.copy(), dense, nonzeros(p, (9, 9), rng)):
        eliminated.clear()
        assert_same_rref(Matrix._adopt(spec, values))
        assert eliminated == [values.shape]
    # one nonzero fewer and it peels
    sparser = dense.copy()
    sparser[1, 5] = 0
    eliminated.clear()
    assert_same_rref(Matrix._adopt(spec, sparser))
    assert eliminated[0][0] < 6
