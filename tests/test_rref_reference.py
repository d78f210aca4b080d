"""Matrix.rref against the plain per-pivot loop it replaced.

`reference_rref` below is that loop verbatim: each pivot subtracts an outer
product from the whole matrix and reduces the whole matrix mod p. The RREF
of a row space is unique, so the column-restricted, row-sparse pivot steps
must return byte-identical (matrix, rank, pivots) on every input: dense,
sparse Kronecker maps I (x) F (x) I, rank-deficient and zero, over small
fields and at p = 2**31 - 1, where update products come near 2**62.
"""

from __future__ import annotations

import numpy as np
import pytest

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
