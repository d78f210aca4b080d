"""Exact matrix arithmetic and canonical forms."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrlab.errors import BadEntry, MixedFields, ShapeMismatch, Singular
from msrlab.field import FieldSpec
from msrlab.matrix import Matrix

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
BIG = FieldSpec(2**31 - 1)


def random_matrix(spec, rows, cols, rng):
    if rows == 0:
        return Matrix.zeros(spec, 0, cols)
    return Matrix(spec, [[rng.randrange(spec.p) for _ in range(cols)] for _ in range(rows)])


def random_invertible(spec, size, rng):
    while True:
        candidate = random_matrix(spec, size, size, rng)
        if candidate.rank() == size:
            return candidate


def python_matmul(a, b, p):
    """Reference product on plain Python ints (no overflow possible)."""
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) % p for j in range(cols)]
        for i in range(rows)
    ]


def span_set(mat):
    """Every vector in the row space, as a frozenset of tuples. Brute force."""
    p, rows = mat.spec.p, mat.to_lists()
    vectors = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        vec = [0] * mat.cols
        for c, row in zip(coeffs, rows):
            for j, entry in enumerate(row):
                vec[j] = (vec[j] + c * entry) % p
        vectors.add(tuple(vec))
    return frozenset(vectors)


# ---------------------------------------------------------------- shape

def test_constructor_validation():
    with pytest.raises(ShapeMismatch):
        Matrix(GF3, [])
    with pytest.raises(ShapeMismatch):
        Matrix(GF3, [[1, 2], [3]])
    zero = Matrix.zeros(GF3, 0, 4)
    assert zero.shape == (0, 4)


def test_basic_constructors():
    eye = Matrix.identity(GF3, 3)
    assert eye.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert Matrix.row_vector(GF3, [4, 5]).to_lists() == [[1, 2]]
    assert Matrix.column_vector(GF3, [4, 5]).to_lists() == [[1], [2]]
    assert Matrix.zeros(GF3, 2, 3).to_lists() == [[0, 0, 0], [0, 0, 0]]


def test_entry_row_column_access():
    mat = Matrix(GF5, [[1, 2, 3], [4, 0, 1]])
    assert mat[0, 1].value == 2
    assert mat[1, 0].value == 4
    assert mat.row(1).to_lists() == [[4, 0, 1]]
    assert mat.column(2).to_lists() == [[3], [1]]
    assert mat.column(2).column_values() == (3, 1)


def test_stacking():
    a = Matrix(GF3, [[1, 2]])
    b = Matrix(GF3, [[0, 1]])
    assert Matrix.vstack([a, b]).to_lists() == [[1, 2], [0, 1]]
    assert Matrix.hstack([a, b]).to_lists() == [[1, 2, 0, 1]]
    with pytest.raises(ShapeMismatch):
        Matrix.vstack([a, Matrix(GF3, [[1], [2]])])


def test_equality_and_hash():
    a = Matrix(GF3, [[1, 2], [0, 1]])
    b = Matrix(GF3, [[4, 5], [3, 4]])  # same after reduction
    assert a == b
    assert hash(a) == hash(b)
    assert a != Matrix(GF5, [[1, 2], [0, 1]])
    assert a != Matrix(GF3, [[1, 2]])


def test_mixed_field_operations_rejected():
    a = Matrix(GF3, [[1]])
    b = Matrix(GF5, [[1]])
    with pytest.raises(MixedFields):
        a + b
    with pytest.raises(MixedFields):
        a @ b


# ---------------------------------------------------------------- arithmetic

def test_add_sub_neg_scale():
    a = Matrix(GF5, [[1, 2], [3, 4]])
    b = Matrix(GF5, [[4, 4], [4, 4]])
    assert (a + b).to_lists() == [[0, 1], [2, 3]]
    assert (a - b).to_lists() == [[2, 3], [4, 0]]
    assert (-a).to_lists() == [[4, 3], [2, 1]]
    assert (a * 3).to_lists() == [[3, 1], [4, 2]]
    assert (3 * a) == a * 3


def test_matmul_small():
    a = Matrix(GF3, [[1, 2], [0, 1]])
    b = Matrix(GF3, [[1, 1], [2, 2]])
    assert (a @ b).to_lists() == [[2, 2], [2, 2]]
    with pytest.raises(ShapeMismatch):
        a @ Matrix(GF3, [[1, 2, 3]])


def test_matmul_never_overflows():
    # (p-1)^2 does not fit a product accumulated naively in int64 across
    # many columns; compare against plain Python ints
    p = BIG.p
    rng = random.Random(99)
    a = random_matrix(BIG, 3, 40, rng)
    b = random_matrix(BIG, 40, 2, rng)
    assert (a @ b).to_lists() == python_matmul(a.to_lists(), b.to_lists(), p)
    worst = Matrix(BIG, [[p - 1] * 50])
    assert (worst @ worst.transpose()).to_lists() == [[(50 * (p - 1) ** 2) % p]]


def test_transpose():
    a = Matrix(GF3, [[1, 2, 0], [0, 1, 1]])
    assert a.transpose().to_lists() == [[1, 0], [2, 1], [0, 1]]
    assert a.transpose().transpose() == a


def test_kron_small():
    a = Matrix(GF3, [[1, 2]])
    b = Matrix(GF3, [[1, 0], [0, 1]])
    assert a.kron(b).to_lists() == [[1, 0, 2, 0], [0, 1, 0, 2]]


def test_kron_mixed_product_rule():
    rng = random.Random(5)
    for _ in range(10):
        a = random_matrix(GF5, 2, 3, rng)
        c = random_matrix(GF5, 3, 2, rng)
        b = random_matrix(GF5, 2, 2, rng)
        d = random_matrix(GF5, 2, 3, rng)
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


# ---------------------------------------------------------------- elimination

def test_rref_canonical_example():
    mat = Matrix(GF3, [[0, 1, 2], [1, 2, 0], [1, 0, 2]])
    reduced, rank, pivots = mat.rref()
    assert rank == 2
    assert pivots == (0, 1)
    assert reduced.to_lists() == [[1, 0, 2], [0, 1, 2], [0, 0, 0]]


def test_rref_is_canonical_under_row_operations():
    rng = random.Random(17)
    for _ in range(40):
        spec = rng.choice((GF2, GF3, GF5))
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = random_matrix(spec, rows, cols, rng)
        scramble = random_invertible(spec, rows, rng)
        assert mat.rref()[0] == (scramble @ mat).rref()[0]


def test_rref_idempotent_and_pivots_increase():
    rng = random.Random(23)
    for _ in range(30):
        mat = random_matrix(GF3, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        reduced, rank, pivots = mat.rref()
        assert reduced.rref()[0] == reduced
        assert list(pivots) == sorted(pivots)
        assert len(pivots) == rank


def test_rref_preserves_row_space():
    rng = random.Random(31)
    for _ in range(20):
        spec = rng.choice((GF2, GF3))
        mat = random_matrix(spec, rng.randrange(1, 4), rng.randrange(1, 4), rng)
        assert span_set(mat) == span_set(mat.rref()[0])


def test_rank():
    assert Matrix.identity(GF3, 4).rank() == 4
    assert Matrix.zeros(GF3, 3, 3).rank() == 0
    assert Matrix(GF3, [[1, 2], [2, 2]]).rank() == 2  # det = -2 = 1
    assert Matrix(GF3, [[1, 2], [2, 1]]).rank() == 1  # second row = 2 * first


def test_kernel_example():
    # [[1, 2]] over GF(3): x + 2y = 0 means x = y
    kern = Matrix(GF3, [[1, 2]]).kernel()
    assert kern.to_lists() == [[1, 1]]


def test_kernel_annihilates_and_rank_nullity():
    rng = random.Random(41)
    for _ in range(30):
        mat = random_matrix(GF5, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        kern = mat.kernel()
        assert kern.rows == mat.cols - mat.rank()
        if kern.rows:
            assert (mat @ kern.transpose()).to_lists() == [
                [0] * kern.rows for _ in range(mat.rows)
            ]
            assert kern.rank() == kern.rows


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_nullity_hypothesis(data):
    mat = Matrix(FieldSpec(7), data)
    assert mat.rank() + mat.kernel().rows == mat.cols


def test_invert():
    mat = Matrix(GF3, [[1, 1], [1, 2]])
    inv = mat.invert()
    assert mat @ inv == Matrix.identity(GF3, 2)
    assert inv @ mat == Matrix.identity(GF3, 2)
    with pytest.raises(Singular):
        Matrix(GF3, [[1, 2], [2, 1]]).invert()
    with pytest.raises(ShapeMismatch):
        Matrix(GF3, [[1, 2]]).invert()


def test_invert_random():
    rng = random.Random(53)
    for _ in range(15):
        size = rng.randrange(1, 5)
        mat = random_invertible(GF5, size, rng)
        assert mat @ mat.invert() == Matrix.identity(GF5, size)


def test_solve_left():
    rng = random.Random(61)
    for _ in range(15):
        a = Matrix.vstack(
            [random_invertible(GF5, 3, rng), random_matrix(GF5, rng.randrange(3), 3, rng)]
        )
        x = random_matrix(GF5, 2, a.rows, rng)
        solution = a.solve_left(x @ a)
        assert solution @ a == x @ a


def test_solve_left_singular():
    a = Matrix(GF3, [[1, 0], [0, 0]])
    with pytest.raises(Singular):
        a.solve_left(Matrix(GF3, [[0, 1]]))  # (0,1) is outside the row space


def test_json_round_trip():
    mat = Matrix(GF5, [[1, 2, 3], [4, 0, 1]])
    payload = mat.to_json_dict()
    assert payload == {"rows": 2, "cols": 3, "p": 5, "data": [[1, 2, 3], [4, 0, 1]]}
    assert Matrix.from_json_dict(payload) == mat
    assert Matrix.from_json_dict(payload, GF5) == mat
    with pytest.raises(MixedFields):
        Matrix.from_json_dict(payload, GF3)
    with pytest.raises(ShapeMismatch):
        Matrix.from_json_dict({"rows": 1, "cols": 2, "p": 5, "data": [[1]]})


def test_results_are_frozen_and_unshared():
    a = Matrix(GF5, [[1, 2], [3, 4]])
    results = [a @ a, a.rref()[0], a.kernel(), Matrix.vstack([a, a]), Matrix.identity(GF5, 2),
               a.columns([1, 0]), a + a, a.row(0)]
    for result in results:
        assert not result._a.flags.writeable
        assert not np.shares_memory(result._a, a._a)
    assert a.columns([1, 0]) == Matrix(GF5, [[2, 1], [4, 3]])


def test_from_json_rows_rejects_non_integers():
    assert Matrix.from_json_rows(GF5, [[1, 7]]) == Matrix(GF5, [[1, 2]])
    for data in ([[1.0, 2]], [["1", 2]], [[True, 2]], [[None, 2]], [1, 2], "12"):
        with pytest.raises(BadEntry):
            Matrix.from_json_rows(GF5, data)
        with pytest.raises(BadEntry):
            Matrix.from_json_dict({"rows": 1, "cols": 2, "p": 5, "data": data})
    with pytest.raises(TypeError):  # library callers keep the TypeError
        Matrix(GF5, [[1.0, 2]])
