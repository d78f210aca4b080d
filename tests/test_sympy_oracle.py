"""Elimination, rank, kernel and inverse against an independent oracle:
sympy's DomainMatrix over GF(p), which shares no code with msrlab.matrix."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("sympy")

from sympy import GF  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError  # noqa: E402

from msrlab.errors import Singular  # noqa: E402
from msrlab.field import FieldSpec  # noqa: E402
from msrlab.matrix import Matrix  # noqa: E402

PRIMES = (2, 3, 7, 2**31 - 1)


@st.composite
def matrices(draw, square=False):
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))
    # small entries make dependent rows likely; large ones test the reduction
    entry = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix(FieldSpec(p), data)


def to_sympy(mat: Matrix) -> DomainMatrix:
    field = GF(mat.spec.p, symmetric=False)
    return DomainMatrix([[field(v) for v in row] for row in mat.to_lists()], mat.shape, field)


def to_ints(dm: DomainMatrix) -> list[list[int]]:
    return [[int(v) for v in row] for row in dm.to_list()]


def nonzero_rows(rows: list[list[int]]) -> list[list[int]]:
    return [row for row in rows if any(row)]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_rank_and_pivots_match_sympy(mat):
    reduced, rank, pivots = mat.rref()
    expected, expected_pivots = to_sympy(mat).rref()
    assert reduced.to_lists() == to_ints(expected)
    assert pivots == tuple(expected_pivots)
    assert rank == mat.rank() == to_sympy(mat).rank()


@st.composite
def threshold_matrices(draw):
    """Matrices whose columns each hold rows//4 or rows//4 + 1 nonzeros, so
    the first pivot steps update just at or just above a quarter of the
    rows: the two sides of the switch between the row-sparse and the full
    update in the base case."""
    p = draw(st.sampled_from((3, 7, 2**31 - 1)))
    rows = draw(st.integers(4, 13))
    cols = draw(st.integers(1, 16))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    data = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        for i in rng.sample(range(rows), rows // 4 + draw(st.integers(0, 1))):
            data[i][j] = rng.randrange(1, p)
    return Matrix(FieldSpec(p), data)


@settings(max_examples=150, deadline=None)
@given(threshold_matrices())
def test_rref_matches_sympy_at_the_row_sparse_threshold(mat):
    reduced, rank, pivots = mat.rref()
    expected, expected_pivots = to_sympy(mat).rref()
    assert reduced.to_lists() == to_ints(expected)
    assert pivots == tuple(expected_pivots)
    assert rank == len(expected_pivots)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_spans_the_sympy_nullspace(mat):
    kern = mat.kernel()
    expected = to_sympy(mat).nullspace()
    assert kern.rows == expected.shape[0] == mat.cols - to_sympy(mat).rank()
    if kern.rows:
        # equal row spaces have equal reduced forms, here taken by sympy
        assert nonzero_rows(to_ints(to_sympy(kern).rref()[0])) == nonzero_rows(
            to_ints(expected.rref()[0])
        )


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_invert_matches_sympy(mat):
    try:
        expected = to_ints(to_sympy(mat).inv())
    except DMNonInvertibleMatrixError:
        with pytest.raises(Singular):
            mat.invert()
    else:
        assert mat.invert().to_lists() == expected


@st.composite
def product_operands(draw):
    """Two matrices over GF(p) for p in 3, 11, 257, 2**31 - 1, with shapes on
    both sides of the 4096 multiply-adds where products move to float32,
    inner sizes on both sides of the float32 bound at p = 257 (inner < 256),
    and some empty shapes."""
    p = draw(st.sampled_from((3, 11, 257, 2**31 - 1)))
    rows, inner, cols = draw(
        st.one_of(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
            st.tuples(st.integers(16, 20), st.integers(12, 280), st.integers(16, 20)),
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # one seed shrinks fast

    def operand(n, m):
        if n == 0:
            return Matrix.zeros(FieldSpec(p), 0, m)
        return Matrix(FieldSpec(p), [[rng.randrange(p) for _ in range(m)] for _ in range(n)])

    return operand(rows, inner), operand(inner, cols)


@settings(max_examples=60, deadline=None)
@given(product_operands())
def test_matmul_matches_sympy(operands):
    a, b = operands
    assert (a @ b).to_lists() == to_ints(to_sympy(a) * to_sympy(b))
