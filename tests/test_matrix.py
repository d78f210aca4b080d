"""Exact matrix arithmetic and canonical forms."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrlab import matrix as matrix_module
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



def test_row_and_column_index_like_entries():
    mat = Matrix(GF5, [[1, 2, 3], [4, 0, 1]])
    assert mat.row(-1) == mat.row(1) == Matrix(GF5, [[4, 0, 1]])
    assert mat.row(-2) == mat.row(0)
    assert mat.column(-1) == mat.column(2) == Matrix(GF5, [[3], [1]])
    assert mat.column(-3) == mat.column(0)
    assert mat.row(-1).to_lists()[0][-1] == mat[-1, -1].value
    for index in (2, 5, -3):
        with pytest.raises(IndexError):
            mat.row(index)
    for index in (3, -4):
        with pytest.raises(IndexError):
            mat.column(index)

def test_stacking():
    a = Matrix(GF3, [[1, 2]])
    b = Matrix(GF3, [[0, 1]])
    assert Matrix.vstack([a, b]).to_lists() == [[1, 2], [0, 1]]
    assert Matrix.hstack([a, b]).to_lists() == [[1, 2, 0, 1]]
    with pytest.raises(ShapeMismatch):
        Matrix.vstack([a, Matrix(GF3, [[1], [2]])])
    tall = Matrix(GF3, [[1], [2]])
    for stack, name, mismatch in ((Matrix.vstack, "vstack", "widths differ: 1 vs 2"),
                                  (Matrix.hstack, "hstack", "heights differ: 2 vs 1")):
        with pytest.raises(ShapeMismatch, match=f"^{name} of nothing$"):
            stack([])
        with pytest.raises(MixedFields, match=f"^{name} across field specs$"):
            stack([a, Matrix(GF5, [[1, 2]])])
        with pytest.raises(ShapeMismatch, match=f"^{name} {mismatch}$"):
            stack([a, tall])


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
    # inner 70,000 > 2**16: each 16-bit limb product runs in three chunks of
    # at most 2**15 terms, and unreduced chunks or chunks four times as long
    # would overflow on the all-(p-1) operands
    a = random_matrix(BIG, 1, 70_000, rng)
    b = random_matrix(BIG, 70_000, 1, rng)
    assert (a @ b).to_lists() == python_matmul(a.to_lists(), b.to_lists(), p)
    worst = Matrix(BIG, [[p - 1] * 70_000])
    assert (worst @ worst.transpose()).to_lists() == [[(70_000 * (p - 1) ** 2) % p]]


PRODUCT_PRIMES = (3, 11, 257, 2**31 - 1)


@st.composite
def product_operands(draw):
    """Two matrices over one of PRODUCT_PRIMES. Shapes fall on both sides of
    the 4096 multiply-adds where products move to float32, inner sizes on
    both sides of the float32 bound at p = 257 (inner < 256), and some
    shapes are empty. Entries are random or all near p - 1."""
    p = draw(st.sampled_from(PRODUCT_PRIMES))
    small = st.integers(0, 8)
    rows, inner, cols = draw(
        st.one_of(
            st.tuples(small, small, small),
            st.tuples(st.integers(12, 24), st.integers(12, 300), st.integers(12, 24)),
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # one seed shrinks fast
    top = draw(st.booleans())

    def operand(n, m):
        entry = (lambda: p - 1 - rng.randrange(2)) if top else (lambda: rng.randrange(p))
        if n == 0:
            return Matrix.zeros(FieldSpec(p), 0, m)
        return Matrix(FieldSpec(p), [[entry() for _ in range(m)] for _ in range(n)])

    return operand(rows, inner), operand(inner, cols)


@settings(max_examples=200, deadline=None)
@given(product_operands())
def test_matmul_matches_python_ints_on_both_paths(operands):
    a, b = operands
    p = a.spec.p
    prod = a @ b
    expected = python_matmul(a.to_lists(), b.to_lists(), p) if a.cols else [[0] * b.cols] * a.rows
    assert prod.shape == (a.rows, b.cols)
    assert prod.to_lists() == expected
    assert prod._a.dtype == np.int64
    assert np.all((prod._a >= 0) & (prod._a < p))
    assert not prod._a.flags.writeable
    assert not np.shares_memory(prod._a, a._a)
    assert not np.shares_memory(prod._a, b._a)


def float_conversions(monkeypatch):
    """A list that grows whenever matrix.py reaches for np.float32, i.e.
    whenever a product takes the float path."""
    seen = []

    class NumpySpy:
        def __getattr__(self, name):
            if name == "float32":
                seen.append(name)
            return getattr(np, name)

    monkeypatch.setattr(matrix_module, "np", NumpySpy())
    return seen


def test_float_bound_is_pinned_at_p_257(monkeypatch):
    # Every dot product below is inner * 255**2. The float path needs
    # inner * 256**2 < 2**24, so inner = 255 takes it and inner = 259 must
    # not: there float32 returns 16,841,476 for the exact 16,841,475.
    spec = FieldSpec(257)
    wide = np.full((8, 259), 255, dtype=np.float32)
    assert int((wide @ wide.T)[0, 0]) == 16_841_476 != 259 * 255**2
    conversions = float_conversions(monkeypatch)
    for inner, float_path in ((255, True), (259, False)):
        a = Matrix(spec, [[255] * inner] * 8)
        conversions.clear()
        assert (a @ a.transpose()).to_lists() == [[inner * 255**2 % 257] * 8] * 8
        assert bool(conversions) == float_path


def test_float_path_needs_4096_multiply_adds_and_a_small_p(monkeypatch):
    rng = random.Random(7)
    conversions = float_conversions(monkeypatch)
    # 8 x 16 x 16 is 2,048 multiply-adds; 16 x 16 x 16 is 4,096
    for spec, rows, float_path in ((GF3, 8, False), (BIG, 16, False), (GF3, 16, True)):
        a = random_matrix(spec, rows, 16, rng)
        b = random_matrix(spec, 16, 16, rng)
        conversions.clear()
        assert (a @ b).to_lists() == python_matmul(a.to_lists(), b.to_lists(), spec.p)
        assert bool(conversions) == float_path


def test_empty_products():
    for rows, inner, cols in ((0, 5, 3), (3, 0, 4), (2, 3, 0), (0, 0, 0), (0, 80, 80), (80, 0, 80)):
        a = Matrix.zeros(GF5, rows, inner)
        b = Matrix.zeros(GF5, inner, cols)
        assert a @ b == Matrix.zeros(GF5, rows, cols)


def float_reduced(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p through _float_product's reduction: x @ [[1]] in float32."""
    return matrix_module._float_product(x[:, None], np.ones((1, 1), np.float32), p)[:, 0]


def test_float_reduction_is_exact_below_2_24():
    # every integer the float32 carrier can hold at p = 3, and the top 2**20
    # below 2**24 at p = 2, 5, 449 and 4093, the largest prime with
    # (p-1)**2 < 2**24, where x/p comes closest to rounding up to q + 1
    cases = [(3, start, 2**22) for start in range(0, 2**24, 2**22)]
    cases += [(p, 2**24 - 2**20, 2**20) for p in (2, 5, 449, 4093)]
    for p, start, count in cases:
        x = np.arange(start, start + count, dtype=np.int64)
        got = float_reduced(x.astype(np.float32), p)
        assert got.dtype == np.float32
        assert np.array_equal(got.astype(np.int64), x % p)


@pytest.mark.parametrize("p", [257, 449, 457, 4093])
def test_float_product_is_exact_up_to_its_bound(monkeypatch, p):
    # all-(p-1) operands reach inner * (p-1)**2, the largest dot product: the
    # kernel is exact at the largest inner size below 2**24, and _product
    # takes it there and int64 one step above
    top = (2**24 - 1) // (p - 1) ** 2
    conversions = float_conversions(monkeypatch)
    for inner in (top, top + 1):  # a 2-D left operand, then a stacked one
        a = np.full((64, inner) if inner == top else (2, 64, inner), p - 1, dtype=np.int64)
        b = np.full((2, inner, 64) if inner == top else (inner, 64), p - 1, dtype=np.int64)
        want = np.full((2, 64, 64), inner * (p - 1) ** 2 % p)
        if inner == top:
            got = matrix_module._float_product(a.astype(np.float32), b.astype(np.float32), p)
            assert got.dtype == np.float32 and np.array_equal(got, want)
        conversions.clear()
        prod = matrix_module._product(a, b, p)
        assert prod.dtype == np.int64 and np.array_equal(prod, want)
        assert bool(conversions) == (inner == top)
    assert top * (p - 1) ** 2 < 2**24 <= (top + 1) * (p - 1) ** 2


# (batch, rows, inner, cols): below and above 4096 multiply-adds, an empty
# inner dimension, and an inner size that takes three limb blocks at
# p = 2**31 - 1; b of cols None is one 2-D matrix for every slice, and a of
# rows None is one 5 x inner matrix against every slice of b, as verify()
# multiplies its bases by a stack of maps
STACKED_SHAPES = [(3, 8, 16, 8), (3, 16, 16, 16), (2, 40, 3, 40), (4, 6, 20, 3),
                  (2, 3, 0, 4), (3, 16, 16, None), (2, 1, 70_000, 1),
                  (3, None, 16, 8), (2, None, 16, 64), (2, None, 0, 4), (2, None, 70_000, 2)]


@pytest.mark.parametrize("p", [3, 65537, 2**31 - 1])
def test_stacked_product_matches_slices_and_python_ints(monkeypatch, p):
    spec, rng = FieldSpec(p), np.random.default_rng(p)
    paths = set()
    seen = []

    class NumpySpy:  # float32 is reached for only on the float path, zeros on the limb path
        def __getattr__(self, name):
            seen.append(name)
            return getattr(np, name)

    for batch, rows, inner, cols in STACKED_SHAPES:
        a = rng.integers(0, p, (batch, rows, inner) if rows else (5, inner), dtype=np.int64)
        b = rng.integers(0, p, (batch, inner, cols) if cols else (inner, 5), dtype=np.int64)
        a_before, b_before = a.copy(), b.copy()
        monkeypatch.setattr(matrix_module, "np", NumpySpy())
        seen.clear()
        prod = matrix_module._product(a, b, p)
        monkeypatch.setattr(matrix_module, "np", np)
        paths.add(("float32" if "float32" in seen else "limbs" if "zeros" in seen else "int64",
                   a.ndim))
        assert prod.dtype == np.int64 and prod.shape == (batch, a.shape[-2], b.shape[-1])
        assert np.all((prod >= 0) & (prod < p))
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)
        for t in range(batch):
            left = a[t] if a.ndim == 3 else a
            right = b[t] if b.ndim == 3 else b
            whole = Matrix._adopt(spec, left.copy()) @ Matrix._adopt(spec, right.copy())
            assert np.array_equal(prod[t], whole._a)
            want = (python_matmul(left.tolist(), right.tolist(), p) if inner
                    else [[0] * right.shape[1]] * left.shape[0])
            assert prod[t].tolist() == want
    # 3 takes float32 above 4096 multiply-adds, 65537 int64, 2**31 - 1 limbs,
    # each with a stacked and with a 2-D left operand
    assert paths == {(path, ndim) for ndim in (2, 3) for path in {
        3: ("float32", "int64"), 65537: ("int64",), 2**31 - 1: ("limbs", "int64")}[p]}


def test_transpose():
    a = Matrix(GF3, [[1, 2, 0], [0, 1, 1]])
    assert a.transpose().to_lists() == [[1, 0], [2, 1], [0, 1]]
    assert a.transpose().transpose() == a


def test_kron_small():
    a = Matrix(GF3, [[1, 2]])
    b = Matrix(GF3, [[1, 0], [0, 1]])
    assert a.kron(b).to_lists() == [[1, 0, 2, 0], [0, 1, 0, 2]]


@pytest.mark.parametrize("p", [3, 7, 2**31 - 1])
def test_kron_is_numpy_kron_mod_p(p):
    spec = FieldSpec(p)
    rng = random.Random(p)
    def draw(rows, cols):  # p - 1 often, for the largest products
        if rows == 0:
            return Matrix.zeros(spec, 0, cols)
        return Matrix(spec, [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(cols)]
                             for _ in range(rows)])

    shapes = [(1, 1), (1, 4), (3, 1), (2, 3), (0, 3), (3, 0), (0, 0)]
    for a_shape, b_shape in itertools.product(shapes, repeat=2):
        a, b = draw(*a_shape), draw(*b_shape)
        want = np.kron(a._a, b._a) % p
        got = a.kron(b)._a
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


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


def kernel_by_loop(mat):
    """The kernel basis filled entry by entry from the reduced form: a unit
    at each free column, minus the reduced entries at the pivot columns."""
    p = mat.spec.p
    reduced, rank, pivots = mat.rref()
    free = [c for c in range(mat.cols) if c not in set(pivots)]
    basis = [[0] * mat.cols for _ in free]
    for row_idx, f in enumerate(free):
        basis[row_idx][f] = 1
        for i, c in enumerate(pivots):
            basis[row_idx][c] = (-reduced.to_lists()[i][f]) % p
    return basis


def test_kernel_matches_entrywise_construction():
    rng = random.Random(43)
    for spec in (GF2, GF5, BIG):
        for _ in range(25):
            mat = random_matrix(spec, rng.randrange(0, 6), rng.randrange(1, 7), rng)
            assert mat.kernel().to_lists() == kernel_by_loop(mat)
    for mat in (Matrix.zeros(GF5, 3, 4), Matrix.identity(GF5, 4), Matrix.zeros(GF5, 0, 3)):
        assert mat.kernel().to_lists() == kernel_by_loop(mat)


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


def test_singular_invert_eliminates_once(monkeypatch):
    real = Matrix.rref
    eliminated = []
    monkeypatch.setattr(Matrix, "rref", lambda self: eliminated.append(self) or real(self))
    for data, rank in (([[1, 2], [2, 1]], 1), ([[0, 0, 0]] * 3, 0), ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], 2)):
        eliminated.clear()
        with pytest.raises(Singular, match=rf"^matrix of rank {rank} < {len(data)}$"):
            Matrix(GF3, data).invert()
        assert len(eliminated) == 1


def test_solve_left():
    rng = random.Random(61)
    for _ in range(15):
        a = Matrix.vstack(
            [random_invertible(GF5, 3, rng), random_matrix(GF5, rng.randrange(3), 3, rng)]
        )
        x = random_matrix(GF5, 2, a.rows, rng)
        solution = a.solve_left(x @ a)
        assert solution @ a == x @ a


def test_solve_left_rank_deficient():
    # rows 2 and 3 of a depend on rows 0 and 1, so the free variables of
    # X @ a = rhs are X's columns 2 and 3, and they are pinned to zero
    r0, r1 = [1, 2, 0, 3], [0, 1, 4, 1]
    a = Matrix(GF5, [r0, r1, [1, 3, 4, 4], [2, 4, 0, 1]])
    coefficients = [[1, 0], [3, 2], [0, 0], [4, 4]]
    rhs = Matrix(GF5, coefficients) @ Matrix(GF5, [r0, r1])
    solution = a.solve_left(rhs)
    assert solution.to_lists() == [row + [0, 0] for row in coefficients]
    assert solution @ a == rhs


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
    zero = Matrix.zeros(GF5, 0, 3)
    payload = zero.to_json_dict()
    assert payload == {"rows": 0, "cols": 3, "p": 5, "data": []}
    assert Matrix.from_json_dict(payload) == zero


def test_results_are_frozen_and_unshared():
    a = Matrix(GF5, [[1, 2], [3, 4]])
    results = [a @ a, a.rref()[0], a.kernel(), Matrix.vstack([a, a]), Matrix.identity(GF5, 2),
               a.columns([1, 0]), a + a, a.row(0), a.column(1), a.transpose(), a - a, -a, 3 * a,
               a.invert(), a.solve_left(a), Matrix.hstack([a, a])]
    for result in results:
        assert not result._a.flags.writeable
        assert not np.shares_memory(result._a, a._a)
        assert result._a.dtype == np.int64
        assert ((0 <= result._a) & (result._a < 5)).all()
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


GF7 = FieldSpec(7)

# Matrix(GF7, data) and Matrix.from_json_rows(GF7, data) on odd inputs: the
# entries of the result, or the exception type and message, as (init, json).
_TYPE = "matrix entries must be ints or field elements, got "
_JSON = "matrix entries must be integers, got "
_ROWS = "matrix data must be a list of rows"
ODD_INPUTS = [
    ([[True, 1]], (TypeError, _TYPE + "bool"), (BadEntry, _JSON + "True")),
    ([[False]], (TypeError, _TYPE + "bool"), (BadEntry, _JSON + "False")),
    ([[1.0, 2]], (TypeError, _TYPE + "float"), (BadEntry, _JSON + "1.0")),
    ([["3", 1]], (TypeError, _TYPE + "str"), (BadEntry, _JSON + "'3'")),
    ([[None]], (TypeError, _TYPE + "NoneType"), (BadEntry, _JSON + "None")),
    ([[{"a": 1}]], (TypeError, _TYPE + "dict"), (BadEntry, _JSON + "{'a': 1}")),
    ([[[1], 2]], (TypeError, _TYPE + "list"), (BadEntry, _JSON + "[1]")),
    ([[1, 2], [3]], (ShapeMismatch, "rows of unequal length"),
     (ShapeMismatch, "rows of unequal length")),
    ([], (ShapeMismatch, "cannot infer a width from zero rows; use Matrix.zeros"),
     (ShapeMismatch, "cannot infer a width from zero rows; use Matrix.zeros")),
    ([[]], [[]], [[]]),
    ([[2**70, -(2**70)]], [[2, 5]], [[2, 5]]),
    ([[-1, 8, 14]], [[6, 1, 0]], [[6, 1, 0]]),
    ([[np.int64(9), np.int32(-3)]], [[2, 4]], (BadEntry, _JSON + "np.int64(9)")),
    ([[np.uint8(200)]], [[4]], (BadEntry, _JSON + "np.uint8(200)")),
    ([[GF7.element(3), 1]], [[3, 1]], (BadEntry, _JSON + "3 (mod 7)")),
    ([[GF5.element(3)]], (MixedFields, "entry from GF(5) in a GF(7) matrix"),
     (BadEntry, _JSON + "3 (mod 5)")),
    ([(1, 2), (3, 4)], [[1, 2], [3, 4]], (BadEntry, _ROWS)),
    ([[1, 2], (3, 4)], [[1, 2], [3, 4]], (BadEntry, _ROWS)),
    ("ab", (TypeError, _TYPE + "str"), (BadEntry, _ROWS)),
    (None, (TypeError, "'NoneType' object is not iterable"), (BadEntry, _ROWS)),
    ([[1, 2], None], (TypeError, "'NoneType' object is not iterable"), (BadEntry, _ROWS)),
]


@pytest.mark.parametrize("data, via_init, via_json", ODD_INPUTS)
def test_odd_entries_keep_their_values_and_errors(data, via_init, via_json):
    for build, expected in ((Matrix, via_init), (Matrix.from_json_rows, via_json)):
        if isinstance(expected, tuple):
            kind, message = expected
            with pytest.raises(kind) as caught:
                build(GF7, data)
            assert type(caught.value) is kind and str(caught.value) == message
        else:
            assert build(GF7, data).to_lists() == expected
