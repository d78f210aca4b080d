"""Dense matrices over GF(p) with exact elimination.

Entries live in read-only numpy int64 arrays, reduced mod p. Every product
runs in one kernel, `_product`: `@` wraps it, and verify() feeds it r
members at a time, whose residuals at the free columns are Y @ N^T for
images Y and annihilator bases N (N has 1 at free column f and -H[:, f] at
the pivots). All k members at once cost the sweep about 6% more peak RSS.
A product of at least 4096 multiply-adds whose dot products stay below 2**24
(inner * (p-1)**2 < 2**24) runs in float32 BLAS, which carries those
integers exactly. Every other product runs in int64, the fallback and the
reference: the modulus is capped at 2**31 - 1, so any product of two
residues fits in an int64, and dot products are accumulated in blocks small
enough that no intermediate ever reaches 2**63. When a whole product is
too large for one block, the right factor is split into 16-bit limbs so
that every block still sums at least 2**15 terms. Row reduction always picks
the first nonzero entry in column order, so the reduced form of a given row
space is unique and matrices can be compared entry by entry. A sparse
matrix, at least 5 x 5 with fewer than 2 * max(shape) nonzeros, is peeled
first: `rref` takes each row with a single nonzero, in column c, as the
unit row e_c of its result, and `rank` also drops columns with a single
nonzero. A dense matrix pays one count of its nonzeros for the test.

A Matrix is built in one of two ways only: `Matrix(spec, rows)` from Python
values, which it reduces, or `Matrix._adopt(spec, arr)` over an int64 array
the caller has already reduced mod p, which it freezes without a copy. That
array is fresh, or a read-only view of another Matrix's frozen array: both
stay unchanged for good, and copying a view, such as the d * ell x ell
reshape of decay's maps (255 MB at ell = 81), would only cost memory.
Every operation reduces its own fresh result and adopts it.

Vectors are 1 x n matrices and maps act on them from the right (x -> x @ M)
unless a function says otherwise.
"""

from __future__ import annotations

import reprlib
from typing import Iterable, Sequence

import numpy as np

from .errors import BadEntry, MixedFields, ShapeMismatch, Singular
from .field import FieldElement, FieldSpec, _is_integer


def _coerce_entry(value, spec: FieldSpec) -> int:
    if isinstance(value, FieldElement):
        if value.spec != spec:
            raise MixedFields(f"entry from {value.spec!r} in a {spec!r} matrix")
        return value.value
    if _is_integer(value):
        return int(value) % spec.p
    raise TypeError(f"matrix entries must be ints or field elements, got {type(value).__name__}")


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def loaded(value, kind: type, what: str):
    """A value read from a JSON file, which must be of `kind` (int, list or
    dict; a bool is no int). Anything else raises BadEntry, which the
    command line reports as an input error, not a TypeError traceback."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise BadEntry(f"{what} must be {_JSON_KINDS[kind]}, got {reprlib.repr(value)}")
    return value


def _product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as a fresh int64 array, for int64 arrays reduced mod p,
    2-D or stacked as np.matmul takes them, with a's stack covering b's."""
    inner = a.shape[-1]
    # Largest run of products that cannot overflow when summed.
    step = max(1, (2**62) // ((p - 1) ** 2 + 1))
    if a.size * b.shape[-1] >= 4096 and inner * (p - 1) ** 2 < 2**24:
        # float32 as an exact integer carrier (Dumas, Giorgi, Pernet,
        # ACM TOMS 2008). Entries are residues in [0, p), so each product
        # is at most (p-1)**2 and every partial sum, in any order and
        # with or without FMA, is an integer of at most inner*(p-1)**2
        # < 2**24. float32 holds every integer up to 2**24 exactly, so
        # BLAS returns the exact integer product. Below 4096
        # multiply-adds the int64 product is faster than the conversions.
        prod = np.matmul(a.astype(np.float32), b.astype(np.float32)).astype(np.int64)
        prod %= p  # in place: a second int64 copy would set peak memory
    elif inner <= step:
        prod = np.matmul(a, b)
        prod %= p
    else:
        # b = hi * 2**16 + lo with 16-bit limbs: a term of a limb product
        # is below (p-1) * 2**16 <= 2**47, so each chunk sums at least
        # 2**15 terms, where a whole product may take just one
        step = 2**62 // ((p - 1) * 2**16)
        prod = np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.int64)
        for limb in (b >> 16, b & 0xFFFF):
            prod <<= 16
            for start in range(0, inner, step):
                part = np.matmul(a[..., start : start + step], limb[..., start : start + step, :])
                part %= p
                prod += part
            prod %= p
    return prod


def _sparse(a: np.ndarray) -> bool:
    """Whether a is worth peeling: at least 5 x 5, with fewer than
    2 * max(shape) nonzeros, which leaves some row or column with at most
    one. A dense matrix costs one count. Below 5 rows or columns a peeling
    pass costs about as much as the elimination itself."""
    return min(a.shape) > 4 and np.count_nonzero(a) < 2 * max(a.shape)


def _singleton_rows(ones: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ones, 1 at a matrix's nonzeros and 0 elsewhere: the count of
    nonzeros in each row, and the mask of the columns that hold the one
    nonzero of some row. ones is `(a != 0)` viewed as int8, an eighth of
    an int64 copy; summing the bools themselves would page in numpy loops
    that nothing else here uses, 64 KiB of peak RSS each."""
    in_rows = ones.sum(1)
    return in_rows, ones[in_rows == 1].any(0)


def _peel_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(rows, cols, peeled) after peeling a's singleton rows, or None when
    a has none. A row whose one nonzero is in column c peels c: every such
    row goes, so does column c, and rows left with one nonzero peel in turn.
    rows and cols index the nonzero rows and columns that are left;
    peeled masks the peeled columns."""
    ones = (a != 0).view(np.int8)
    in_rows, hit = _singleton_rows(ones)
    if not hit.any():
        return None
    rows, cols = np.arange(a.shape[0]), np.arange(a.shape[1])
    peeled = np.zeros(a.shape[1], dtype=bool)
    while hit.any():
        peeled[cols[hit]] = True
        rows, cols = rows[in_rows > 1], cols[~hit]
        ones = ones[in_rows > 1][:, ~hit]
        in_rows, hit = _singleton_rows(ones)
    return rows[in_rows > 0], cols[ones.any(0)], peeled


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, int, list[int]]:
    """(a, rank, pivots): a fresh int64 array reduced mod p brought to
    reduced row echelon form in place, by one pivot step per column.

    Every row at or below the current rank is zero left of the current
    column, so a pivot step touches only the columns from it on. When at
    most a quarter of the rows have a nonzero multiplier it updates only
    those rows, otherwise all of them in place: on the benchmark's rref
    inputs 1/8 to 1/2 time the same, and updating only the hit rows at
    every step made repair's many small matrices about 15% slower.
    """
    n_rows, n_cols = a.shape
    pivots: list[int] = []
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        column = a[:, col]
        hit = column.nonzero()[0]
        i = int(hit.searchsorted(rank))
        if i == hit.size:
            continue
        pivot_row = int(hit[i])
        if pivot_row != rank:
            a[[rank, pivot_row], col:] = a[[pivot_row, rank], col:]
        row = a[rank, col:]
        inv = pow(int(column[rank]), -1, p)
        if inv != 1:
            row *= inv
            row %= p
        if hit.size > 1:
            if 4 * hit.size <= n_rows:
                # hit predates the swap: pivot_row is the pivot row
                # itself or now holds the old row `rank`, whose
                # multiplier is zero
                hit = hit[hit != pivot_row]
                a[hit, col:] = (a[hit, col:] - column[hit, None] * row) % p
            else:
                update = column[:, None] * row
                update[rank] = 0
                block = a[:, col:]
                block -= update
                block %= p
        pivots.append(col)
        rank += 1
    return a, rank, pivots


class Matrix:
    """Immutable rows x cols matrix over a fixed FieldSpec."""

    __slots__ = ("spec", "_a")

    def __init__(self, spec: FieldSpec, rows: Sequence[Sequence]):
        p = spec.p
        data = [[v % p if type(v) is int else _coerce_entry(v, spec) for v in row] for row in rows]
        if not data:
            raise ShapeMismatch("cannot infer a width from zero rows; use Matrix.zeros")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ShapeMismatch("rows of unequal length")
        arr = np.array(data, dtype=np.int64).reshape(len(data), width)
        arr.setflags(write=False)
        self.spec = spec
        self._a = arr

    @classmethod
    def _adopt(cls, spec: FieldSpec, arr: np.ndarray) -> Matrix:
        """Matrix over arr itself, an int64 array already reduced mod p: a
        fresh one, or a read-only view of a frozen Matrix array, which no
        one can write through. It is frozen, not copied."""
        arr.setflags(write=False)
        m = object.__new__(cls)
        m.spec = spec
        m._a = arr
        return m

    @classmethod
    def zeros(cls, spec: FieldSpec, rows: int, cols: int) -> Matrix:
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative dimensions")
        return cls._adopt(spec, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> Matrix:
        return cls._adopt(spec, np.eye(n, dtype=np.int64))

    @classmethod
    def row_vector(cls, spec: FieldSpec, values: Iterable) -> Matrix:
        return cls(spec, [list(values)])

    @classmethod
    def column_vector(cls, spec: FieldSpec, values: Iterable) -> Matrix:
        return cls(spec, [[v] for v in values])

    @classmethod
    def vstack(cls, parts: Sequence[Matrix]) -> Matrix:
        return cls._stack(parts, 0, "vstack", "widths")

    @classmethod
    def hstack(cls, parts: Sequence[Matrix]) -> Matrix:
        return cls._stack(parts, 1, "hstack", "heights")

    @classmethod
    def _stack(cls, parts: Sequence[Matrix], axis: int, name: str, sides: str) -> Matrix:
        """The parts joined along axis, which must agree on the other one."""
        if not parts:
            raise ShapeMismatch(f"{name} of nothing")
        spec = parts[0].spec
        size = parts[0].shape[1 - axis]
        for part in parts[1:]:
            if part.spec != spec:
                raise MixedFields(f"{name} across field specs")
            if part.shape[1 - axis] != size:
                raise ShapeMismatch(f"{name} {sides} differ: {part.shape[1 - axis]} vs {size}")
        return cls._adopt(spec, np.concatenate([part._a for part in parts], axis=axis))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def __getitem__(self, key) -> FieldElement:
        i, j = key
        return FieldElement(int(self._a[i, j]), self.spec)

    def row(self, i: int) -> Matrix:
        return Matrix._adopt(self.spec, self._a[i : i + 1].copy())

    def column(self, j: int) -> Matrix:
        return Matrix._adopt(self.spec, self._a[:, j : j + 1].copy())

    def columns(self, indices: Sequence[int]) -> Matrix:
        """The columns at the given indices, in that order."""
        return Matrix._adopt(self.spec, self._a[:, list(indices)])

    def to_lists(self) -> list[list[int]]:
        return self._a.tolist()

    def column_values(self) -> tuple[int, ...]:
        """Entries of a single-column matrix, top to bottom."""
        if self.cols != 1:
            raise ShapeMismatch(f"expected one column, got {self.cols}")
        return tuple(int(v) for v in self._a[:, 0])

    def _same_spec(self, other: Matrix):
        if self.spec != other.spec:
            raise MixedFields(f"cannot mix {self.spec!r} and {other.spec!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.shape, self._a.tobytes()))

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_spec(other)
        if self.shape != other.shape:
            raise ShapeMismatch(f"add {self.shape} to {other.shape}")
        return Matrix._adopt(self.spec, (self._a + other._a) % self.spec.p)

    def __sub__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_spec(other)
        if self.shape != other.shape:
            raise ShapeMismatch(f"subtract {other.shape} from {self.shape}")
        return Matrix._adopt(self.spec, (self._a - other._a) % self.spec.p)

    def __neg__(self) -> Matrix:
        return Matrix._adopt(self.spec, (-self._a) % self.spec.p)

    def __mul__(self, scalar) -> Matrix:
        c = _coerce_entry(scalar, self.spec)
        return Matrix._adopt(self.spec, (self._a * c) % self.spec.p)

    __rmul__ = __mul__

    def __matmul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_spec(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"matmul {self.shape} @ {other.shape}")
        return Matrix._adopt(self.spec, _product(self._a, other._a, self.spec.p))

    def transpose(self) -> Matrix:
        return Matrix._adopt(self.spec, self._a.T.copy())

    def kron(self, other: Matrix) -> Matrix:
        """Kronecker product; kron of two row vectors realizes u (x) v."""
        self._same_spec(other)
        a, b = self._a, other._a
        # entry (i, k, j, l) is a[i, j] * b[k, l] < 2**62, at row i*b.rows + k
        out = (a[:, None, :, None] * b[None, :, None, :]).reshape(
            self.rows * other.rows, self.cols * other.cols)
        out %= self.spec.p
        return Matrix._adopt(self.spec, out)

    def rref(self) -> tuple[Matrix, int, tuple[int, ...]]:
        """Unique reduced row echelon form.

        Returns (reduced matrix, rank, pivot column indices). The pivot in
        each step is the first nonzero entry in column order, so equal row
        spaces always produce identical reduced matrices.

        A sparse matrix (`_sparse`, the gate `rank` uses too) first peels
        its singleton rows: a row whose one nonzero is in column c puts the
        unit row e_c in the row space, so c is a pivot and e_c its reduced
        row. Column c goes from every other row, and rows left with one
        nonzero peel in turn. The rows and columns left over are
        eliminated, and their reduced rows, zero at every peeled column,
        merge with the e_c in pivot order. That is the reduced form of the
        whole row space, which is unique, so peeling changes no byte of the
        result.
        """
        p, a = self.spec.p, self._a
        peel = _peel_rows(a) if _sparse(a) else None
        if peel is None:
            reduced, rank, pivots = _eliminate(a.copy(), p)
            return Matrix._adopt(self.spec, reduced), rank, tuple(pivots)
        rows, cols, is_pivot = peel
        peeled = is_pivot.nonzero()[0]
        rest, rest_rank, rest_pivots = _eliminate(a[rows][:, cols], p)
        rest_pivots = cols[rest_pivots]
        is_pivot[rest_pivots] = True
        # the row of the result that each pivot column leads
        order = np.cumsum(is_pivot) - 1
        reduced = np.zeros(a.shape, dtype=np.int64)
        reduced[order[peeled], peeled] = 1
        reduced[order[rest_pivots, None], cols] = rest[:rest_rank]
        pivots = is_pivot.nonzero()[0]
        return Matrix._adopt(self.spec, reduced), pivots.size, tuple(pivots.tolist())

    def rank(self) -> int:
        """rref()[1], after peeling what needs no elimination. A row whose
        one nonzero is in column c adds 1 per distinct c; the rows go, and
        so do those columns. Failing such rows, columns with one nonzero go
        the same way, as rows of the transpose. Zero rows and columns go
        too. Each pass under the gate of `_sparse` removes something, and a
        dense matrix costs one count. What is left goes through rref."""
        a, rank = self._a, 0
        while _sparse(a):
            ones = (a != 0).view(np.int8)
            in_rows, hit = _singleton_rows(ones)
            if not hit.any():
                a, ones = a.T, ones.T
                in_rows, hit = _singleton_rows(ones)
            rank += int(np.count_nonzero(hit))
            a = a[in_rows > 1][:, ~hit & ones.any(0)]
        if a is self._a:
            return self.rref()[1]
        return rank + (Matrix._adopt(self.spec, a).rref()[1] if a.size else 0)

    def kernel(self) -> Matrix:
        """Basis of the right null space {x : self @ x = 0}, one solution
        per row. Row count is cols - rank."""
        reduced, rank, pivots = self.rref()
        return reduced._kernel_of_reduced(rank, pivots)

    def _free_columns(self, pivots: Sequence[int]) -> np.ndarray:
        """The column indices that are not pivots, in increasing order."""
        free = np.ones(self.cols, dtype=bool)
        free[list(pivots)] = False
        return free.nonzero()[0]

    def _kernel_of_reduced(self, rank: int, pivots: Sequence[int]) -> Matrix:
        """kernel() of a matrix already in reduced row echelon form, with the
        rank and pivots its rref returned, read off without an elimination:
        one row per free column f, with 1 at f and minus column f of the
        reduced rows at the pivots."""
        free = self._free_columns(pivots)
        basis = np.zeros((free.size, self.cols), dtype=np.int64)
        basis[np.arange(free.size), free] = 1
        basis[:, list(pivots)] = -self._a[:rank][:, free].T % self.spec.p
        return Matrix._adopt(self.spec, basis)

    def invert(self) -> Matrix:
        if self.rows != self.cols:
            raise ShapeMismatch(f"cannot invert {self.shape}")
        n = self.rows
        aug = Matrix.hstack([self, Matrix.identity(self.spec, n)])
        reduced, _, pivots = aug.rref()
        rank = sum(c < n for c in pivots)
        if rank < n:
            raise Singular(f"matrix of rank {rank} < {n}")
        return Matrix._adopt(self.spec, reduced._a[:, n:].copy())

    def solve_left(self, rhs: Matrix) -> Matrix:
        """One X with X @ self = rhs (free variables pinned to zero).

        Raises Singular when no solution exists, i.e. when some row of rhs
        falls outside the row space of self.
        """
        if not isinstance(rhs, Matrix):
            raise TypeError("rhs must be a Matrix")
        self._same_spec(rhs)
        if self.cols != rhs.cols:
            raise ShapeMismatch(f"solve_left widths differ: {self.cols} vs {rhs.cols}")
        reduced, _, pivots = Matrix._adopt(self.spec, np.hstack([self._a.T, rhs._a.T])).rref()
        if any(c >= self.rows for c in pivots):
            raise Singular("inconsistent system: rhs outside the row space")
        x = np.zeros((rhs.rows, self.rows), dtype=np.int64)
        x[:, list(pivots)] = reduced._a[: len(pivots), self.rows :].T
        return Matrix._adopt(self.spec, x)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "p": self.spec.p,
            "data": self.to_lists(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict, spec: FieldSpec | None = None) -> Matrix:
        payload = loaded(payload, dict, "matrix")
        got = FieldSpec(loaded(payload["p"], int, "p"))
        if spec is not None and got != spec:
            raise MixedFields(f"payload is over {got!r}, expected {spec!r}")
        rows, cols = loaded(payload["rows"], int, "rows"), loaded(payload["cols"], int, "cols")
        data = payload["data"]
        if rows == 0 and data == []:
            return cls.zeros(got, 0, cols)
        matrix = cls.from_json_rows(got, data)
        if matrix.shape != (rows, cols):
            raise ShapeMismatch("payload shape disagrees with its data")
        return matrix

    @classmethod
    def from_json_rows(cls, spec: FieldSpec, data) -> Matrix:
        """Matrix from a loaded list of rows. Data that is not a list of
        lists of integers raises BadEntry, not the TypeError of Matrix(...)."""
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise BadEntry("matrix data must be a list of rows")
        for row in data:
            for value in row:
                if type(value) is not int:  # a bool is no int here
                    raise BadEntry(f"matrix entries must be integers, got {reprlib.repr(value)}")
        return cls(spec, data)

    def __repr__(self) -> str:
        return f"Matrix({self.spec!r}, {self.rows}x{self.cols})"
