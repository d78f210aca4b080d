"""Dense matrices over GF(p) with exact elimination.

Entries live in read-only numpy int64 arrays, reduced mod p. The modulus is
capped at 2**31 - 1, so any product of two residues fits in an int64; dot
products are accumulated in blocks small enough that no intermediate ever
reaches 2**63. Row reduction always picks the first nonzero entry in column
order, so the reduced form of a given row space is unique and matrices can
be compared entry by entry.

Vectors are 1 x n matrices and maps act on them from the right (x -> x @ M)
unless a function says otherwise.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import BadEntry, MixedFields, ShapeMismatch, Singular
from .field import FieldElement, FieldSpec


def _coerce_entry(value, spec: FieldSpec) -> int:
    if isinstance(value, FieldElement):
        if value.spec != spec:
            raise MixedFields(f"entry from {value.spec!r} in a {spec!r} matrix")
        return value.value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value) % spec.p
    raise TypeError(f"matrix entries must be ints or field elements, got {type(value).__name__}")


class Matrix:
    """Immutable rows x cols matrix over a fixed FieldSpec."""

    __slots__ = ("spec", "_a")

    def __init__(self, spec: FieldSpec, rows: Sequence[Sequence]):
        data = [[_coerce_entry(v, spec) for v in row] for row in rows]
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
    def _wrap(cls, spec: FieldSpec, arr: np.ndarray) -> Matrix:
        """Matrix over a reduced copy of arr, which may be unreduced or shared."""
        return cls._adopt(spec, np.array(arr, dtype=np.int64) % spec.p)

    @classmethod
    def _adopt(cls, spec: FieldSpec, arr: np.ndarray) -> Matrix:
        """Matrix over arr itself, which must be a fresh int64 array already
        reduced mod p; it is frozen, not copied."""
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
        if not parts:
            raise ShapeMismatch("vstack of nothing")
        spec = parts[0].spec
        cols = parts[0].cols
        for part in parts[1:]:
            if part.spec != spec:
                raise MixedFields("vstack across field specs")
            if part.cols != cols:
                raise ShapeMismatch(f"vstack widths differ: {part.cols} vs {cols}")
        return cls._adopt(spec, np.vstack([part._a for part in parts]))

    @classmethod
    def hstack(cls, parts: Sequence[Matrix]) -> Matrix:
        if not parts:
            raise ShapeMismatch("hstack of nothing")
        spec = parts[0].spec
        rows = parts[0].rows
        for part in parts[1:]:
            if part.spec != spec:
                raise MixedFields("hstack across field specs")
            if part.rows != rows:
                raise ShapeMismatch(f"hstack heights differ: {part.rows} vs {rows}")
        return cls._adopt(spec, np.hstack([part._a for part in parts]))

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
        return Matrix._wrap(self.spec, self._a[i : i + 1])

    def column(self, j: int) -> Matrix:
        return Matrix._wrap(self.spec, self._a[:, j : j + 1])

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
        return Matrix._wrap(self.spec, self._a + other._a)

    def __sub__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_spec(other)
        if self.shape != other.shape:
            raise ShapeMismatch(f"subtract {other.shape} from {self.shape}")
        return Matrix._wrap(self.spec, self._a - other._a)

    def __neg__(self) -> Matrix:
        return Matrix._wrap(self.spec, -self._a)

    def __mul__(self, scalar) -> Matrix:
        c = _coerce_entry(scalar, self.spec)
        return Matrix._wrap(self.spec, self._a * c)

    __rmul__ = __mul__

    def __matmul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_spec(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"matmul {self.shape} @ {other.shape}")
        p = self.spec.p
        inner = self.cols
        # Largest run of products that cannot overflow when summed.
        step = max(1, (2**62) // ((p - 1) ** 2 + 1))
        if inner <= step:
            prod = self._a @ other._a % p
        else:
            prod = np.zeros((self.rows, other.cols), dtype=np.int64)
            for start in range(0, inner, step):
                stop = start + step
                prod = (prod + self._a[:, start:stop] @ other._a[start:stop] % p) % p
        return Matrix._adopt(self.spec, prod)

    def transpose(self) -> Matrix:
        return Matrix._wrap(self.spec, self._a.T)

    def kron(self, other: Matrix) -> Matrix:
        """Kronecker product; kron of two row vectors realizes u (x) v."""
        self._same_spec(other)
        return Matrix._wrap(self.spec, np.kron(self._a, other._a))

    def rref(self) -> tuple[Matrix, int, tuple[int, ...]]:
        """Unique reduced row echelon form.

        Returns (reduced matrix, rank, pivot column indices). The pivot in
        each step is the first nonzero entry in column order, so equal row
        spaces always produce identical reduced matrices.
        """
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

    def rank(self) -> int:
        return self.rref()[1]

    def kernel(self) -> Matrix:
        """Basis of the right null space {x : self @ x = 0}, one solution
        per row. Row count is cols - rank."""
        p = self.spec.p
        reduced, rank, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = np.zeros((len(free), self.cols), dtype=np.int64)
        for row_idx, f in enumerate(free):
            basis[row_idx, f] = 1
            for i, c in enumerate(pivots):
                basis[row_idx, c] = (-int(reduced._a[i, f])) % p
        return Matrix._adopt(self.spec, basis)

    def invert(self) -> Matrix:
        if self.rows != self.cols:
            raise ShapeMismatch(f"cannot invert {self.shape}")
        n = self.rows
        aug = Matrix.hstack([self, Matrix.identity(self.spec, n)])
        reduced, _, pivots = aug.rref()
        if sum(1 for c in pivots if c < n) < n:
            raise Singular(f"matrix of rank {self.rank()} < {n}")
        return Matrix._wrap(self.spec, reduced._a[:, n:])

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
        aug = Matrix.hstack([self.transpose(), rhs.transpose()])
        reduced, _, pivots = aug.rref()
        if any(c >= self.rows for c in pivots):
            raise Singular("inconsistent system: rhs outside the row space")
        xt = np.zeros((self.rows, rhs.rows), dtype=np.int64)
        for i, c in enumerate(pivots):
            xt[c] = reduced._a[i, self.rows :]
        return Matrix._wrap(self.spec, xt.T)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "p": self.spec.p,
            "data": self.to_lists(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict, spec: FieldSpec | None = None) -> Matrix:
        got = FieldSpec(int(payload["p"]))
        if spec is not None and got != spec:
            raise MixedFields(f"payload is over {got!r}, expected {spec!r}")
        rows, cols = int(payload["rows"]), int(payload["cols"])
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
                if not isinstance(value, int) or isinstance(value, bool):
                    raise BadEntry(f"matrix entries must be integers, got {value!r}")
        return cls(spec, data)

    def __repr__(self) -> str:
        return f"Matrix({self.spec!r}, {self.rows}x{self.cols})"
