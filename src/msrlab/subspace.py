"""Subspaces of F^n stored as canonical row spaces.

Every subspace keeps its basis in reduced row echelon form with zero rows
dropped, so two subspaces are equal exactly when their basis matrices are
identical, and membership needs no elimination: a row x lies in the span
exactly when x equals (x read at the pivot columns) @ basis. Intersections
go through annihilators: the annihilator of a sum is the intersection of
annihilators, and dualizing twice comes back to the start.
"""

from __future__ import annotations

from typing import Sequence

from .errors import AmbientMismatch, MixedFields, ShapeMismatch
from .field import FieldSpec
from .matrix import Matrix


class Subspace:
    """A subspace of F^ambient_dim with a canonical RREF basis."""

    __slots__ = ("spec", "ambient_dim", "basis", "_pivots")

    def __init__(self, spec: FieldSpec, ambient_dim: int, generators: Matrix):
        if generators.spec != spec:
            raise MixedFields(f"generators over {generators.spec!r}, spec is {spec!r}")
        if generators.cols != ambient_dim:
            raise AmbientMismatch(
                f"generators have width {generators.cols}, ambient is {ambient_dim}"
            )
        reduced, rank, pivots = generators.rref()
        self.spec = spec
        self.ambient_dim = ambient_dim
        self.basis = Matrix._wrap(spec, reduced._a[:rank])
        self._pivots = pivots

    @classmethod
    def span_of(cls, generators: Matrix) -> Subspace:
        """Span of the rows of a matrix."""
        return cls(generators.spec, generators.cols, generators)

    @classmethod
    def zero(cls, spec: FieldSpec, ambient_dim: int) -> Subspace:
        return cls(spec, ambient_dim, Matrix.zeros(spec, 0, ambient_dim))

    @classmethod
    def full(cls, spec: FieldSpec, ambient_dim: int) -> Subspace:
        return cls(spec, ambient_dim, Matrix.identity(spec, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _check_compatible(self, other: Subspace):
        if self.spec != other.spec:
            raise MixedFields(f"cannot mix {self.spec!r} and {other.spec!r}")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient dims differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def sum(self, other: Subspace) -> Subspace:
        self._check_compatible(other)
        return Subspace.span_of(Matrix.vstack([self.basis, other.basis]))

    __add__ = sum

    def annihilator(self) -> Subspace:
        """All y with b . y = 0 for every basis row b, as a subspace of the
        same ambient space."""
        return Subspace.span_of(self.basis.kernel())

    def intersect(self, other: Subspace) -> Subspace:
        self._check_compatible(other)
        return self.annihilator().sum(other.annihilator()).annihilator()

    __and__ = intersect

    def apply_map(self, phi: Matrix) -> Subspace:
        """Image under the map x -> x @ phi."""
        if phi.spec != self.spec:
            raise MixedFields("map over a different field")
        if phi.shape != (self.ambient_dim, self.ambient_dim):
            raise ShapeMismatch(f"map shape {phi.shape}, ambient {self.ambient_dim}")
        return Subspace.span_of(self.basis @ phi)

    def coordinates(self, rows: Matrix) -> Matrix | None:
        """The C with C @ basis == rows when every row of `rows` lies in this
        subspace, else None. C is `rows` read at the basis's pivot columns,
        so one product decides membership without an elimination."""
        if rows.cols != self.ambient_dim:
            raise AmbientMismatch(f"rows have width {rows.cols}, ambient is {self.ambient_dim}")
        coords = rows.columns(self._pivots)
        return coords if coords @ self.basis == rows else None

    def contains_vector(self, vector) -> bool:
        if isinstance(vector, Matrix):
            row = vector
            if row.shape != (1, self.ambient_dim):
                raise ShapeMismatch(f"expected a 1x{self.ambient_dim} vector")
        else:
            row = Matrix.row_vector(self.spec, vector)
            if row.cols != self.ambient_dim:
                raise AmbientMismatch(f"vector length {row.cols} != {self.ambient_dim}")
        return self.coordinates(row) is not None

    def contains(self, other: Subspace) -> bool:
        self._check_compatible(other)
        return self.coordinates(other.basis) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def to_json_dict(self) -> dict:
        return {
            "ambient": self.ambient_dim,
            "p": self.spec.p,
            "basis": self.basis.to_lists(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict, spec: FieldSpec | None = None) -> Subspace:
        got = FieldSpec(int(payload["p"]))
        if spec is not None and got != spec:
            raise MixedFields(f"payload is over {got!r}, expected {spec!r}")
        ambient = int(payload["ambient"])
        rows = payload["basis"]
        if not rows:
            return cls.zero(got, ambient)
        return cls(got, ambient, Matrix.from_json_rows(got, rows))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim} over {self.spec!r})"


def is_direct_sum_full(parts: Sequence[Subspace]) -> bool:
    """True when the parts sum directly to the whole ambient space: their
    dimensions add up to the ambient dimension and their sum has that
    dimension too."""
    if not parts:
        raise AmbientMismatch("need at least one part")
    first = parts[0]
    for part in parts[1:]:
        first._check_compatible(part)
    if sum(part.dim for part in parts) != first.ambient_dim:
        return False
    running = parts[0]
    for part in parts[1:]:
        running = running.sum(part)
    return running.dim == first.ambient_dim


def intersect_all(parts: Sequence[Subspace]) -> Subspace:
    """Intersection of one or more subspaces of the same ambient space."""
    if not parts:
        raise AmbientMismatch("need at least one part")
    running = parts[0]
    for part in parts[1:]:
        running = running.intersect(part)
    return running
