"""Dimension counting for spaces of constrained linear maps.

A map psi on F^ell (acting on row vectors from the right) satisfies the
constraint (A, B) when psi sends A into B. The maps satisfying a list of
constraints form a subspace of the ell*ell dimensional space of all maps;
this module computes it exactly.

Encoding: vectorize psi row-major into ell**2 unknowns. For a basis row a
of A and an annihilator row n of B, the condition (a psi) . n = 0 is one
linear equation whose coefficient vector is the Kronecker product a (x) n.
The stacked system of all constraints is never built: by the vec identity
(a (x) n) . vec(psi) = a psi n^T, the constraints are applied one at a time
to a basis of the maps that satisfy the earlier ones, which only shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    AmbientMismatch,
    BadParams,
    IndexOutOfRange,
    LemmaViolation,
    MixedFields,
    VerificationRequired,
)
from .field import FieldSpec
from .matrix import Matrix
from .subspace import Subspace

if TYPE_CHECKING:  # pragma: no cover
    from .msr_family import MsrSubspaceFamily


@dataclass(frozen=True)
class MapConstraint:
    """Require psi(source) to lie inside target."""

    source: Subspace
    target: Subspace

    def __post_init__(self):
        if self.source.spec != self.target.spec:
            raise MixedFields("constraint endpoints over different fields")
        if self.source.ambient_dim != self.target.ambient_dim:
            raise AmbientMismatch(
                f"constraint endpoints in F^{self.source.ambient_dim} "
                f"and F^{self.target.ambient_dim}"
            )

    @classmethod
    def fixing(cls, subspace: Subspace) -> MapConstraint:
        """The one-sided shorthand: the subspace must map into itself."""
        return cls(subspace, subspace)


def _as_constraint(obj) -> MapConstraint:
    if isinstance(obj, MapConstraint):
        return obj
    if isinstance(obj, Subspace):
        return MapConstraint.fixing(obj)
    raise TypeError(f"expected MapConstraint or Subspace, got {type(obj).__name__}")


def _restrict(maps: Matrix, constraint: MapConstraint) -> Matrix:
    """The maps in the row span of `maps` that also satisfy `constraint`.

    The rows of `maps` are independent vectorized maps psi_s. A combination
    sum_s c_s psi_s satisfies (A, B) exactly when sum_s c_s A psi_s N^T = 0,
    with N the annihilator basis of B. So the c form the left kernel C of the
    d x (dim A * codim B) matrix whose row s is A psi_s N^T, and the result is
    C @ maps, whose rows are again independent because C's and maps' are.
    """
    source = constraint.source.basis
    annihilator = constraint.target.annihilator().basis
    d, spec = maps.rows, maps.spec
    if d == 0 or source.rows == 0 or annihilator.rows == 0:
        return maps
    ell, a, c = source.cols, source.rows, annihilator.rows
    if d == ell * ell:
        # maps spans every map, so restrict the unit maps instead: their
        # equation columns are the Kronecker rows a (x) n themselves
        return source.kron(annihilator).kernel()
    # psi_s N^T for every s: the rows of all maps stacked, one product
    right = Matrix._adopt(spec, maps._a.reshape(d * ell, ell)) @ annihilator.transpose()
    # A psi_s N^T for every s: the same rows regrouped as columns (s, n)
    stacked = right._a.reshape(d, ell, c).transpose(1, 0, 2).reshape(ell, d * c)
    images = source @ Matrix._adopt(spec, stacked)
    # one equation row per (a, n) pair, one column per map psi_s
    equations = images._a.reshape(a, d, c).transpose(0, 2, 1).reshape(a * c, d)
    return Matrix._adopt(spec, equations).kernel() @ maps


def _invariant_basis(constraints, spec, ambient) -> Matrix:
    """Independent vectorized maps spanning those that satisfy every
    constraint, restricted from all maps one constraint at a time."""
    resolved = [_as_constraint(c) for c in constraints]
    if resolved:
        first = resolved[0]
        spec = first.source.spec if spec is None else spec
        ambient = first.source.ambient_dim if ambient is None else ambient
    if spec is None or ambient is None:
        raise BadParams("empty constraint list needs explicit spec and ambient")
    maps = Matrix.identity(spec, ambient * ambient)
    for c in resolved:
        if c.source.spec != spec:
            raise MixedFields("constraints over different fields")
        if c.source.ambient_dim != ambient:
            raise AmbientMismatch("constraints in different ambient spaces")
        maps = _restrict(maps, c)
    return maps


def invariant_space(
    constraints: Iterable, *, spec: FieldSpec | None = None, ambient: int | None = None
) -> Subspace:
    """The subspace of F^(ell**2) of vectorized maps satisfying every
    constraint. Bare subspaces in the list mean "maps into itself"."""
    return Subspace.span_of(_invariant_basis(constraints, spec, ambient))


def invariant_dim(
    constraints: Iterable, *, spec: FieldSpec | None = None, ambient: int | None = None
) -> int:
    return _invariant_basis(constraints, spec, ambient).rows


@dataclass(frozen=True)
class DecayTrace:
    """Invariant dimensions along a prefix order of a verified family.

    dims[t] is the dimension after constraining the first t members (so
    dims[0] = ell**2), bounds[t] is the exact rational envelope
    ell**2 * ((2r-1)/(2r))**t, and ratios[t-1] = dims[t]/dims[t-1]. A trace
    object only exists if every per-step inequality held and dims[k] >= 1;
    violations raise LemmaViolation instead.
    """

    ell: int
    r: int
    k: int
    order: tuple[int, ...]
    dims: tuple[int, ...]
    bounds: tuple[Fraction, ...]
    ratios: tuple[Fraction, ...]

    def csv_rows(self) -> list[tuple[int, int, int, int, bool]]:
        """Rows (t, I_t, bound_numerator, bound_denominator, pass)."""
        rows = []
        for t in range(self.k + 1):
            bound = self.bounds[t]
            rows.append(
                (t, self.dims[t], bound.numerator, bound.denominator, self.dims[t] <= bound)
            )
        return rows


def _require_verified(family: "MsrSubspaceFamily"):
    report = family.verify()
    if not report.ok:
        raise VerificationRequired(
            "family fails verification: "
            f"noninvertible={list(report.noninvertible)}, "
            f"direct_sum_failures={list(report.direct_sum_failures)}, "
            f"alignment_failures={list(report.alignment_failures)}"
        )


def decay_trace(
    family: "MsrSubspaceFamily", order: Sequence[int] | None = None
) -> DecayTrace:
    """Constrain the family members one by one (in `order`, default the
    family's own order) and record the invariant dimension after each step.

    Every step must drop the dimension by the factor (2r-1)/(2r) at least,
    and the final dimension must stay >= 1; a verified family violating
    either raises LemmaViolation with the offending state attached.
    """
    _require_verified(family)
    k = family.k
    if order is None:
        order = tuple(range(k))
    else:
        order = tuple(int(i) for i in order)
        if sorted(order) != list(range(k)):
            raise BadParams(f"order must be a permutation of range({k})")
    ell, r = family.ell, family.r
    dims = [ell * ell]
    maps = Matrix.identity(family.spec, ell * ell)
    for t, member in enumerate(order, start=1):
        maps = _restrict(maps, MapConstraint.fixing(family.subspaces[member]))
        dim = maps.rows
        # exact integer form of dims[t] <= dims[t-1] * (2r-1)/(2r)
        if 2 * r * dim > (2 * r - 1) * dims[-1]:
            raise LemmaViolation(
                f"decay step {t} failed: {dim} > {dims[-1]} * (2r-1)/2r",
                payload={
                    "family": family.to_json_dict(),
                    "order": list(order),
                    "step": t,
                    "dims": dims + [dim],
                },
            )
        dims.append(dim)
    if dims[k] < 1:
        raise LemmaViolation(
            f"final invariant dimension {dims[k]} < 1",
            payload={"family": family.to_json_dict(), "order": list(order), "dims": dims},
        )
    factor = Fraction(2 * r - 1, 2 * r)
    bounds = tuple(ell * ell * factor**t for t in range(k + 1))
    ratios = tuple(Fraction(dims[t], dims[t - 1]) for t in range(1, k + 1))
    return DecayTrace(
        ell=ell, r=r, k=k, order=order, dims=tuple(dims), bounds=bounds, ratios=ratios
    )


def composition_isomorphism_check(family: "MsrSubspaceFamily", t: int, j: int) -> bool:
    """Check that composing with member t's slot-j map leaves the
    constrained-map dimension unchanged, in both of these forms:

      dim F(H_1..H_{t-1}, H_t)
        == dim F(H_1..H_{t-1}, phi_j(H_t) -> H_t)
        == dim F(H_1..H_{t-1}, phi_j(H_t) -> phi_1(H_t))

    t is the 1-based prefix length (1 <= t <= k); j is a map slot with 0
    meaning the identity. True for every verified family.
    """
    _require_verified(family)
    if not 1 <= t <= family.k:
        raise IndexOutOfRange(f"t={t} outside 1..{family.k}")
    if not 0 <= j <= family.r - 1:
        raise IndexOutOfRange(f"slot j={j} outside 0..{family.r - 1}")
    if family.r < 2:
        raise IndexOutOfRange("check needs r >= 2 (slot 1 must exist)")
    member = t - 1
    prefix = _invariant_basis(family.subspaces[:member], family.spec, family.ell)
    h_t = family.subspaces[member]
    image_j = h_t.apply_map(family.map_matrix(member, j))
    image_1 = h_t.apply_map(family.map_matrix(member, 1))
    base = _restrict(prefix, MapConstraint.fixing(h_t)).rows
    via_fix = _restrict(prefix, MapConstraint(image_j, h_t)).rows
    via_translate = _restrict(prefix, MapConstraint(image_j, image_1)).rows
    return base == via_fix == via_translate
