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

import numpy as np

from .errors import (
    AmbientMismatch,
    BadParams,
    IndexOutOfRange,
    LemmaViolation,
    MixedFields,
    VerificationRequired,
)
from .field import FieldSpec, _is_integer
from .matrix import Matrix, _product
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


def _restrict(maps: Matrix | None, constraint: MapConstraint) -> Matrix | None:
    """The maps in the row span of `maps` that also satisfy `constraint`.

    `maps` is None for all maps, so no ell**2 x ell**2 identity is built,
    and it stays None while every constraint is trivial. Otherwise its rows
    are independent vectorized maps psi_s. A combination
    sum_s c_s psi_s satisfies (A, B) exactly when sum_s c_s A psi_s N^T = 0,
    with N any basis of B's annihilator. So the c form the left kernel C of
    the d x (dim A * codim B) matrix whose row s is A psi_s N^T, and the
    result is C @ maps, whose rows are again independent because C's and
    maps' are. The equations' row space, and so C, is the same for every
    choice of N, so N is read off B's canonical basis without an elimination.
    If A and B are coordinate subspaces, A = span(e_P) and N's rows are the
    e_f for B's free columns F, so A psi N^T = psi[P][:, F] is gathered.
    For all maps the equations are the rows a (x) n, and a Kronecker
    product of two RREFs is an RREF (row (i, n) leads with a 1 at column
    (lead(i), lead(n)), zero in every other row), so their RREF is
    A (x) rref(N), which Subspace keeps as it is: only N, c x ell, is eliminated.
    """
    source, target = constraint.source, constraint.target
    ell, a, c = source.ambient_dim, source.dim, source.ambient_dim - target.dim
    if a == 0 or c == 0:
        return maps
    if maps is None:
        return Subspace.span_of(source.basis.kron(target.annihilator().basis)).annihilator_basis()
    d, spec = maps.rows, maps.spec
    if d == 0:
        return maps
    # Each stage rebinds `work`, so no earlier stage stays alive through the
    # elimination and the final product, where memory peaks at ell = 81.
    if source.is_coordinate and target.is_coordinate:
        # one equation row per (a, n) pair, psi_s[P[a], F[n]] in column s
        free = target.basis._free_columns(target._pivots)
        work = maps._a[:, np.add.outer(np.array(source._pivots) * ell, free).ravel()].T
    else:
        # psi_s N^T for every s: the rows of all maps stacked, one product
        annihilator = target.annihilator_basis().transpose()
        work = (Matrix._adopt(spec, maps._a.reshape(d * ell, ell)) @ annihilator)._a
        # A psi_s N^T for every s: the same rows regrouped as columns (s, n)
        work = work.reshape(d, ell, c).transpose(1, 0, 2).reshape(ell, d * c)
        work = (source.basis @ Matrix._adopt(spec, work))._a
        # one equation row per (a, n) pair, one column per map psi_s
        work = work.reshape(a, d, c).transpose(0, 2, 1).reshape(a * c, d)
    reduced, rank, pivots = Matrix._adopt(spec, work).rref()
    # C is 1 at its free columns and minus the reduced rows at its pivots,
    # so C @ maps = maps[free] - R[:, free]^T @ maps[pivots], and C is never
    # built. Only the nonzero rows and columns of R[:, free] take part: a
    # peeled pivot's row is zero there, and when every row is, the product
    # is empty and the result is maps[free]. The product comes before the
    # copy of maps[free], so that copy never lives alongside the equations
    # or the product's inputs. The kernel's own fresh, writable result takes
    # the sum in place, where a frozen Matrix product would need a copy.
    free = reduced._free_columns(pivots)
    work = reduced._a[:rank, free]
    del reduced
    rows, cols = work.any(1), work.any(0)
    work = -work[rows][:, cols].T % spec.p
    work = _product(work, maps._a[np.array(pivots, dtype=np.intp)[rows]], spec.p)
    work += maps._a[free[cols]]
    work %= spec.p
    result = maps._a[free]
    result[cols] = work
    return Matrix._adopt(spec, result)


def _dim(maps: Matrix | None, ambient: int) -> int:
    """Dimension of the maps `_restrict` returned, None meaning all."""
    return ambient * ambient if maps is None else maps.rows


def _invariant_basis(constraints, spec, ambient) -> tuple[Matrix | None, FieldSpec, int]:
    """(maps, spec, ambient): independent vectorized maps spanning those
    that satisfy every constraint, or None for all maps, restricted one
    constraint at a time."""
    resolved = [_as_constraint(c) for c in constraints]
    if resolved:
        first = resolved[0]
        spec = first.source.spec if spec is None else spec
        ambient = first.source.ambient_dim if ambient is None else ambient
    if spec is None or ambient is None:
        raise BadParams("empty constraint list needs explicit spec and ambient")
    maps = None
    for c in resolved:
        if c.source.spec != spec:
            raise MixedFields("constraints over different fields")
        if c.source.ambient_dim != ambient:
            raise AmbientMismatch("constraints in different ambient spaces")
        maps = _restrict(maps, c)
    return maps, spec, ambient


def invariant_space(
    constraints: Iterable, *, spec: FieldSpec | None = None, ambient: int | None = None
) -> Subspace:
    """The subspace of F^(ell**2) of vectorized maps satisfying every
    constraint. Bare subspaces in the list mean "maps into itself"."""
    maps, spec, ambient = _invariant_basis(constraints, spec, ambient)
    if maps is None:
        return Subspace.full(spec, ambient * ambient)
    return Subspace.span_of(maps)


def invariant_dim(
    constraints: Iterable, *, spec: FieldSpec | None = None, ambient: int | None = None
) -> int:
    maps, _, ambient = _invariant_basis(constraints, spec, ambient)
    return _dim(maps, ambient)


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
    An order that is not a permutation of range(k), or has an entry that is
    not an integer (a float, a string or a bool), raises BadParams.

    Every step must drop the dimension by the factor (2r-1)/(2r) at least,
    and the final dimension must stay >= 1; a verified family violating
    either raises LemmaViolation with the offending state attached.
    """
    _require_verified(family)
    k = family.k
    if order is None:
        order = tuple(range(k))
    else:
        order = tuple(order)
        if not all(map(_is_integer, order)) or sorted(order) != list(range(k)):
            raise BadParams(f"order must be a permutation of range({k})")
        order = tuple(map(int, order))
    ell, r = family.ell, family.r
    dims = [ell * ell]
    maps = None
    for t, member in enumerate(order, start=1):
        maps = _restrict(maps, MapConstraint.fixing(family.subspaces[member]))
        dim = _dim(maps, ell)
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
    prefix, _, ell = _invariant_basis(family.subspaces[:member], family.spec, family.ell)
    h_t = family.subspaces[member]
    image_j = h_t.apply_map(family.map_matrix(member, j))
    image_1 = h_t.apply_map(family.map_matrix(member, 1))
    base = _dim(_restrict(prefix, MapConstraint.fixing(h_t)), ell)
    via_fix = _dim(_restrict(prefix, MapConstraint(image_j, h_t)), ell)
    via_translate = _dim(_restrict(prefix, MapConstraint(image_j, image_1)), ell)
    return base == via_fix == via_translate
