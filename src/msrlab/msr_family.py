"""Families of subspaces whose maps fix every other member.

A family over GF(p) consists of subspaces H_0..H_{k-1} of F^ell, each of
dimension ell/r, plus invertible maps phi[i][j] for i in range(k) and slots
j = 1..r-1 (slot 0 is reserved for the identity). Maps act on row vectors
from the right. Two properties make the family useful:

  * regeneration: H_i, phi[i][1](H_i), ..., phi[i][r-1](H_i) sum directly
    to all of F^ell, and
  * alignment: phi[i'][j](H_i) = H_i whenever i' != i.

verify() recomputes both properties, and the invertibility of every map,
from scratch; nothing is trusted from construction time. Families and
subspaces are frozen dataclasses, so a report is computed once and kept.
Every verified family obeys the size bound k <= 4 r ln(ell), that is
ell >= e^(k/4r), which bound_check() decides with exact partial sums of
the exponential series rather than floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import BadLambda, BadParams, FieldTooSmall, StructuralError
from .field import FieldElement, FieldSpec, _is_integer
from .matrix import Matrix, _product, loaded
from .subspace import Subspace, is_direct_sum_full  # noqa: F401 (msrbench traces this binding)


def _failures(checks: Mapping) -> tuple:
    """The keys of the checks that failed, sorted."""
    return tuple(sorted(key for key, good in checks.items() if not good))


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of re-checking a family from scratch.

    invertible is keyed by (member i, slot j); direct_sum by member i;
    alignment by (member i, other member i', slot j) and records whether
    phi[i'][j] maps H_i onto itself. Slots run over 1..r-1.
    """

    ell: int
    r: int
    k: int
    invertible: Mapping[tuple[int, int], bool]
    direct_sum: Mapping[int, bool]
    alignment: Mapping[tuple[int, int, int], bool]

    @property
    def ok(self) -> bool:
        return (
            all(self.invertible.values())
            and all(self.direct_sum.values())
            and all(self.alignment.values())
        )

    @property
    def noninvertible(self) -> tuple[tuple[int, int], ...]:
        return _failures(self.invertible)

    @property
    def direct_sum_failures(self) -> tuple[int, ...]:
        return _failures(self.direct_sum)

    @property
    def alignment_failures(self) -> tuple[tuple[int, int, int], ...]:
        return _failures(self.alignment)

    def summary_lines(self) -> list[str]:
        lines = [
            f"family: k={self.k} subspaces of dim {self.ell // self.r} in F^{self.ell}, r={self.r}",
            f"maps invertible: {sum(self.invertible.values())}/{len(self.invertible)}",
            f"regeneration sums: {sum(self.direct_sum.values())}/{len(self.direct_sum)}",
            f"alignment checks: {sum(self.alignment.values())}/{len(self.alignment)}",
        ]
        for key in self.noninvertible:
            lines.append(f"  NOT INVERTIBLE: map {key}")
        for i in self.direct_sum_failures:
            lines.append(f"  NOT A DIRECT SUM: member {i}")
        for key in self.alignment_failures:
            lines.append(f"  NOT ALIGNED: (member {key[0]}, map {key[1]}, slot {key[2]})")
        lines.append("VERIFY PASS" if self.ok else "VERIFY FAIL")
        return lines

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "ell": self.ell,
            "r": self.r,
            "k": self.k,
            "noninvertible": [list(key) for key in self.noninvertible],
            "direct_sum_failures": list(self.direct_sum_failures),
            "alignment_failures": [list(key) for key in self.alignment_failures],
        }


@dataclass(frozen=True)
class BoundReport:
    """Certified comparison of the family size against 4 r ln(ell)."""

    k: int
    ell: int
    r: int
    bound_approx: float
    within_bound: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True, repr=False)
class MsrSubspaceFamily:
    """k subspaces of F^ell (dim ell/r each) with an (r-1)-slot map grid."""

    ell: int
    r: int
    spec: FieldSpec
    subspaces: tuple[Subspace, ...]
    maps: tuple[tuple[Matrix, ...], ...]
    _report: VerificationReport | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        object.__setattr__(self, "maps", tuple(tuple(row) for row in self.maps))
        ell, r, spec, subspaces, maps = self.ell, self.r, self.spec, self.subspaces, self.maps
        if r < 1 or ell < 1 or ell % r != 0:
            raise StructuralError(f"need r >= 1 dividing ell, got ell={ell}, r={r}")
        if len(maps) != len(subspaces):
            raise StructuralError(f"{len(subspaces)} subspaces but {len(maps)} map rows")
        for i, sub in enumerate(subspaces):
            if sub.spec != spec:
                raise StructuralError(f"subspace {i} over {sub.spec!r}, family over {spec!r}")
            if sub.ambient_dim != ell:
                raise StructuralError(f"subspace {i} lives in F^{sub.ambient_dim}, not F^{ell}")
            if sub.dim != ell // r:
                raise StructuralError(f"subspace {i} has dim {sub.dim}, expected {ell // r}")
        for i, row in enumerate(maps):
            if len(row) != r - 1:
                raise StructuralError(f"map row {i} has {len(row)} slots, expected {r - 1}")
            for j, phi in enumerate(row, start=1):
                if phi.spec != spec:
                    raise StructuralError(f"map ({i},{j}) over {phi.spec!r}")
                if phi.shape != (ell, ell):
                    raise StructuralError(f"map ({i},{j}) has shape {phi.shape}")

    @property
    def k(self) -> int:
        return len(self.subspaces)

    def map_matrix(self, i: int, j: int) -> Matrix:
        """Map of member i at slot j; slot 0 is the identity."""
        if not 0 <= i < self.k:
            raise StructuralError(f"member index {i} outside range({self.k})")
        if not 0 <= j <= self.r - 1:
            raise StructuralError(f"slot {j} outside 0..{self.r - 1}")
        if j == 0:
            return Matrix.identity(self.spec, self.ell)
        return self.maps[i][j - 1]

    def verify(self) -> VerificationReport:
        """Recompute invertibility, regeneration, and alignment from scratch
        on the first call; later calls return the same report.

        Members go in chunks of r, whose stacked bases are ell x ell like a
        map. Per chunk, map row o and slot j, one product gives each member's
        images Y = H_t @ phi_{o,j} (d = ell/r rows), and one stacked product
        with its annihilator basis N_t gives Y @ N_t^T. N_t has 1 at free
        column f and -H_t[:, f] at the pivots P, so that is R[:, free] for
        R = Y - Y[:, P] @ H_t, which is zero at P, and zero exactly when the
        images lie in H_t. phi(H_t) == H_t when R is zero and phi is
        invertible or Y[:, P] has full rank. For t == o, [H_t; Y] stacked
        over j has rank d plus that of R[:, free] stacked over j, and rank
        ell exactly when the images sum directly to F^ell."""
        if self._report is not None:
            return self._report
        ell, r, p = self.ell, self.r, self.spec.p
        d = ell // r
        invertible = {}
        for i, row in enumerate(self.maps):
            for j, phi in enumerate(row, start=1):
                invertible[(i, j)] = phi.rank() == ell
        direct_sum = {i: d == ell for i in range(self.k)}  # r = 1: no maps
        alignment = {}
        for first in range(0, self.k, r):
            # r members at a time: all k at once raised sweep's peak RSS by 6%
            chunk = self.subspaces[first : first + r]
            bases = np.concatenate([sub.basis._a for sub in chunk])
            annihilators = np.array([sub.annihilator_basis()._a.T for sub in chunk])
            for other, row in enumerate(self.maps):
                regeneration = []
                for j, phi in enumerate(row, start=1):
                    images = _product(bases, phi._a, p).reshape(len(chunk), d, ell)
                    residuals = _product(images, annihilators, p)
                    members = zip(chunk, images, residuals)
                    for t, (sub, image, residual) in enumerate(members, start=first):
                        if t == other:
                            regeneration.append(residual)
                            continue
                        alignment[(t, other, j)] = not np.count_nonzero(residual) and (
                            invertible[(other, j)]
                            or Matrix._adopt(self.spec, image[:, sub._pivots]).rank() == d
                        )
                if regeneration:
                    rank = Matrix._adopt(self.spec, np.concatenate(regeneration)).rank()
                    direct_sum[other] = d + rank == ell
        alignment = {key: alignment[key] for key in sorted(alignment)}  # member-major
        report = VerificationReport(
            ell=self.ell,
            r=self.r,
            k=self.k,
            invertible=MappingProxyType(invertible),
            direct_sum=MappingProxyType(direct_sum),
            alignment=MappingProxyType(alignment),
        )
        object.__setattr__(self, "_report", report)
        return report

    def bound_check(self) -> BoundReport:
        within = compare_to_log_multiple(self.k, Fraction(4 * self.r), self.ell) < 0
        return BoundReport(
            k=self.k,
            ell=self.ell,
            r=self.r,
            bound_approx=4 * self.r * math.log(self.ell),
            within_bound=within,
        )

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "r": self.r,
            "p": self.spec.p,
            "subspaces": [sub.to_json_dict() for sub in self.subspaces],
            "maps": [[phi.to_json_dict() for phi in row] for row in self.maps],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> MsrSubspaceFamily:
        payload = loaded(payload, dict, "family")
        spec = FieldSpec(loaded(payload["p"], int, "p"))
        subspaces = [
            Subspace.from_json_dict(d, spec) for d in loaded(payload["subspaces"], list, "subspaces")
        ]
        maps = [
            [Matrix.from_json_dict(d, spec) for d in loaded(row, list, "maps row")]
            for row in loaded(payload["maps"], list, "maps")
        ]
        ell, r = loaded(payload["ell"], int, "ell"), loaded(payload["r"], int, "r")
        return cls(ell, r, spec, subspaces, maps)

    def __repr__(self) -> str:
        return (
            f"MsrSubspaceFamily(k={self.k}, ell={self.ell}, r={self.r}, over {self.spec!r})"
        )


# ----------------------------------------------------------------------
# certified comparison against c * ln(ell)

def compare_to_log_multiple(value, coeff: Fraction, ell: int) -> int:
    """Certified sign of value - coeff * ln(ell) for rational value and
    coeff > 0, which is the sign of e^q - ell for q = value / coeff. No
    floats: for q > 0 the partial sums S of q^n/n! bound e^q from below and,
    once n + 1 > q, S + t (n+1)/(n+1-q) bounds it from above, t = q^n/n! the
    next term. One of them decides, because e^q is irrational for every
    rational q != 0."""
    if ell < 1:
        raise BadParams(f"ell must be >= 1, got {ell}")
    value = Fraction(value)
    coeff = Fraction(coeff)
    if coeff <= 0:
        raise BadParams("coefficient must be positive")
    if ell == 1:
        return (value > 0) - (value < 0)
    q = value / coeff
    if q <= 0:
        return -1
    a, b = q.as_integer_ratio()
    top, bottom = Fraction(ell).as_integer_ratio()
    # S sums the terms below n; in integers, with q = a/b and ell = top/bottom,
    # bottom * S = total / scale and bottom * t = term / scale, scale = b^n n!
    total, term, scale, n = 0, bottom, 1, 0
    while True:
        if total > top * scale:
            return 1
        step = (n + 1) * b
        if step > a and (total - top * scale) * (step - a) + term * step < 0:
            return -1
        total, term, scale, n = (total + term) * step, term * a, scale * step, n + 1


# ----------------------------------------------------------------------
# tensor-power construction

def tensor_family_size(r: int, m: int, spec: FieldSpec) -> int:
    """The (r+1)*m members of construct_tensor_family(r, m, spec), after
    the checks on r, m and p that it makes first; nothing is built."""
    if r < 2 or m < 1:
        raise BadParams(f"need r >= 2 and m >= 1, got r={r}, m={m}")
    if spec.p <= 2:
        raise FieldTooSmall(f"construction needs p > 2, got {spec!r}")
    return (r + 1) * m


def construct_tensor_family(
    r: int, m: int, spec: FieldSpec, scaling: int | FieldElement = 2, *,
    members: Sequence[int] | None = None,
) -> MsrSubspaceFamily:
    """Family with ell = r**m and (r+1)*m members over GF(p), p > 2.

    Fix r+1 vectors in F^r: the standard basis e_0..e_{r-1} plus
    v_r = -(e_0 + ... + e_{r-1}), so that any r of them form a basis and
    they sum to zero. F^ell is the m-fold tensor power of F^r. Member
    (slot, i) is the span of all basis tensors with v_i pinned at that slot
    (free slots ranging over the basis vectors); its maps scale, inside the
    tensor basis built from indices other than i, exactly those tensors
    whose slot entry equals i+t mod r+1 by the constant `scaling`, and leave
    the rest alone. Members are ordered slot-major: index = slot*(r+1) + i.

    members, if given, lists distinct member indices in range((r+1)*m); only
    those members are built, in that order, and the family holds exactly the
    subspaces and maps the full family has at those indices. A repeated,
    out-of-range or non-integer index raises BadParams, and a scaling that
    is neither an integer nor an element of spec raises BadLambda.
    """
    size = tensor_family_size(r, m, spec)
    if isinstance(scaling, FieldElement):
        if scaling.spec != spec:
            raise BadLambda(f"scaling over {scaling.spec!r}, family over {spec!r}")
        lam = scaling.value
    elif _is_integer(scaling):
        lam = int(scaling) % spec.p
    else:
        raise BadLambda(f"scaling must be an int or field element, got {type(scaling).__name__}")
    if lam in (0, 1):
        raise BadLambda(f"scaling must avoid {{0, 1}}, got {lam} in {spec!r}")
    members = range(size) if members is None else tuple(members)
    in_range = all(_is_integer(c) and 0 <= c < size for c in members)
    if not in_range or len(set(members)) != len(members):
        raise BadParams(f"members must be distinct indices in range({size}), got {list(members)}")

    ell = r**m
    vectors = Matrix.identity(spec, r).to_lists() + [[-1] * r]  # e_0..e_{r-1}, v_r

    def at_slot(slot: int, block: Matrix) -> Matrix:
        # I^(x)slot (x) block (x) I^(x)(m-1-slot), acting on one tensor factor
        before = Matrix.identity(spec, r**slot)
        after = Matrix.identity(spec, r ** (m - 1 - slot))
        return before.kron(block).kron(after)

    # Per excluded index i, the tensors of the other r vectors form the basis
    # B = V_i^(x)m of F^ell. Scaling by lam the basis tensors whose slot entry
    # is s is the map B^-1 D B, D diagonal; by the mixed-product property it
    # is V_i^-1 D_s V_i at that slot (D_s the r x r diagonal part) and the
    # identity at every other slot.
    factors = {}
    for i in sorted({c % (r + 1) for c in members}):
        allowed = [idx for idx in range(r + 1) if idx != i]
        inverse = Matrix(spec, [vectors[idx] for idx in allowed]).invert()
        member_factors = []
        for t in range(1, r):
            scaled = (i + t) % (r + 1)
            rows = [[lam * v for v in vectors[idx]] if idx == scaled else vectors[idx]
                    for idx in allowed]
            member_factors.append(inverse @ Matrix(spec, rows))
        factors[i] = member_factors

    subspaces = []
    maps = []
    for slot, i in (divmod(c, r + 1) for c in members):
        pinned = at_slot(slot, Matrix.row_vector(spec, vectors[i]))
        subspaces.append(Subspace.span_of(pinned))
        maps.append([at_slot(slot, factor) for factor in factors[i]])

    return MsrSubspaceFamily(ell, r, spec, subspaces, maps)
