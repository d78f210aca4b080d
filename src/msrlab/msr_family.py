"""Families of subspaces whose maps fix every other member.

A family over GF(p) consists of subspaces H_0..H_{k-1} of F^ell, each of
dimension ell/r, plus invertible maps phi[i][j] for i in range(k) and slots
j = 1..r-1 (slot 0 is reserved for the identity). Maps act on row vectors
from the right. Two properties make the family useful:

  * regeneration: H_i, phi[i][1](H_i), ..., phi[i][r-1](H_i) sum directly
    to all of F^ell, and
  * alignment: phi[i'][j](H_i) = H_i whenever i' != i.

verify() recomputes both properties, and the invertibility of every map,
from scratch; nothing is trusted from construction time. A family is
immutable, so its report is computed once and kept. Every verified
family obeys the size bound k <= 4 r ln(ell), which bound_check() decides
with exact rational brackets rather than floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .errors import BadLambda, BadParams, FieldTooSmall, StructuralError
from .field import FieldElement, FieldSpec
from .matrix import Matrix
from .subspace import Subspace, is_direct_sum_full


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
        return tuple(sorted(key for key, good in self.invertible.items() if not good))

    @property
    def direct_sum_failures(self) -> tuple[int, ...]:
        return tuple(sorted(i for i, good in self.direct_sum.items() if not good))

    @property
    def alignment_failures(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted(key for key, good in self.alignment.items() if not good))

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
        return {
            "k": self.k,
            "ell": self.ell,
            "r": self.r,
            "bound_approx": self.bound_approx,
            "within_bound": self.within_bound,
        }


class MsrSubspaceFamily:
    """k subspaces of F^ell (dim ell/r each) with an (r-1)-slot map grid."""

    __slots__ = ("ell", "r", "spec", "subspaces", "maps", "_report")

    def __init__(self, ell, r, spec, subspaces, maps):
        subspaces = tuple(subspaces)
        maps = tuple(tuple(row) for row in maps)
        if r < 1 or ell < 1 or ell % r != 0:
            raise StructuralError(f"need r >= 1 dividing ell, got ell={ell}, r={r}")
        if len(maps) != len(subspaces):
            raise StructuralError(
                f"{len(subspaces)} subspaces but {len(maps)} map rows"
            )
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
        self.ell = ell
        self.r = r
        self.spec = spec
        self.subspaces = subspaces
        self.maps = maps
        self._report = None

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
        on the first call; later calls return the same report. phi(H_i) == H_i
        holds when H_i @ phi lies in H_i and phi is invertible or, failing
        that, the coordinates of H_i @ phi in H_i have full rank."""
        if self._report is not None:
            return self._report
        invertible = {}
        for i, row in enumerate(self.maps):
            for j, phi in enumerate(row, start=1):
                invertible[(i, j)] = phi.rank() == self.ell
        direct_sum = {}
        for i, sub in enumerate(self.subspaces):
            parts = [sub] + [sub.apply_map(phi) for phi in self.maps[i]]
            direct_sum[i] = is_direct_sum_full(parts)
        alignment = {}
        for i, sub in enumerate(self.subspaces):
            for other in range(self.k):
                if other == i:
                    continue
                for j, phi in enumerate(self.maps[other], start=1):
                    coords = sub.coordinates(sub.basis @ phi)
                    alignment[(i, other, j)] = coords is not None and (
                        invertible[(other, j)] or coords.rank() == sub.dim
                    )
        self._report = VerificationReport(
            ell=self.ell,
            r=self.r,
            k=self.k,
            invertible=MappingProxyType(invertible),
            direct_sum=MappingProxyType(direct_sum),
            alignment=MappingProxyType(alignment),
        )
        return self._report

    def bound_check(self) -> BoundReport:
        within = compare_to_log_multiple(self.k, Fraction(4 * self.r), self.ell) < 0
        return BoundReport(
            k=self.k,
            ell=self.ell,
            r=self.r,
            bound_approx=4 * self.r * math.log(self.ell),
            within_bound=within,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MsrSubspaceFamily):
            return NotImplemented
        return (
            self.ell == other.ell
            and self.r == other.r
            and self.spec == other.spec
            and self.subspaces == other.subspaces
            and self.maps == other.maps
        )

    def __hash__(self) -> int:
        return hash((self.ell, self.r, self.subspaces, self.maps))

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
        spec = FieldSpec(int(payload["p"]))
        subspaces = [Subspace.from_json_dict(d, spec) for d in payload["subspaces"]]
        maps = [
            [Matrix.from_json_dict(d, spec) for d in row] for row in payload["maps"]
        ]
        return cls(int(payload["ell"]), int(payload["r"]), spec, subspaces, maps)

    def __repr__(self) -> str:
        return (
            f"MsrSubspaceFamily(k={self.k}, ell={self.ell}, r={self.r}, over {self.spec!r})"
        )


# ----------------------------------------------------------------------
# certified comparison against c * ln(ell)

def _atanh_bracket(z: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    # atanh(z) = z + z^3/3 + z^5/5 + ... for 0 <= z < 1; the partial sum is
    # a lower bound and the geometric tail bound gives an upper bound.
    total = Fraction(0)
    power = z
    z2 = z * z
    for n in range(terms):
        total += power / (2 * n + 1)
        power *= z2
    tail = power / ((2 * terms + 1) * (1 - z2))
    return total, total + tail


def _ln_bracket(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Exact rational lower/upper bounds for ln(x), x >= 1."""
    if x < 1:
        raise BadParams(f"ln bracket needs x >= 1, got {x}")
    halvings = 0
    while x >= 2:
        x /= 2
        halvings += 1
    lo = Fraction(0)
    hi = Fraction(0)
    if halvings:
        ln2_lo, ln2_hi = _atanh_bracket(Fraction(1, 3), terms)
        lo += 2 * halvings * ln2_lo
        hi += 2 * halvings * ln2_hi
    if x > 1:
        z = (x - 1) / (x + 1)
        t_lo, t_hi = _atanh_bracket(z, terms)
        lo += 2 * t_lo
        hi += 2 * t_hi
    return lo, hi


def compare_to_log_multiple(value, coeff: Fraction, ell: int) -> int:
    """Certified sign of value - coeff * ln(ell) for rational value and
    coeff > 0. No floats: the ln bracket is refined until it decides, which
    always happens because ln(ell) is irrational for integers ell >= 2."""
    if ell < 1:
        raise BadParams(f"ell must be >= 1, got {ell}")
    value = Fraction(value)
    coeff = Fraction(coeff)
    if coeff <= 0:
        raise BadParams("coefficient must be positive")
    if ell == 1:
        return (value > 0) - (value < 0)
    terms = 8
    while terms <= 1 << 20:
        lo, hi = _ln_bracket(Fraction(ell), terms)
        if value < coeff * lo:
            return -1
        if value > coeff * hi:
            return 1
        terms *= 2
    raise ArithmeticError("log bracket failed to converge")  # pragma: no cover


# ----------------------------------------------------------------------
# tensor-power construction

def construct_tensor_family(
    r: int, m: int, spec: FieldSpec, scaling: int | FieldElement = 2
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
    """
    if r < 2 or m < 1:
        raise BadParams(f"need r >= 2 and m >= 1, got r={r}, m={m}")
    if spec.p <= 2:
        raise FieldTooSmall(f"construction needs p > 2, got {spec!r}")
    if isinstance(scaling, FieldElement):
        if scaling.spec != spec:
            raise BadLambda(f"scaling over {scaling.spec!r}, family over {spec!r}")
        lam = scaling.value
    else:
        lam = int(scaling) % spec.p
    if lam in (0, 1):
        raise BadLambda(f"scaling must avoid {{0, 1}}, got {lam} in {spec!r}")

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
    factors = []
    for i in range(r + 1):
        allowed = [idx for idx in range(r + 1) if idx != i]
        inverse = Matrix(spec, [vectors[idx] for idx in allowed]).invert()
        member_factors = []
        for t in range(1, r):
            scaled = (i + t) % (r + 1)
            rows = [[lam * v for v in vectors[idx]] if idx == scaled else vectors[idx]
                    for idx in allowed]
            member_factors.append(inverse @ Matrix(spec, rows))
        factors.append(member_factors)

    subspaces = []
    maps = []
    for slot in range(m):
        for i in range(r + 1):
            pinned = at_slot(slot, Matrix.row_vector(spec, vectors[i]))
            subspaces.append(Subspace.span_of(pinned))
            maps.append([at_slot(slot, factor) for factor in factors[i]])

    return MsrSubspaceFamily(ell, r, spec, subspaces, maps)
