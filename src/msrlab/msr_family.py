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
from .matrix import Matrix, _float_product, _product, _ranks, loaded
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

        For member H_t (pivots P, free columns F) and the map phi of row o,
        slot j, the images are Y = H_t @ phi (d = ell/r rows). The
        annihilator basis N_t has 1 at free column f and -H_t[:, f] at P, so
        Y @ N_t^T is R[:, F] for R = Y - Y[:, P] @ H_t, zero exactly when
        the images lie in H_t. phi(H_t) == H_t when R is zero and phi is
        invertible or Y[:, P] has full rank. For t == o, [H_t; Y] stacked
        over j has rank d plus that of R[:, F] stacked over j, and rank ell
        exactly when the images sum directly to F^ell. A coordinate member,
        one nonzero per basis row, is span(e_P): Y is phi[P] and R[:, F] is
        phi[P][:, F], which one gather per map reads for all of them. The
        other members go in chunks of r, the maps in stacks of at most 2**14
        entries (at least one map). Per chunk and stack, one product gives
        every Y and one every Y @ N_t^T, and one max over the last axis says
        which members' R[:, F] is nonzero. Inside `_float_product`'s bound,
        ell * (p-1)**2 < 2**24, they run on float32 residues cast once per
        chunk and stack; outside it on int64 through `_product`. Ranks come
        from two batched peels (`_ranks`): one of all k(r-1) maps, one of
        all k regeneration stacks."""
        if self._report is not None:
            return self._report
        ell, r, p = self.ell, self.r, self.spec.p
        d = ell // r
        keys = [(i, j) for i in range(self.k) for j in range(1, r)]
        maps = [phi._a for row in self.maps for phi in row]
        invertible = {key: rank == ell for key, rank in zip(keys, _ranks(maps, self.spec))}
        exact32 = ell * (p - 1) ** 2 < 2**24  # every dot product is a float32 integer
        carrier, product = (np.float32, _float_product) if exact32 else (np.int64, _product)
        coordinate, others = [], []
        for t, sub in enumerate(self.subspaces):
            (coordinate if sub.is_coordinate else others).append(t)
        # r members at a time: all k at once raised sweep's peak RSS by 6%
        groups = [coordinate] + [others[first : first + r] for first in range(0, len(others), r)]
        chunks = []  # (members, pivots, flat (P, F) indices or bases, annihilators)
        for members in filter(None, groups):
            chunk = [self.subspaces[t] for t in members]
            pivots = np.array([sub._pivots for sub in chunk])
            if members is coordinate:
                free = np.array([sub.basis._free_columns(sub._pivots) for sub in chunk])
                chunks.append((members, pivots, pivots[:, :, None] * ell + free[:, None, :], None))
            else:
                bases = np.concatenate([sub.basis._a for sub in chunk], dtype=carrier)
                annihilators = np.array([s.annihilator_basis()._a.T for s in chunk], dtype=carrier)
                chunks.append((members, pivots, bases, annihilators))
        alignment, stacks = {}, np.empty((self.k, (r - 1) * d, ell - d), dtype=np.int64)
        size = max(1, 2**14 // ell**2)  # all maps in one stack raised sweep's peak RSS by 3 MiB
        for first in range(0, len(keys), size):
            batch = keys[first : first + size]
            stack = np.array(maps[first : first + size], dtype=carrier)
            for members, pivots, bases, annihilators in chunks:
                if annihilators is None:
                    residuals = stack.reshape(len(batch), -1).take(bases, axis=1)
                else:
                    images = product(bases, stack, p).reshape(len(batch), len(members), d, ell)
                    residuals = product(images, annihilators, p)
                # residues >= 0: > 0 where Y leaves H_t
                moved = residuals.reshape(len(batch), len(members), -1).max(-1)
                for b, (other, j) in enumerate(batch):
                    if not invertible[(other, j)]:  # each member's Y[:, P]
                        own = stack[b][pivots] if annihilators is None else images[b]
                        at_pivots = np.take_along_axis(own, pivots[:, None, :], 2).astype(np.int64)
                    for n, t in enumerate(members):
                        if t == other:
                            stacks[t, (j - 1) * d : j * d] = residuals[b, n]
                            continue
                        alignment[(t, other, j)] = not moved[b, n] and (
                            invertible[(other, j)]
                            or Matrix._adopt(self.spec, at_pivots[n]).rank() == d
                        )
        direct_sum = {t: d + rank == ell for t, rank in enumerate(_ranks(list(stacks), self.spec))}
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

    Nothing is inverted, multiplied or eliminated. A map is I (x) F (x) I for
    an r x r factor F at the slot, built in closed form, so F[a, b] is placed
    straight at row (before, a, after) and column (before, b, after), one
    assignment per slot for all its maps. The basis I (x) u (x) I, u = v_i
    scaled to a first nonzero of 1 (e_i, or all ones for v_r), is placed the
    same way and is already the canonical RREF, which Subspace keeps as it is.

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

    ell, p = r**m, spec.p
    vectors = np.vstack([np.eye(r, dtype=np.int64), np.full((1, r), p - 1)])  # e_0..e_{r-1}, v_r

    # Per excluded index i, the tensors of the other r vectors form the basis
    # B = V_i^(x)m of F^ell. Scaling by lam the basis tensors whose slot entry
    # is s is the map B^-1 D B, D diagonal; by the mixed-product property it
    # is V_i^-1 D_s V_i at that slot and the identity at every other slot.
    # Member i's t-th map has s = i+t mod r+1; as D_s = I + (lam-1) E_ss, its
    # factor is I + (lam-1) c (x) v_s, c = V_i^-1 e_s = e_s - e_i (e_r read as 0).
    excluded = np.arange(r + 1)[:, None]
    scaled = (excluded + np.arange(1, r)) % (r + 1)
    units = np.eye(r + 1, r, dtype=np.int64)  # e_0..e_{r-1}, then e_r read as 0
    factors = (units[scaled] - units[excluded])[..., None] * vectors[scaled][..., None, :]
    factors *= lam - 1
    factors += np.eye(r, dtype=np.int64)
    factors %= p  # factors[i, t - 1]: member i's t-th factor

    built = {}
    for slot in sorted({c // (r + 1) for c in members}):  # only the indices present there
        present = sorted(c % (r + 1) for c in members if c // (r + 1) == slot)
        before, after = r**slot, r ** (m - 1 - slot)
        # v_i scaled to a first nonzero of 1: e_i, or all ones for v_r
        bases = _at_slot(vectors[present][:, None, :] != 0, before, after)
        maps = _at_slot(factors[present].reshape(-1, r, r), before, after)
        for n, i in enumerate(present):
            pinned = Subspace(spec, ell, Matrix._adopt(spec, bases[n]))
            row = [Matrix._adopt(spec, phi) for phi in maps[n * (r - 1) : (n + 1) * (r - 1)]]
            built[slot * (r + 1) + i] = pinned, row
    return MsrSubspaceFamily(
        ell, r, spec, [built[c][0] for c in members], [built[c][1] for c in members]
    )


def _at_slot(blocks: np.ndarray, before: int, after: int) -> np.ndarray:
    """I_before (x) block (x) I_after for each h x w block of the stack,
    frozen: entry block[i, j] sits at row (b, i, a) and column (b, j, a), and
    every other entry is zero. One assignment places the whole stack."""
    n, h, w = blocks.shape
    b = np.arange(before)[:, None, None, None]
    i, j, a = np.arange(h)[:, None, None], np.arange(w)[:, None], np.arange(after)
    width = before * w * after
    flat = ((b * h + i) * after + a) * width + (b * w + j) * after + a  # (before, h, w, after)
    out = np.zeros((n, before * h * after, width), dtype=np.int64)
    out.reshape(n, -1)[:, flat] = blocks[:, None, :, :, None]
    out.setflags(write=False)
    return out
