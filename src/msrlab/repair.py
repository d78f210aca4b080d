"""Systematic vector codes, repair schemes, and bandwidth accounting.

A systematic vector code stores k data blocks of ell field symbols on nodes
0..k-1 and r = n-k parity blocks on nodes k..n-1, with parity unit i holding
sum_j C[i][j] @ data_j for invertible ell x ell blocks C[i][j]. Blocks are
column vectors (ell x 1 matrices).

A repair scheme assigns to every systematic node m and parity unit i a full
row rank (ell/r) x ell matrix S; parity node k+i answers a repair of node m
with S @ (its block), i.e. ell/r symbols. The scheme regenerates node m when
the r row spaces R(S C[i][m]) sum directly to F^ell, and it aligns
interference when for every other systematic node m' the r row spaces
R(S C[i][m']) coincide, so one ell/r symbol message from node m' cancels its
contribution out of every parity answer. Both conditions together are what
check_msr_scheme certifies, and they make repair_node hit the cutset bound
(n-1) ell / (n-k) exactly.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Sequence

from .errors import (
    BadParams,
    IndexOutOfRange,
    MixedFields,
    SchemeInvalid,
    ShapeMismatch,
    Singular,
    StructuralError,
)
from .field import FieldSpec
from .matrix import Matrix, loaded
from .msr_family import MsrSubspaceFamily, construct_tensor_family, tensor_family_size
from .subspace import Subspace, is_direct_sum_full  # noqa: F401 (msrbench traces this binding)


def as_block(spec: FieldSpec, ell: int, values) -> Matrix:
    """Coerce a length-ell sequence (or ell x 1 matrix) to a column block."""
    if isinstance(values, Matrix):
        if values.spec != spec:
            raise MixedFields(f"block over {values.spec!r}, code over {spec!r}")
        if values.shape != (ell, 1):
            raise ShapeMismatch(f"block shape {values.shape}, expected ({ell}, 1)")
        return values
    block = Matrix.column_vector(spec, values)
    if block.rows != ell:
        raise ShapeMismatch(f"block has {block.rows} symbols, expected {ell}")
    return block


@dataclass(frozen=True, eq=False)
class VectorCodeSystematic:
    """Systematic (n, k) vector code with ell symbols per node."""

    n: int
    k: int
    ell: int
    spec: FieldSpec
    parity: tuple[tuple[Matrix, ...], ...]  # [parity unit i][systematic node j]

    def __post_init__(self):
        object.__setattr__(self, "parity", tuple(tuple(row) for row in self.parity))
        r = self.n - self.k
        if self.k < 1 or r < 1:
            raise StructuralError(f"need 1 <= k < n, got n={self.n}, k={self.k}")
        if self.ell < 1:
            raise StructuralError(f"need ell >= 1, got {self.ell}")
        if len(self.parity) != r:
            raise StructuralError(f"{len(self.parity)} parity rows, expected {r}")
        for i, row in enumerate(self.parity):
            if len(row) != self.k:
                raise StructuralError(f"parity row {i} has {len(row)} blocks, expected {self.k}")
            for j, block in enumerate(row):
                if block.spec != self.spec:
                    raise StructuralError(f"parity block ({i},{j}) over {block.spec!r}")
                if block.shape != (self.ell, self.ell):
                    raise StructuralError(f"parity block ({i},{j}) has shape {block.shape}")
                if block.rank() != self.ell:
                    raise StructuralError(f"parity block ({i},{j}) is singular")

    @property
    def r(self) -> int:
        return self.n - self.k

    def encode(self, data: Sequence) -> tuple[Matrix, ...]:
        """All n blocks from the k data blocks."""
        if len(data) != self.k:
            raise ShapeMismatch(f"{len(data)} data blocks, expected {self.k}")
        blocks = tuple(as_block(self.spec, self.ell, d) for d in data)
        stacked = Matrix.vstack(blocks)
        return blocks + tuple(Matrix.hstack(row) @ stacked for row in self.parity)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "ell": self.ell,
            "p": self.spec.p,
            "parity": [[c.to_json_dict() for c in row] for row in self.parity],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> VectorCodeSystematic:
        payload = loaded(payload, dict, "code")
        spec = FieldSpec(loaded(payload["p"], int, "p"))
        parity = [
            [Matrix.from_json_dict(d, spec) for d in loaded(row, list, "parity row")]
            for row in loaded(payload["parity"], list, "parity")
        ]
        n, k, ell = (loaded(payload[key], int, key) for key in ("n", "k", "ell"))
        return cls(n, k, ell, spec, parity)


@dataclass(frozen=True, eq=False)
class ConstantRepairScheme:
    """One repair matrix per systematic node, shared by all parity units."""

    matrices: tuple[Matrix, ...]
    _solutions: dict = field(default_factory=dict, init=False, repr=False)  # keyed by (code, node)

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not self.matrices:
            raise SchemeInvalid("scheme with no repair matrices")
        for m, mat in enumerate(self.matrices):
            if mat.rank() != mat.rows:
                raise SchemeInvalid(f"repair matrix for node {m} is not full row rank")

    def matrix_for(self, parity_unit: int, node: int) -> Matrix:
        return self.matrices[node]

    def to_json_dict(self) -> dict:
        return {
            "kind": "constant",
            "p": self.matrices[0].spec.p,
            "repair": [m.to_json_dict() for m in self.matrices],
        }


@dataclass(frozen=True, eq=False)
class GeneralRepairScheme:
    """Repair matrices indexed by (parity unit, systematic node)."""

    matrices: tuple[tuple[Matrix, ...], ...]
    _solutions: dict = field(default_factory=dict, init=False, repr=False)  # keyed by (code, node)

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(tuple(row) for row in self.matrices))
        if not self.matrices or not self.matrices[0]:
            raise SchemeInvalid("scheme with no repair matrices")
        width = len(self.matrices[0])
        if any(len(row) != width for row in self.matrices):
            raise SchemeInvalid("ragged repair matrix grid")
        for i, row in enumerate(self.matrices):
            for m, mat in enumerate(row):
                if mat.rank() != mat.rows:
                    raise SchemeInvalid(f"repair matrix ({i},{m}) is not full row rank")

    def matrix_for(self, parity_unit: int, node: int) -> Matrix:
        return self.matrices[parity_unit][node]

    def to_json_dict(self) -> dict:
        return {
            "kind": "general",
            "p": self.matrices[0][0].spec.p,
            "repair": [[m.to_json_dict() for m in row] for row in self.matrices],
        }


def scheme_from_json_dict(payload: dict):
    payload = loaded(payload, dict, "scheme")
    if "p" not in payload or "repair" not in payload:
        raise BadParams("scheme payload needs 'kind', 'p' and 'repair' keys")
    spec = FieldSpec(loaded(payload["p"], int, "p"))
    repair = loaded(payload["repair"], list, "repair")
    if payload.get("kind") == "constant":
        return ConstantRepairScheme(tuple(Matrix.from_json_dict(d, spec) for d in repair))
    if payload.get("kind") == "general":
        return GeneralRepairScheme(
            tuple(
                tuple(Matrix.from_json_dict(d, spec) for d in loaded(row, list, "repair row"))
                for row in repair
            )
        )
    raise BadParams(f"unknown scheme kind {reprlib.repr(payload.get('kind'))}")


def _validate_scheme(code: VectorCodeSystematic, scheme):
    r, ell, k = code.r, code.ell, code.k
    if ell % r != 0:
        raise BadParams(f"r = {r} does not divide ell = {ell}")
    if isinstance(scheme, ConstantRepairScheme):
        if len(scheme.matrices) != k:
            raise SchemeInvalid(f"{len(scheme.matrices)} repair matrices for k={k} nodes")
        labelled = [(f"for node {m}", mat) for m, mat in enumerate(scheme.matrices)]
    elif isinstance(scheme, GeneralRepairScheme):
        grid = scheme.matrices
        if len(grid) != r or len(grid[0]) != k:
            raise SchemeInvalid(f"repair grid is {len(grid)}x{len(grid[0])}, expected {r}x{k}")
        labelled = [(f"({i},{m})", mat) for i, row in enumerate(grid) for m, mat in enumerate(row)]
    else:
        raise TypeError(f"unknown scheme type {type(scheme).__name__}")
    for label, mat in labelled:
        if mat.spec != code.spec:
            raise SchemeInvalid(f"repair matrix {label} over {mat.spec!r}")
        if mat.shape != (ell // r, ell):
            raise SchemeInvalid(
                f"repair matrix {label} has shape {mat.shape}, expected ({ell // r}, {ell})"
            )


@dataclass(frozen=True)
class SchemeReport:
    """check_msr_scheme outcome for one systematic node."""

    node: int
    regeneration_ok: bool
    interference_ok: tuple[tuple[int, bool], ...]  # (other node, aligned)

    @property
    def ok(self) -> bool:
        return self.regeneration_ok and all(good for _, good in self.interference_ok)

    def _require_ok(self, scheme_name: str):
        """Raise SchemeInvalid naming this node's failed conditions, unless ok."""
        if not self.ok:
            raise SchemeInvalid(
                f"{scheme_name} fails at node {self.node}: regeneration_ok={self.regeneration_ok}, "
                f"interference_ok={list(self.interference_ok)}"
            )

    def to_json_dict(self) -> dict:
        return {
            "node": self.node,
            "regeneration_ok": self.regeneration_ok,
            "interference_ok": [[m, good] for m, good in self.interference_ok],
            "ok": self.ok,
        }


def _node_solution(code: VectorCodeSystematic, scheme, m: int):
    """The report check_msr_scheme gives for node m, the inverse of node m's
    stacked shares S_{i,m} C[i][m], and for every other node m' the X with
    X @ S_{0,m} C[0][m'] = its stacked shares. None marks an inverse or X
    that does not exist, that is, a failed condition.

    Code and scheme are both immutable, so the triple is solved once per
    (code, node) and kept on the scheme; later calls eliminate nothing."""
    _validate_scheme(code, scheme)
    if not 0 <= m < code.k:
        raise IndexOutOfRange(f"node {m} outside range({code.k})")
    if (code, m) in scheme._solutions:
        return scheme._solutions[code, m]
    solved = {}
    for node in range(code.k):
        shares = [scheme.matrix_for(i, m) @ code.parity[i][node] for i in range(code.r)]
        stacked = Matrix.vstack(shares)
        try:
            if node == m:
                solved[node] = stacked.invert()
            else:
                solved[node] = shares[0].solve_left(stacked)
        except Singular:
            solved[node] = None
    inverse = solved.pop(m)
    interference = tuple((other, factor is not None) for other, factor in solved.items())
    report = SchemeReport(m, inverse is not None, interference)
    scheme._solutions[code, m] = report, inverse, MappingProxyType(solved)
    return scheme._solutions[code, m]


def check_msr_scheme(code: VectorCodeSystematic, scheme, m: int) -> SchemeReport:
    """Certify the two repair conditions at systematic node m. Every S @ C
    has full row rank ell/r (the scheme checks S, the code checks C), so m
    regenerates when its r stacked shares are invertible, and the r row
    spaces for another node coincide when its shares solve against the first."""
    return _node_solution(code, scheme, m)[0]


def cutset_bound(n: int, k: int, ell: int) -> Fraction:
    """Minimum possible repair bandwidth (n-1) ell / (n-k), in symbols."""
    if not 1 <= k < n:
        raise BadParams(f"need 1 <= k < n, got n={n}, k={k}")
    if ell < 1 or ell % (n - k) != 0:
        raise BadParams(f"need (n-k) | ell, got n-k={n - k}, ell={ell}")
    return Fraction((n - 1) * ell, n - k)


@dataclass(frozen=True)
class BandwidthReport:
    """Symbols downloaded per helper during one repair."""

    per_helper: tuple[tuple[int, int], ...]  # (helper node, symbols), sorted
    total: int
    cutset: Fraction

    @property
    def meets_cutset(self) -> bool:
        return Fraction(self.total) == self.cutset

    def to_json_dict(self) -> dict:
        return {
            "per_helper": [[node, count] for node, count in self.per_helper],
            "total": self.total,
            "cutset_numerator": self.cutset.numerator,
            "cutset_denominator": self.cutset.denominator,
        }


@dataclass(frozen=True)
class RepairResult:
    node: int
    block: Matrix  # recovered ell x 1 column
    transmissions: tuple[tuple[int, Matrix], ...]  # (helper node, sent column)
    bandwidth: BandwidthReport


def _repair_result(node: int, block: Matrix, sent: dict, cutset: Fraction) -> RepairResult:
    """The result of a repair in which each helper h sent the column sent[h]."""
    per_helper = tuple(sorted((helper, vec.rows) for helper, vec in sent.items()))
    total = sum(count for _, count in per_helper)
    bandwidth = BandwidthReport(per_helper=per_helper, total=total, cutset=cutset)
    return RepairResult(node, block, tuple(sorted(sent.items())), bandwidth)


def repair_node(
    code: VectorCodeSystematic, scheme, m: int, blocks: Sequence
) -> RepairResult:
    """Rebuild systematic node m from ell/r symbols per surviving node.

    blocks is the full codeword (entry m is ignored and may be None). Every
    parity node k+i sends S_{i,m} @ (its block); every other systematic node
    m' sends S_{0,m} @ C[0][m'] @ (its block), which by alignment determines
    the interference S_{i,m} @ C[i][m'] of node m' inside all r parity answers
    in one solve. Subtracting it leaves the stacked invertible system for m.
    """
    report, inverse, factors = _node_solution(code, scheme, m)
    report._require_ok("scheme")
    k, r, ell, spec = code.k, code.r, code.ell, code.spec
    if len(blocks) != code.n:
        raise ShapeMismatch(f"{len(blocks)} blocks, expected {code.n}")
    stored = {
        node: as_block(spec, ell, blocks[node]) for node in range(code.n) if node != m
    }

    sent: dict[int, Matrix] = {}
    for i in range(r):
        sent[k + i] = scheme.matrix_for(i, m) @ stored[k + i]
    answers = Matrix.vstack([sent[k + i] for i in range(r)])
    for other, factor in factors.items():
        sent[other] = scheme.matrix_for(0, m) @ code.parity[0][other] @ stored[other]
        answers = answers - factor @ sent[other]
    return _repair_result(m, inverse @ answers, sent, cutset_bound(code.n, k, ell))


def extract_family(
    code: VectorCodeSystematic, scheme: ConstantRepairScheme, *, check_scheme: bool = True
) -> MsrSubspaceFamily:
    """Read the subspace family off a constant repair scheme.

    Member m is the row space of S_m; its slot-j map is right multiplication
    by C[j][m] @ C[0][m]^-1. With check_scheme (the default) the scheme must
    pass check_msr_scheme at every node first; pass check_scheme=False to
    build the family structurally and let verify() be the gatekeeper.
    """
    if not isinstance(scheme, ConstantRepairScheme):
        raise SchemeInvalid("extraction needs a constant repair scheme")
    _validate_scheme(code, scheme)
    if check_scheme:
        for m in range(code.k):
            check_msr_scheme(code, scheme, m)._require_ok("constant scheme")
    subspaces = [Subspace.span_of(mat) for mat in scheme.matrices]
    maps = []
    for m in range(code.k):
        base_inverse = code.parity[0][m].invert()
        maps.append([code.parity[j][m] @ base_inverse for j in range(1, code.r)])
    return MsrSubspaceFamily(code.ell, code.r, code.spec, subspaces, maps)


# ----------------------------------------------------------------------
# EVENODD fixture: the classic (4, 2) binary array code with ell = 2.
# Data nodes hold (a1, a2) and (b1, b2); parity node 2 holds
# (a1+b1, a2+b2) and parity node 3 holds (a2+b1, a1+a2+b2).

_GF2 = FieldSpec(2)
_IDENTITY = Matrix(_GF2, [[1, 0], [0, 1]])  # not np.eye, whose first call costs 0.17 MiB
_MIXER = Matrix(_GF2, [[0, 1], [1, 1]])  # (a1,a2) -> (a2, a1+a2)
_TOP = Matrix(_GF2, [[1, 0]])
_BOTTOM = Matrix(_GF2, [[0, 1]])


def evenodd_code() -> VectorCodeSystematic:
    return VectorCodeSystematic(
        n=4, k=2, ell=2, spec=_GF2, parity=((_IDENTITY, _IDENTITY), (_MIXER, _IDENTITY))
    )


def evenodd_scheme() -> GeneralRepairScheme:
    """The published repair rows. Node 0 uses the same row on both parity
    units; node 1 cannot (both its parity coefficients are the identity), so
    the scheme is general, not constant."""
    return GeneralRepairScheme(((_TOP, _BOTTOM), (_TOP, _TOP)))


# Hardcoded parity repairs: helper -> selector row, then recovered block =
# combination @ stacked received symbols (helpers in ascending node order).
_EVENODD_PARITY_PLANS = {
    2: (((0, (1, 0)), (1, (1, 0)), (3, (0, 1))), ((1, 1, 0), (1, 0, 1))),
    3: (((0, (0, 1)), (1, (1, 0)), (2, (1, 1))), ((1, 1, 0), (0, 1, 1))),
}


def evenodd_repair(blocks: Sequence, node: int) -> RepairResult:
    """Repair any of the four EVENODD nodes with one symbol per helper."""
    if node not in range(4):
        raise IndexOutOfRange(f"node {node} outside range(4)")
    if len(blocks) != 4:
        raise ShapeMismatch(f"{len(blocks)} blocks, expected 4")
    if node in (0, 1):
        return repair_node(evenodd_code(), evenodd_scheme(), node, blocks)
    stored = {i: as_block(_GF2, 2, blocks[i]) for i in range(4) if i != node}
    selectors, combination = _EVENODD_PARITY_PLANS[node]
    sent = {
        helper: Matrix(_GF2, [list(row)]) @ stored[helper] for helper, row in selectors
    }
    received = Matrix.vstack([sent[helper] for helper, _ in selectors])
    return _repair_result(node, Matrix(_GF2, combination) @ received, sent, cutset_bound(4, 2, 2))


def evenodd_constant_instance() -> tuple[VectorCodeSystematic, ConstantRepairScheme]:
    """The constant-repair instance EVENODD actually induces.

    Node 1's parity coefficients are both the identity, so no constant row
    can regenerate it; shortening the code there (pin that block to zero and
    drop the node) leaves a (3, 1) code whose node-0 repair row [1 0] is
    EVENODD's own, and it is constant across both parity units.
    """
    code = VectorCodeSystematic(n=3, k=1, ell=2, spec=_GF2, parity=((_IDENTITY,), (_MIXER,)))
    return code, ConstantRepairScheme((_TOP,))


# ----------------------------------------------------------------------
# generation of valid constant-repair instances and the MDS diagnostic

def _random_invertible(spec: FieldSpec, size: int, rng) -> Matrix:
    while True:
        candidate = Matrix(
            spec, [[rng.randrange(spec.p) for _ in range(size)] for _ in range(size)]
        )
        if candidate.rank() == size:
            return candidate


def random_constant_instance(
    n: int, k: int, ell: int, rng, spec: FieldSpec | None = None
) -> tuple[VectorCodeSystematic, ConstantRepairScheme]:
    """A random (n, k) code with a constant repair scheme that provably
    passes check_msr_scheme at every systematic node.

    Blind sampling of parity blocks almost never aligns interference, so the
    instance is built from a verified tensor family instead: pick k of its
    members, conjugate everything by a random change of basis, choose random
    full-rank representatives S_m of the member row spaces, draw C[0][m]
    invertible at random, and let C[j][m] = phi_j @ C[0][m]. The scheme is
    checked before being returned.
    """
    spec = FieldSpec(3) if spec is None else spec
    r = n - k
    if r < 2:
        raise BadParams(f"need r = n - k >= 2, got {r}")
    m_power = round(math.log(ell, r)) if ell > 1 else 0
    if r**m_power != ell or m_power < 1:
        raise BadParams(f"ell = {ell} is not a positive power of r = {r}")
    size = tensor_family_size(r, m_power, spec)
    if size < k:
        raise BadParams(f"tensor family only provides {size} members, need {k}")
    chosen = sorted(rng.sample(range(size), k))
    base = construct_tensor_family(r, m_power, spec, members=chosen)

    conjugator = _random_invertible(spec, ell, rng)
    conjugator_inverse = conjugator.invert()
    subspaces = [sub.apply_map(conjugator) for sub in base.subspaces]
    maps = [[conjugator_inverse @ phi @ conjugator for phi in row] for row in base.maps]

    repair_rows = []
    parity_columns = []
    for m, sub in enumerate(subspaces):
        mixer = _random_invertible(spec, ell // r, rng)
        repair_rows.append(mixer @ sub.basis)
        first = _random_invertible(spec, ell, rng)
        parity_columns.append([first] + [phi @ first for phi in maps[m]])
    parity = tuple(
        tuple(parity_columns[m][i] for m in range(k)) for i in range(r)
    )
    code = VectorCodeSystematic(n=n, k=k, ell=ell, spec=spec, parity=parity)
    scheme = ConstantRepairScheme(tuple(repair_rows))
    for node in range(k):
        report = check_msr_scheme(code, scheme, node)
        if not report.ok:  # pragma: no cover - construction guarantees this
            raise AssertionError(f"generated instance fails its own check at node {node}")
    return code, scheme


def is_mds(code: VectorCodeSystematic) -> bool:
    """Exhaustive MDS diagnostic: every k-subset of nodes determines the
    data. Cost grows as C(n, k); meant for tiny codes only."""
    k, ell, spec = code.k, code.ell, code.spec
    node_rows = []
    for j in range(k):
        blocks = [
            Matrix.identity(spec, ell) if j == col else Matrix.zeros(spec, ell, ell)
            for col in range(k)
        ]
        node_rows.append(Matrix.hstack(blocks))
    for row in code.parity:
        node_rows.append(Matrix.hstack(list(row)))
    for subset in itertools.combinations(range(code.n), k):
        stacked = Matrix.vstack([node_rows[node] for node in subset])
        if stacked.rank() != k * ell:
            return False
    return True
