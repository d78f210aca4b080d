"""The repair layer's one-elimination answers against the plain definitions
they replace.

is_direct_sum_full ranks the stacked bases once; check_msr_scheme decides
regeneration with one inverse and interference with one solve per helper,
and repair_node decodes with those same results; and a repair matrix is
ranked when its scheme is built, not on every check. The oracles below are
the definitions: the pairwise Subspace.sum fold, equality of all r spans,
and one solve per (parity unit, helper).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrlab.errors import IndexOutOfRange, SchemeInvalid
from msrlab.field import FieldSpec
from msrlab.matrix import Matrix
from msrlab.repair import (
    BandwidthReport,
    ConstantRepairScheme,
    GeneralRepairScheme,
    RepairResult,
    SchemeReport,
    VectorCodeSystematic,
    _node_solution,
    as_block,
    check_msr_scheme,
    cutset_bound,
    extract_family,
    random_constant_instance,
    repair_node,
)
from msrlab.subspace import Subspace, is_direct_sum_full

PRIMES = (2, 3, 2**31 - 1)
# the shapes (n, k, ell) the repair benchmark cycles through
WORKLOAD_SHAPES = ((4, 2, 2), (5, 3, 4), (6, 4, 4), (5, 3, 8), (5, 2, 9), (5, 3, 16), (6, 4, 16))


# ---------------------------------------------------------------- oracles

def direct_sum_by_fold(parts) -> bool:
    ambient = parts[0].ambient_dim
    if sum(part.dim for part in parts) != ambient:
        return False
    running = parts[0]
    for part in parts[1:]:
        running = running.sum(part)
    return running.dim == ambient


def report_by_spans(code, scheme, m) -> SchemeReport:
    """Both conditions straight from the definition: r spans per node."""
    def spans(node):
        return [
            Subspace.span_of(scheme.matrix_for(i, m) @ code.parity[i][node])
            for i in range(code.r)
        ]

    interference = []
    for other in range(code.k):
        if other != m:
            group = spans(other)
            interference.append((other, all(s == group[0] for s in group[1:])))
    return SchemeReport(m, direct_sum_by_fold(spans(m)), tuple(interference))


def repair_by_units(code, scheme, m, blocks) -> RepairResult:
    """The decode with one solve per (parity unit, helper)."""
    k, r, ell, spec = code.k, code.r, code.ell, code.spec
    stored = {node: as_block(spec, ell, blocks[node]) for node in range(code.n) if node != m}
    sent = {k + i: scheme.matrix_for(i, m) @ stored[k + i] for i in range(r)}
    representative = {}
    for other in range(k):
        if other != m:
            representative[other] = scheme.matrix_for(0, m) @ code.parity[0][other]
            sent[other] = representative[other] @ stored[other]
    cleaned = []
    for i in range(r):
        answer = sent[k + i]
        for other in range(k):
            if other != m:
                contribution = scheme.matrix_for(i, m) @ code.parity[i][other]
                factor = representative[other].solve_left(contribution)
                answer = answer - factor @ sent[other]
        cleaned.append(answer)
    stacked = Matrix.vstack([scheme.matrix_for(i, m) @ code.parity[i][m] for i in range(r)])
    per_helper = tuple(sorted((node, vec.rows) for node, vec in sent.items()))
    return RepairResult(
        node=m,
        block=stacked.invert() @ Matrix.vstack(cleaned),
        transmissions=tuple(sorted(sent.items())),
        bandwidth=BandwidthReport(
            per_helper=per_helper,
            total=sum(count for _, count in per_helper),
            cutset=cutset_bound(code.n, k, ell),
        ),
    )


# ---------------------------------------------------------------- helpers

def random_matrix(spec, rows, cols, rng) -> Matrix:
    return Matrix(spec, [[rng.randrange(spec.p) for _ in range(cols)] for _ in range(rows)])


def random_full_row_rank(spec, rows, cols, rng) -> Matrix:
    while True:
        candidate = random_matrix(spec, rows, cols, rng)
        if candidate.rank() == rows:
            return candidate


def random_invertible(spec, size, rng) -> Matrix:
    return random_full_row_rank(spec, size, size, rng)


def with_parity(code, i, j, block) -> VectorCodeSystematic:
    parity = [list(row) for row in code.parity]
    parity[i][j] = block
    return VectorCodeSystematic(code.n, code.k, code.ell, code.spec, parity)


# ---------------------------------------------------------------- direct sums

@st.composite
def part_lists(draw):
    spec = FieldSpec(draw(st.sampled_from(PRIMES)))
    ambient = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(0, 2), st.integers(0, spec.p - 1))

    def rows(count):
        data = draw(st.lists(
            st.lists(entry, min_size=ambient, max_size=ambient), min_size=count, max_size=count
        ))
        return Matrix(spec, data) if data else Matrix.zeros(spec, 0, ambient)

    if draw(st.booleans()):
        # the rows of one square matrix split into consecutive groups: the
        # dimensions often add up, and the sum is direct when it is invertible
        square = rows(ambient).to_lists()
        cuts = sorted(draw(st.lists(st.integers(0, ambient), max_size=3)))
        bounds = [0] + cuts + [ambient]
        return [
            Subspace(spec, ambient, Matrix(spec, square[lo:hi]))
            if hi > lo else Subspace.zero(spec, ambient)
            for lo, hi in zip(bounds, bounds[1:])
        ]
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("zero", "full", "repeat", "random")))
        if kind == "zero":
            parts.append(Subspace.zero(spec, ambient))
        elif kind == "full":
            parts.append(Subspace.full(spec, ambient))
        elif kind == "repeat" and parts:
            parts.append(draw(st.sampled_from(parts)))
        else:
            parts.append(Subspace(spec, ambient, rows(draw(st.integers(0, ambient)))))
    return parts


@settings(max_examples=300, deadline=None)
@given(part_lists())
def test_direct_sum_matches_pairwise_fold(parts):
    assert is_direct_sum_full(parts) == direct_sum_by_fold(parts)


# ---------------------------------------------------------------- scheme checks

def assert_checks_match(code, scheme):
    for m in range(code.k):
        assert check_msr_scheme(code, scheme, m) == report_by_spans(code, scheme, m)


@pytest.mark.parametrize("shape", WORKLOAD_SHAPES + ((4, 1, 3),))
def test_check_matches_span_equality(shape):
    n, k, ell = shape
    rng = random.Random(str(shape))
    for p in (3, 7, 2**31 - 1):
        spec = FieldSpec(p)
        code, scheme = random_constant_instance(n, k, ell, rng, spec)
        r = n - k
        assert_checks_match(code, scheme)
        # one parity block swapped, one repair matrix swapped, a random grid
        broken = with_parity(code, rng.randrange(1, r), rng.randrange(k),
                             random_invertible(spec, ell, rng))
        assert_checks_match(broken, scheme)
        rows = list(scheme.matrices)
        rows[rng.randrange(k)] = random_full_row_rank(spec, ell // r, ell, rng)
        assert_checks_match(code, ConstantRepairScheme(rows))
        grid = [[random_full_row_rank(spec, ell // r, ell, rng) for _ in range(k)] for _ in range(r)]
        assert_checks_match(code, GeneralRepairScheme(grid))


def test_check_separates_regeneration_from_interference():
    """Node 0 keeps its own blocks, so it still regenerates, but the swapped
    C[1][2] no longer aligns with C[0][2] through S_0."""
    rng = random.Random(4)
    code, scheme = random_constant_instance(6, 4, 16, rng)
    broken = with_parity(code, 1, 2, random_invertible(code.spec, 16, rng))
    report = check_msr_scheme(broken, scheme, 0)
    assert report.regeneration_ok
    assert dict(report.interference_ok) == {1: True, 2: False, 3: True}
    assert report == report_by_spans(broken, scheme, 0)


def test_check_with_one_parity_unit():
    # r = 1: one span per node, regeneration needs it full, interference is vacuous
    rng = random.Random(9)
    spec = FieldSpec(5)
    code = VectorCodeSystematic(
        3, 2, 3, spec, [[random_invertible(spec, 3, rng) for _ in range(2)]]
    )
    scheme = ConstantRepairScheme((random_invertible(spec, 3, rng),) * 2)
    assert_checks_match(code, scheme)
    assert all(check_msr_scheme(code, scheme, m).ok for m in range(2))


# ---------------------------------------------------------------- repair

@pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
def test_repair_matches_per_unit_decode(shape):
    n, k, ell = shape
    rng = random.Random(str(shape))
    for p in (3, 7, 2**31 - 1):
        code, scheme = random_constant_instance(n, k, ell, rng, FieldSpec(p))
        data = [[rng.randrange(p) for _ in range(ell)] for _ in range(k)]
        blocks = code.encode(data)
        for m in range(k):
            got = repair_node(code, scheme, m, blocks)
            assert got == repair_by_units(code, scheme, m, blocks)
            assert got.block == blocks[m]


# ---------------------------------------------------------------- validation done once

def test_rank_deficient_repair_matrices_are_refused_when_built():
    spec = FieldSpec(3)
    good = Matrix(spec, [[1, 0, 0, 0], [0, 1, 0, 0]])
    flat = Matrix(spec, [[1, 2, 0, 1], [2, 1, 0, 2]])  # second row = 2 * first
    with pytest.raises(SchemeInvalid, match="node 1 is not full row rank"):
        ConstantRepairScheme((good, flat))
    with pytest.raises(SchemeInvalid, match=r"\(1,0\) is not full row rank"):
        GeneralRepairScheme(((good, good), (flat, good)))
    with pytest.raises(SchemeInvalid):
        ConstantRepairScheme((Matrix.zeros(spec, 1, 4),))


def counted_rref(monkeypatch) -> list:
    """Every matrix Matrix.rref is called on from now on, in call order."""
    eliminated = []
    real = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: eliminated.append(self) or real(self))
    return eliminated


def test_full_check_ranks_no_repair_matrix(monkeypatch):
    n, k, ell = 6, 4, 16
    code, scheme = random_constant_instance(n, k, ell, random.Random(1))
    # the instance's own check already solved every node of `scheme`
    fresh = ConstantRepairScheme(scheme.matrices)
    eliminated = counted_rref(monkeypatch)
    reports = [check_msr_scheme(code, fresh, m) for m in range(k)]
    assert all(report.ok for report in reports)
    # per node: one inverse of its own stacked shares, one solve per other node
    assert len(eliminated) == k * k == 16
    assert not any(mat is repair for mat in eliminated for repair in fresh.matrices)


def test_repair_node_eliminates_once_per_question(monkeypatch):
    n, k, ell = 6, 4, 16
    rng = random.Random(1)
    code, scheme = random_constant_instance(n, k, ell, rng)
    blocks = code.encode([[rng.randrange(3) for _ in range(ell)] for _ in range(k)])
    fresh = ConstantRepairScheme(scheme.matrices)
    eliminated = counted_rref(monkeypatch)
    assert repair_node(code, fresh, 2, blocks).block == blocks[2]
    # one inverse of node 2's stacked shares, one solve per other node, no re-check
    assert len(eliminated) == k == 4


def test_a_node_multiplies_each_share_once(monkeypatch):
    n, k, ell = 6, 4, 16
    code, scheme = random_constant_instance(n, k, ell, random.Random(1))
    fresh = ConstantRepairScheme(scheme.matrices)
    products = []
    real = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(a) or real(a, b))
    assert _node_solution(code, fresh, 2)[0].ok
    # the r shares S_{i,m} C[i][m'] of each node m', and nothing more: the
    # other nodes solve against the first share already stacked
    assert len(products) == (n - k) * k == 8


def test_each_node_is_solved_once_per_code_and_scheme(monkeypatch):
    n, k, ell = 6, 4, 16
    rng = random.Random(3)
    code, scheme = random_constant_instance(n, k, ell, rng)
    blocks = code.encode([[rng.randrange(3) for _ in range(ell)] for _ in range(k)])
    reports = [check_msr_scheme(code, scheme, m) for m in range(k)]
    results = [repair_node(code, scheme, m, blocks) for m in range(k)]
    twin_code = VectorCodeSystematic(code.n, code.k, code.ell, code.spec, code.parity)
    twin_scheme = ConstantRepairScheme(scheme.matrices)
    eliminated = counted_rref(monkeypatch)

    # a second check, repair or extraction on the same pair solves nothing again
    assert [check_msr_scheme(code, scheme, m) for m in range(k)] == reports
    assert [repair_node(code, scheme, m, blocks) for m in range(k)] == results
    assert eliminated == []
    unchecked = extract_family(code, scheme, check_scheme=False)
    building = len(eliminated)  # the member spans and the C[0][m] inverses
    assert extract_family(code, scheme) == unchecked
    assert len(eliminated) == 2 * building

    # an equal but distinct code or scheme is solved afresh, to the same report
    for pair in ((twin_code, scheme), (code, twin_scheme)):
        eliminated.clear()
        assert check_msr_scheme(*pair, 1) == reports[1]
        assert len(eliminated) == k

    # kept solutions change no error: a bad node index and a failing node still raise
    for bad in (-1, k):
        with pytest.raises(IndexOutOfRange):
            check_msr_scheme(code, scheme, bad)
    broken = with_parity(code, 1, 2, random_invertible(code.spec, ell, rng))
    for _ in range(2):
        assert not check_msr_scheme(broken, scheme, 0).ok
        with pytest.raises(SchemeInvalid, match="scheme fails at node 0"):
            repair_node(broken, scheme, 0, blocks)


# ---------------------------------------------------------------- seeded instances

# sha256 of json.dumps([code, scheme, rng.random() after the call]) over the
# benchmark's repair shapes and seeds 0..19, recorded while every instance
# was still drawn from a fully built tensor family
SEEDED_INSTANCES_SHA256 = "ccdd5650b98824156e86e43a208aff34873ab5fc639ad5f82b6a97d3f84f49d8"


def test_seeded_instances_are_pinned():
    digest = hashlib.sha256()
    for n, k, ell in WORKLOAD_SHAPES:
        for seed in range(20):
            rng = random.Random(seed)
            code, scheme = random_constant_instance(n, k, ell, rng)
            payload = [code.to_json_dict(), scheme.to_json_dict(), rng.random()]
            digest.update(json.dumps(payload).encode())
    assert digest.hexdigest() == SEEDED_INSTANCES_SHA256
