"""Membership, alignment and construction shortcuts against the plain
definitions they replace.

Subspace.coordinates decides membership from the reduced basis with one
product; verify() decides alignment with it plus a dimension check; and
construct_tensor_family builds every basis and map from Kronecker products.
The oracles below are the definitions: membership as the rank of the
stacked bases, alignment as apply_map(phi) == H, and the tensor family built
row by row, with one ell x ell inverse per excluded index.
"""

from __future__ import annotations

import itertools
import json
import random

import numpy as np
import pytest

from msrlab import msr_family
from msrlab.errors import AmbientMismatch, MixedFields
from msrlab.field import FieldSpec
from msrlab.invariant import composition_isomorphism_check, decay_trace
from msrlab.matrix import Matrix
from msrlab.msr_family import MsrSubspaceFamily, VerificationReport, construct_tensor_family
from msrlab.subspace import Subspace, is_direct_sum_full

GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
BIG = FieldSpec(2**31 - 1)


# ---------------------------------------------------------------- oracles

def contains_by_rank(space: Subspace, rows: Matrix) -> bool:
    return Matrix.vstack([space.basis, rows]).rank() == space.dim


def report_by_definition(family: MsrSubspaceFamily) -> VerificationReport:
    invertible = {
        (i, j): phi.rank() == family.ell
        for i, row in enumerate(family.maps)
        for j, phi in enumerate(row, start=1)
    }
    direct_sum = {
        i: is_direct_sum_full([sub] + [sub.apply_map(phi) for phi in family.maps[i]])
        for i, sub in enumerate(family.subspaces)
    }
    alignment = {
        (i, other, j): sub.apply_map(phi) == sub
        for i, sub in enumerate(family.subspaces)
        for other in range(family.k)
        if other != i
        for j, phi in enumerate(family.maps[other], start=1)
    }
    return VerificationReport(
        ell=family.ell, r=family.r, k=family.k,
        invertible=invertible, direct_sum=direct_sum, alignment=alignment,
    )


def assert_same_report(family: MsrSubspaceFamily):
    got = family.verify()
    want = report_by_definition(family)
    assert dict(got.invertible) == want.invertible
    assert dict(got.direct_sum) == want.direct_sum
    assert dict(got.alignment) == want.alignment
    assert got.to_json_dict() == want.to_json_dict()
    assert got.summary_lines() == want.summary_lines()


def construction_by_rows(r, m, spec, lam) -> MsrSubspaceFamily:
    """The tensor family built one basis tensor at a time."""
    p = spec.p
    vectors = [np.eye(r, dtype=np.int64)[i] for i in range(r)]
    vectors.append(np.full(r, p - 1, dtype=np.int64))

    def tensor_row(indices):
        out = np.ones(1, dtype=np.int64)
        for idx in indices:
            out = np.kron(out, vectors[idx]) % p
        return out.tolist()

    tuples, basis, inverse = {}, {}, {}
    for i in range(r + 1):
        tuples[i] = list(itertools.product([a for a in range(r + 1) if a != i], repeat=m))
        basis[i] = [tensor_row(t) for t in tuples[i]]
        inverse[i] = Matrix(spec, basis[i]).invert()
    subspaces, maps = [], []
    for slot in range(m):
        for i in range(r + 1):
            rows = [tensor_row(f[:slot] + (i,) + f[slot:])
                    for f in itertools.product(range(r), repeat=m - 1)]
            subspaces.append(Subspace.span_of(Matrix(spec, rows)))
            member = []
            for t in range(1, r):
                scaled = (i + t) % (r + 1)
                rows = [[lam * v for v in row] if tup[slot] == scaled else row
                        for tup, row in zip(tuples[i], basis[i])]
                member.append(inverse[i] @ Matrix(spec, rows))
            maps.append(member)
    return MsrSubspaceFamily(r**m, r, spec, subspaces, maps)


# ---------------------------------------------------------------- random data

def random_rows(spec, rows, cols, rng) -> Matrix:
    if rows == 0:
        return Matrix.zeros(spec, 0, cols)
    return Matrix(spec, [[rng.randrange(spec.p) for _ in range(cols)] for _ in range(rows)])


def random_invertible(spec, n, rng) -> Matrix:
    while True:
        mat = random_rows(spec, n, n, rng)
        if mat.rank() == n:
            return mat


def eigen_family(spec, ell, r, k, rng) -> MsrSubspaceFamily:
    """Members spanned by rows of a random invertible P, maps P^-1 D P with
    random diagonals D. A map fixes every member spanned by rows of P, and a
    zero in D makes it singular; whether it still maps a member onto itself
    depends on where the zeros fall, so both dimension branches of the
    alignment check are taken."""
    change = random_invertible(spec, ell, rng)
    inverse = change.invert()
    small = [0, 1, 2] if spec.p > 2 else [0, 1]
    eigenvectors = change.to_lists()
    subspaces = []
    for _ in range(k):
        # mostly spans of eigenvectors, sometimes a random member
        rows = (rng.sample(eigenvectors, ell // r) if rng.random() < 0.8
                else random_invertible(spec, ell, rng).to_lists()[: ell // r])
        subspaces.append(Subspace.span_of(Matrix(spec, rows)))
    maps = []
    for _ in range(k):
        row = []
        for _ in range(r - 1):
            diag = [rng.choice(small + [rng.randrange(spec.p)]) for _ in range(ell)]
            scaled = Matrix(spec, [[d * v for v in vec] for d, vec in zip(diag, eigenvectors)])
            row.append(inverse @ scaled)
        maps.append(row)
    return MsrSubspaceFamily(ell, r, spec, subspaces, maps)


# ---------------------------------------------------------------- membership

@pytest.mark.parametrize("spec", [GF3, FieldSpec(7), BIG], ids=lambda s: f"p{s.p}")
def test_membership_matches_rank(spec):
    rng = random.Random(spec.p)
    for _ in range(60):
        ambient = rng.randrange(1, 7)
        space = Subspace.span_of(random_rows(spec, rng.randrange(ambient + 1), ambient, rng))
        inside = random_rows(spec, rng.randrange(1, 4), space.dim, rng) @ space.basis
        outside = random_rows(spec, rng.randrange(1, 4), ambient, rng)
        for rows in (inside, outside, Matrix.vstack([inside, outside])):
            want = contains_by_rank(space, rows)
            coords = space.coordinates(rows)
            assert (coords is not None) == want
            if coords is not None:
                assert coords @ space.basis == rows
            if rows.rows == 1:
                assert space.contains_vector(rows) == want
                assert space.contains_vector(rows.to_lists()[0]) == want
            other = Subspace.span_of(rows)
            assert space.contains(other) == contains_by_rank(space, other.basis)
        assert space.coordinates(inside) is not None


def test_membership_of_zero_and_full():
    rng = random.Random(2)
    rows = random_rows(GF5, 3, 4, rng)
    assert Subspace.full(GF5, 4).coordinates(rows) == rows
    zero = Subspace.zero(GF5, 4)
    assert zero.coordinates(Matrix.zeros(GF5, 2, 4)).shape == (2, 0)
    assert zero.coordinates(rows) is None
    assert zero.contains(zero) and Subspace.full(GF5, 4).contains(zero)
    with pytest.raises(AmbientMismatch):
        zero.coordinates(Matrix.zeros(GF5, 1, 3))
    with pytest.raises(MixedFields):
        zero.coordinates(Matrix.zeros(GF3, 1, 4))


# ---------------------------------------------------------------- verify

@pytest.mark.parametrize("spec", [GF3, GF5, BIG], ids=lambda s: f"p{s.p}")
def test_verify_matches_definition_on_random_families(spec):
    rng = random.Random(spec.p + 1)
    singular_aligned = singular_moved = 0
    for _ in range(12):
        r = rng.choice((2, 3))
        family = eigen_family(spec, r * rng.choice((1, 2)), r, rng.randrange(1, 5), rng)
        assert_same_report(family)
        want = report_by_definition(family)
        for (i, other, j), good in want.alignment.items():
            if not want.invertible[(other, j)] and contains_by_rank(
                family.subspaces[i], family.subspaces[i].basis @ family.maps[other][j - 1]
            ):
                singular_aligned += good
                singular_moved += not good
    # the rank branch ran and decided both ways
    assert singular_aligned and singular_moved


def test_verify_matches_definition_on_constructed_and_broken_families():
    family = construct_tensor_family(3, 2, GF5, 2)
    assert family.verify().ok
    assert_same_report(family)
    ell = family.ell
    rng = random.Random(9)

    def replaced(i, j, phi):
        maps = [list(row) for row in family.maps]
        maps[i][j - 1] = phi
        return MsrSubspaceFamily(ell, family.r, family.spec, family.subspaces, maps)

    identity = Matrix.identity(GF5, ell)
    singular = Matrix(GF5, [[0] * ell] + family.maps[4][0].to_lists()[1:])
    broken = {  # keyed by the report field that must name the failure
        "noninvertible": replaced(4, 1, singular),
        "direct_sum_failures": replaced(2, 2, identity),
        "alignment_failures": replaced(5, 1, random_invertible(GF5, ell, rng)),
    }
    for field, bad in broken.items():
        assert bad.verify().to_json_dict()[field]
        assert_same_report(bad)


def test_verify_runs_once_per_family(monkeypatch):
    checks = []
    real = msr_family.is_direct_sum_full
    monkeypatch.setattr(
        msr_family, "is_direct_sum_full", lambda parts: checks.append(1) or real(parts)
    )
    family = construct_tensor_family(2, 2, GF3, 2)
    twin = construct_tensor_family(2, 2, GF3, 2)
    report = family.verify()
    assert family.verify() is report
    decay_trace(family)
    decay_trace(family, [5, 4, 3, 2, 1, 0])
    assert composition_isomorphism_check(family, 2, 1)
    assert len(checks) == family.k  # one regeneration check per member, once
    assert twin == family and hash(twin) == hash(family)
    assert twin.verify().to_json_dict() == report.to_json_dict()
    assert len(checks) == 2 * family.k
    with pytest.raises(TypeError):
        report.alignment[(0, 1, 1)] = False


# ---------------------------------------------------------------- construction

PAIRS = [(3, 2)] + [(5, lam) for lam in range(2, 5)] + [(7, lam) for lam in range(2, 7)] + [(11, 2)]


@pytest.mark.parametrize("p,lam", PAIRS)
def test_construction_matches_row_by_row_build(p, lam):
    spec = FieldSpec(p)
    for r in (2, 3):
        for m in (1, 2, 3, 4):
            got = construct_tensor_family(r, m, spec, lam)
            want = construction_by_rows(r, m, spec, lam)
            assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def test_construction_matches_row_by_row_build_at_large_p():
    got = construct_tensor_family(3, 2, BIG, 12345)
    assert got == construction_by_rows(3, 2, BIG, 12345)
    assert got.verify().ok
