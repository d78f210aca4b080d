"""Membership, alignment and construction shortcuts against the plain
definitions they replace.

Subspace.coordinates decides membership from the reduced basis with one
product; verify() decides alignment from each member's residual at its free
columns, read off the map for a member spanned by unit rows and taken for
r other members at a time through stacked products, plus a dimension
check, and regeneration with one rank of those residuals; and
construct_tensor_family places every basis and map directly, each basis
already in canonical form.
The oracles below are the definitions: membership as the rank of the
stacked bases, alignment as apply_map(phi) == H, regeneration as
is_direct_sum_full over the apply_map images, and the tensor family built
row by row, with one ell x ell inverse per excluded index. reference_verify
keeps the per-member, per-map-row verify() that the chunks replaced.
"""

from __future__ import annotations

import itertools
import json
import random

import numpy as np
import pytest

from msrlab import matrix, msr_family
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


def is_coordinate(sub: Subspace) -> bool:
    """Whether sub is spanned by unit rows: one nonzero per basis row."""
    return all(sum(v != 0 for v in row) == 1 for row in sub.basis.to_lists())


def assert_same_report(family: MsrSubspaceFamily):
    got = family.verify()
    want = report_by_definition(family)
    assert dict(got.invertible) == want.invertible
    assert dict(got.direct_sum) == want.direct_sum
    assert dict(got.alignment) == want.alignment
    assert got.to_json_dict() == want.to_json_dict()
    assert got.summary_lines() == want.summary_lines()


def reference_verify(family: MsrSubspaceFamily) -> VerificationReport:
    """verify() as it was computed before members went in chunks: per member
    and map row, the images through Matrix products and the residual
    Y - Y[:, P] @ H, with alignment keys in the same member-major order."""
    ell, d, spec = family.ell, family.ell // family.r, family.spec
    invertible = {}
    for i, row in enumerate(family.maps):
        for j, phi in enumerate(row, start=1):
            invertible[(i, j)] = phi.rank() == ell
    direct_sum = {i: d == ell for i in range(family.k)}
    alignment = {}
    for other, row in enumerate(family.maps):
        if not row:
            continue
        maps = row[0] if len(row) == 1 else Matrix.hstack(row)
        for i, sub in enumerate(family.subspaces):
            images = (sub.basis @ maps)._a.reshape(d, -1, ell).swapaxes(0, 1).reshape(-1, ell)
            coords = Matrix._adopt(spec, images[:, sub._pivots])
            residual = (images - (coords @ sub.basis)._a) % spec.p
            if other == i:
                free = sub.basis._free_columns(sub._pivots)
                direct_sum[i] = d + Matrix._adopt(spec, residual[:, free]).rank() == ell
                continue
            for j in range(1, family.r):
                block = slice((j - 1) * d, j * d)
                alignment[(i, other, j)] = not residual[block].any() and (
                    invertible[(other, j)] or Matrix._adopt(spec, coords._a[block]).rank() == d
                )
    return VerificationReport(
        ell=ell, r=family.r, k=family.k, invertible=invertible, direct_sum=direct_sum,
        alignment={key: alignment[key] for key in sorted(alignment)},
    )


def assert_same_as_reference(family: MsrSubspaceFamily):
    got, want = family.verify(), reference_verify(family)
    for field in ("invertible", "direct_sum", "alignment"):
        assert list(getattr(got, field).items()) == list(getattr(want, field).items())
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
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


@pytest.mark.parametrize("p", [3, 5, 11, 65537, 2**31 - 1])
def test_verify_matches_the_reference_on_the_sweep_grid(p):
    for r in (2, 3):
        for m in (1, 2, 3, 4):
            family = construct_tensor_family(r, m, FieldSpec(p), 2)
            assert_same_as_reference(family)
            assert family.verify().ok


def with_map(family, i, j, phi) -> MsrSubspaceFamily:
    maps = [list(row) for row in family.maps]
    maps[i][j - 1] = phi
    return MsrSubspaceFamily(family.ell, family.r, family.spec, family.subspaces, maps)


def with_member(family, i, sub) -> MsrSubspaceFamily:
    subspaces = list(family.subspaces)
    subspaces[i] = sub
    return MsrSubspaceFamily(family.ell, family.r, family.spec, subspaces, family.maps)


@pytest.mark.parametrize("p", [3, 5, 2**31 - 1])
def test_verify_matches_the_reference_on_broken_families(p):
    # one map entry perturbed, one map zeroed, or one member replaced by a
    # random subspace of the same dimension, each at a random place
    spec, rng = FieldSpec(p), random.Random(p + 7)
    failed = 0
    for r, m in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
        family = construct_tensor_family(r, m, spec, 2)
        ell, d = family.ell, family.ell // r
        for _ in range(4):
            i, j = rng.randrange(family.k), rng.randrange(1, r)
            entries = family.maps[i][j - 1].to_lists()
            entries[rng.randrange(ell)][rng.randrange(ell)] += rng.randrange(1, p)
            sub = Subspace.span_of(Matrix(spec, random_invertible(spec, ell, rng).to_lists()[:d]))
            for bad in (with_map(family, i, j, Matrix(spec, entries)),
                        with_map(family, i, j, Matrix.zeros(spec, ell, ell)),
                        with_member(family, rng.randrange(family.k), sub)):
                assert_same_as_reference(bad)
                failed += not bad.verify().ok
    assert failed >= 40  # most breaks are caught, so both verdicts are compared


def test_verify_runs_once_per_family(monkeypatch):
    checks = []
    real = msr_family.VerificationReport
    monkeypatch.setattr(
        msr_family, "VerificationReport", lambda **fields: checks.append(1) or real(**fields)
    )
    family = construct_tensor_family(2, 2, GF3, 2)
    twin = construct_tensor_family(2, 2, GF3, 2)
    report = family.verify()
    assert family.verify() is report
    decay_trace(family)
    decay_trace(family, [5, 4, 3, 2, 1, 0])
    assert composition_isomorphism_check(family, 2, 1)
    assert len(checks) == 1  # one report computed for this family object
    assert twin == family and hash(twin) == hash(family)
    assert twin.verify().to_json_dict() == report.to_json_dict()
    assert len(checks) == 2
    with pytest.raises(TypeError):
        report.alignment[(0, 1, 1)] = False


def test_verify_ranks_each_regeneration_stack_once(monkeypatch):
    family = construct_tensor_family(3, 2, GF5, 2)
    maps = [phi for row in family.maps for phi in row]
    calls = []
    real = msr_family._ranks
    monkeypatch.setattr(msr_family, "_ranks",
                        lambda arrays, spec: calls.append(arrays) or real(arrays, spec))
    monkeypatch.setattr(Matrix, "rank", lambda self: pytest.fail("Matrix.rank called"))
    assert family.verify().ok
    # two batched calls: all k(r-1) maps, then each member's residual at the
    # free columns stacked over its slots, (r-1) * ell/r x (ell - ell/r)
    d = family.ell // family.r
    assert len(calls) == 2
    assert len(calls[0]) == len(maps) and all(a is phi._a for a, phi in zip(calls[0], maps))
    assert [a.shape for a in calls[1]] == [((family.r - 1) * d, family.ell - d)] * family.k


def test_verify_makes_two_kernel_calls_per_chunk_and_batch(monkeypatch):
    # coordinate members are read off the maps; the k' others go in chunks
    # of r and the k(r-1) maps in batches of max(1, 2**14 // ell**2): two
    # kernel calls per chunk and batch, on float32 residues where
    # ell * (p-1)**2 < 2**24 and through _product otherwise
    rng = random.Random(4)
    families = [construct_tensor_family(3, 2, GF5, 2), construct_tensor_family(2, 3, GF3, 2),
                eigen_family(GF5, 6, 3, 4, rng), eigen_family(BIG, 4, 2, 3, rng)]
    calls = []

    def counted(name, real):
        return lambda a, b, p: calls.append(name) or real(a, b, p)

    monkeypatch.setattr(matrix, "_product", counted("_product", matrix._product))
    monkeypatch.setattr(msr_family, "_product", matrix._product)
    monkeypatch.setattr(msr_family, "_float_product",
                        counted("_float_product", msr_family._float_product))
    monkeypatch.setattr(Subspace, "coordinates", lambda *args: pytest.fail("coordinates called"))
    for family in families:
        calls.clear()
        family.verify()
        others = sum(not is_coordinate(sub) for sub in family.subspaces)
        chunks = -(-others // family.r)
        batches = -(-family.k * (family.r - 1) // max(1, 2**14 // family.ell**2))
        assert 0 < len(calls) == 2 * chunks * batches
        p = family.spec.p
        assert set(calls) == {"_float_product" if family.ell * (p - 1) ** 2 < 2**24 else "_product"}
    # the sweep grid: two maps per batch at ell = 81, all of them in one below
    per_ell = {}
    for r, m in itertools.product((2, 3), (1, 2, 3, 4)):
        family = construct_tensor_family(r, m, GF5, 3)
        calls.clear()
        family.verify()
        per_ell[family.ell] = len(calls)
    assert per_ell == {2: 2, 4: 2, 8: 4, 16: 4, 3: 2, 9: 2, 27: 4, 81: 64}
    assert sum(per_ell.values()) == 84


@pytest.mark.parametrize("spec", [GF5, BIG], ids=lambda s: f"p{s.p}")
def test_singular_map_keeping_its_member_fails_regeneration(spec):
    # phi = C @ H_i maps all of F^ell into H_i: singular, and H_i @ phi
    # stays inside H_i, so the images cannot regenerate F^ell
    family = construct_tensor_family(3, 2, spec, 2)
    rng = random.Random(spec.p)
    i, d = 3, family.ell // family.r
    basis = family.subspaces[i].basis
    while True:
        phi = random_rows(spec, family.ell, d, rng) @ basis
        if (basis @ phi).rank() == d:  # phi(H_i) is all of H_i
            break
    maps = [list(row) for row in family.maps]
    maps[i][1] = phi
    bad = MsrSubspaceFamily(family.ell, family.r, spec, family.subspaces, maps)
    report = bad.verify()
    assert report.direct_sum_failures == (i,)
    assert report.noninvertible == ((i, 2),)
    assert_same_report(bad)


def test_verify_of_single_slot_families_matches_definition():
    # r = 1: no maps, every member is the whole space and regenerates it
    rng = random.Random(3)
    for spec in (GF3, BIG):
        family = eigen_family(spec, 3, 1, 3, rng)
        assert family.verify().ok
        assert_same_report(family)



# ---------------------------------------------------------------- coordinate members

COORDINATE_PRIMES = [3, 5, 2**31 - 1]


def assert_matches_both_oracles(family: MsrSubspaceFamily):
    assert_same_as_reference(family)
    assert_same_report(family)


@pytest.mark.parametrize("p", COORDINATE_PRIMES)
def test_a_nonzero_in_a_coordinate_block_fails_exactly_that_alignment(p):
    # phi[P][:, F] of a coordinate member H_t = span(e_P) is phi(H_t)'s
    # residual: one nonzero planted at (x, y), x in P and y in F, moves H_t.
    # y agrees with x at every other coordinate member through x, so no
    # other coordinate member moves; the c kept keeps phi invertible.
    spec, rng = FieldSpec(p), random.Random(p + 3)
    for r, m in ((2, 3), (3, 2), (2, 4)):
        family = construct_tensor_family(r, m, spec, 2)
        ell = family.ell
        pivots = {t: set(sub._pivots) for t, sub in enumerate(family.subspaces)
                  if is_coordinate(sub)}
        for _ in range(3):
            t = rng.choice(sorted(pivots))
            o = rng.choice([u for u in range(family.k) if u != t])
            j = rng.randrange(1, r)
            x = rng.choice(sorted(pivots[t]))
            y = rng.choice([y for y in range(ell) if y not in pivots[t] and all(
                y in pivots[u] for u in pivots if u != t and x in pivots[u])])
            for c in (rng.randrange(1, p), 1, 2):  # phi + c E_xy is singular for one c at most
                entries = family.maps[o][j - 1].to_lists()
                entries[x][y] += c
                if Matrix(spec, entries).rank() == ell:
                    break
            bad = with_map(family, o, j, Matrix(spec, entries))
            report = bad.verify()
            assert not report.noninvertible
            assert [key for key in report.alignment_failures if key[0] in pivots] == [(t, o, j)]
            assert_matches_both_oracles(bad)


@pytest.mark.parametrize("p", COORDINATE_PRIMES)
def test_singular_map_on_a_coordinate_member_is_ranked_at_its_pivots(monkeypatch, p):
    # a diagonal map with one zero fixes every coordinate member's span:
    # phi[P][:, F] is zero, and phi(H_t) == H_t exactly when the zero is
    # outside P, where the d x d block phi[P][:, P] keeps full rank
    spec = FieldSpec(p)
    family = construct_tensor_family(3, 2, spec, 2)
    ell, d, t, o, j = family.ell, family.ell // 3, 0, 5, 1
    pivots = family.subspaces[t]._pivots
    assert is_coordinate(family.subspaces[t])
    ranked = []
    real = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: ranked.append(self.shape) or real(self))
    for zero, aligned in ((pivots[-1] + 1, True), (pivots[0], False)):
        singular = Matrix(spec, [[int(a == b != zero) for b in range(ell)] for a in range(ell)])
        bad = with_map(family, o, j, singular)
        ranked.clear()
        report = bad.verify()
        assert (d, d) in ranked
        assert report.noninvertible == ((o, j),)
        assert report.alignment[(t, o, j)] is aligned
        assert_matches_both_oracles(bad)


@pytest.mark.parametrize("p", COORDINATE_PRIMES)
def test_a_coordinate_member_with_a_perturbed_own_map_fails_regeneration(p):
    # the identity at r = 2, or slot 2 repeating slot 1 at r = 3: both fix
    # every member, so only the member's own regeneration fails
    spec = FieldSpec(p)
    for r, m in ((2, 3), (3, 2)):
        family = construct_tensor_family(r, m, spec, 2)
        for t, sub in enumerate(family.subspaces):
            if not is_coordinate(sub):
                continue
            own = Matrix.identity(spec, family.ell) if r == 2 else family.maps[t][0]
            bad = with_map(family, t, r - 1, own)
            report = bad.verify()
            assert report.direct_sum_failures == (t,)
            assert not report.noninvertible and not report.alignment_failures
            assert_matches_both_oracles(bad)


@pytest.mark.parametrize("p", COORDINATE_PRIMES)
def test_a_family_of_coordinate_members_verifies_without_products(monkeypatch, p):
    # members with i < r pin a unit vector e_i, so every basis row is a unit row
    for name in ("_product", "_float_product"):
        monkeypatch.setattr(msr_family, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    for r, m in ((2, 3), (3, 2), (3, 3)):
        members = [c for c in range((r + 1) * m) if c % (r + 1) != r]
        family = construct_tensor_family(r, m, FieldSpec(p), 2, members=members)
        assert all(is_coordinate(sub) for sub in family.subspaces)
        assert family.verify().ok
        assert_matches_both_oracles(family)


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
