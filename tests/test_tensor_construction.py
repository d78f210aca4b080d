"""construct_tensor_family builds each r x r factor in closed form, places
it straight into its ell x ell position, and places each basis, already
in canonical form, where Subspace keeps it as it is; it eliminates
nothing. reference_construct is the construction it replaced: each factor
V_i^-1 D_s V_i from an inverse and a product, each map I (x) F (x) I from
two Kronecker products with identities, and each basis reduced by
Subspace.span_of. Both must give the same bytes."""

from __future__ import annotations

import json
import random

import pytest

from msrlab.field import FieldSpec
from msrlab.matrix import Matrix
from msrlab.msr_family import MsrSubspaceFamily, construct_tensor_family
from msrlab.subspace import Subspace

PRIMES = [3, 5, 7, 11, 65537, 2**31 - 1]
SHAPES = [(r, m) for r in (2, 3, 4) for m in range(1, 7) if r**m <= 81]


def reference_construct(r, m, spec, lam, members=None) -> MsrSubspaceFamily:
    """The kron-based construction, for valid r, m, p, lam and members."""
    lam %= spec.p
    members = range((r + 1) * m) if members is None else tuple(members)
    ell = r**m
    vectors = Matrix.identity(spec, r).to_lists() + [[-1] * r]  # e_0..e_{r-1}, v_r

    def at_slot(slot: int, block: Matrix) -> Matrix:
        # I^(x)slot (x) block (x) I^(x)(m-1-slot), acting on one tensor factor
        before = Matrix.identity(spec, r**slot)
        after = Matrix.identity(spec, r ** (m - 1 - slot))
        return before.kron(block).kron(after)

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


def assert_same_bytes(got: MsrSubspaceFamily, want: MsrSubspaceFamily):
    for sub, ref in zip(got.subspaces, want.subspaces, strict=True):
        assert sub.basis._a.dtype == ref.basis._a.dtype
        assert sub.basis._a.tobytes() == ref.basis._a.tobytes()
        assert sub.basis.shape == ref.basis.shape and sub._pivots == ref._pivots
    for row, ref_row in zip(got.maps, want.maps, strict=True):
        for phi, ref in zip(row, ref_row, strict=True):
            assert phi._a.dtype == ref._a.dtype and phi.shape == ref.shape
            assert phi._a.tobytes() == ref._a.tobytes()
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert json.dumps(got.verify().to_json_dict()) == json.dumps(want.verify().to_json_dict())


@pytest.mark.parametrize("p", PRIMES)
def test_placement_matches_the_kron_construction(p):
    spec = FieldSpec(p)
    for r, m in SHAPES:
        for lam in (2, p - 1):
            assert_same_bytes(construct_tensor_family(r, m, spec, lam),
                              reference_construct(r, m, spec, lam))


@pytest.mark.parametrize("p", PRIMES)
def test_placement_matches_the_kron_construction_on_member_subsets(p):
    spec = FieldSpec(p)
    rng = random.Random(p)
    for r, m in SHAPES:
        size = (r + 1) * m
        for lam in (2, p - 1):
            # as random_constant_instance draws them, then in the drawn order
            drawn = rng.sample(range(size), rng.randint(1, size))
            for members in (sorted(drawn), drawn, [rng.randrange(size)], [size - 1]):
                assert_same_bytes(construct_tensor_family(r, m, spec, lam, members=members),
                                  reference_construct(r, m, spec, lam, members))


@pytest.mark.parametrize("p", [3, 11, 65537, 2**31 - 1])
def test_closed_form_factors_match_the_inverse_and_product(p):
    spec = FieldSpec(p)
    for r in range(2, 7):
        vectors = Matrix.identity(spec, r).to_lists() + [[-1] * r]  # e_0..e_{r-1}, v_r
        for lam in (2, p - 1, (p + 1) // 2):  # one value at p = 3, where 2 is the only one
            # at m = 1 each map is its factor
            family = construct_tensor_family(r, 1, spec, lam)
            for i in range(r + 1):
                allowed = [idx for idx in range(r + 1) if idx != i]
                basis = Matrix(spec, [vectors[idx] for idx in allowed])  # V_i
                inverse = basis.invert()
                for t in range(1, r):
                    scale = [lam if idx == (i + t) % (r + 1) else 1 for idx in allowed]
                    diagonal = Matrix(spec, [[scale[a] * (a == b) for b in range(r)]
                                             for a in range(r)])  # D_s
                    assert family.maps[i][t - 1] == inverse @ diagonal @ basis


@pytest.mark.parametrize("p", [3, 2**31 - 1])
@pytest.mark.parametrize("r,m", [(2, 4), (3, 3), (4, 2)])
def test_construction_eliminates_nothing(r, m, p, monkeypatch):
    eliminated = []
    real = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: eliminated.append(self) or real(self))
    family = construct_tensor_family(r, m, FieldSpec(p), 2)
    assert eliminated == []
    monkeypatch.undo()
    assert family.k == (r + 1) * m and family.verify().ok


@pytest.mark.parametrize("r,m", SHAPES)
def test_every_member_basis_is_already_canonical(r, m):
    family = construct_tensor_family(r, m, FieldSpec(7), 3)
    for sub in family.subspaces:
        again = Subspace.span_of(sub.basis)
        assert again == sub and again._pivots == sub._pivots


def test_members_and_maps_cannot_be_written():
    spec = FieldSpec(5)
    for family in (construct_tensor_family(2, 3, spec, 2),
                   construct_tensor_family(3, 3, spec, 2, members=[11, 0, 5, 6])):
        arrays = [sub.basis._a for sub in family.subspaces]
        arrays += [phi._a for row in family.maps for phi in row]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0, 0] = 1
            # a view of a writable stack could be made writable again
            with pytest.raises(ValueError):
                arr.setflags(write=True)
