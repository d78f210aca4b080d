"""Subspace lattice operations against brute-force enumeration."""

from __future__ import annotations

import itertools
import random

import pytest

from msrlab.errors import AmbientMismatch, MixedFields, ShapeMismatch
from msrlab.field import FieldSpec
from msrlab.matrix import Matrix
from msrlab.subspace import Subspace, _canonical_pivots, intersect_all, is_direct_sum_full

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def vector_set(space):
    """All vectors of the subspace as tuples. Brute force over coefficients."""
    p = space.spec.p
    rows = space.basis.to_lists()
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        vec = [0] * space.ambient_dim
        for c, row in zip(coeffs, rows):
            for j, entry in enumerate(row):
                vec[j] = (vec[j] + c * entry) % p
        out.add(tuple(vec))
    return out


def random_subspace(spec, ambient, rng, max_dim=None):
    rows = rng.randrange((max_dim if max_dim is not None else ambient) + 1)
    if rows == 0:
        return Subspace.zero(spec, ambient)
    gens = Matrix(spec, [[rng.randrange(spec.p) for _ in range(ambient)] for _ in range(rows)])
    return Subspace(spec, ambient, gens)


def test_canonical_basis_independent_of_generators():
    a = Subspace(GF3, 3, Matrix(GF3, [[1, 1, 0], [0, 0, 1]]))
    b = Subspace(GF3, 3, Matrix(GF3, [[2, 2, 1], [1, 1, 2], [1, 1, 0]]))
    assert a == b
    assert hash(a) == hash(b)
    assert a.basis == b.basis
    assert a.dim == 2


def test_zero_and_full():
    zero = Subspace.zero(GF3, 4)
    full = Subspace.full(GF3, 4)
    assert zero.dim == 0 and zero.is_zero
    assert full.dim == 4 and full.is_full
    assert zero.basis.shape == (0, 4)
    assert full.basis == Matrix.identity(GF3, 4)


def test_span_of_and_contains():
    space = Subspace.span_of(Matrix(GF3, [[1, 2, 0]]))
    assert space.dim == 1
    assert space.contains_vector(Matrix(GF3, [[2, 1, 0]]))
    assert not space.contains_vector(Matrix(GF3, [[1, 0, 0]]))
    assert space.contains(Subspace.zero(GF3, 3))
    assert Subspace.full(GF3, 3).contains(space)
    assert not space.contains(Subspace.full(GF3, 3))


def test_sum_and_intersection_small():
    e1 = Subspace.span_of(Matrix(GF3, [[1, 0]]))
    e2 = Subspace.span_of(Matrix(GF3, [[0, 1]]))
    assert (e1 + e2).is_full
    assert (e1 & e2).is_zero
    diag = Subspace.span_of(Matrix(GF3, [[1, 1]]))
    assert (e1 & diag).is_zero
    assert (e1 + diag).is_full


def test_annihilator():
    space = Subspace.span_of(Matrix(GF3, [[1, 2, 0], [0, 0, 1]]))
    ann = space.annihilator()
    assert ann.dim == 1
    # every functional in the annihilator kills every vector of the space
    assert (space.basis @ ann.basis.transpose()).to_lists() == [[0], [0]]


def test_annihilator_involution_and_dim():
    rng = random.Random(3)
    for _ in range(25):
        space = random_subspace(GF3, 4, rng)
        ann = space.annihilator()
        assert ann.dim == 4 - space.dim
        assert ann.annihilator() == space


def test_intersection_matches_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        spec = rng.choice((GF2, GF3))
        ambient = rng.choice((2, 3))
        a = random_subspace(spec, ambient, rng)
        b = random_subspace(spec, ambient, rng)
        expected = vector_set(a) & vector_set(b)  # intersection is a subspace
        assert vector_set(a & b) == expected


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_intersection_eliminates_twice_and_matches_the_four_step_form(p, monkeypatch):
    spec = FieldSpec(p)
    rng = random.Random(p)
    ambient = 5
    spaces = [Subspace.zero(spec, ambient), Subspace.full(spec, ambient)]
    spaces += [random_subspace(spec, ambient, rng) for _ in range(6)]
    eliminated = []
    real = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: eliminated.append(1) or real(self))
    counts = set()
    for a, b in itertools.product(spaces, repeat=2):
        want = a.annihilator().sum(b.annihilator()).annihilator()
        # the stacked annihilator bases, then the annihilator basis of their
        # span; each is eliminated unless it is already canonical
        both = Matrix.vstack([a.annihilator_basis(), b.annihilator_basis()])
        generators = [both, Subspace.span_of(both).annihilator_basis()]
        expected = sum(_canonical_pivots(g._a) is None for g in generators)
        eliminated.clear()
        assert a.intersect(b) == want
        assert len(eliminated) == expected
        counts.add(expected)
    assert 2 in counts


def test_dimension_formula():
    rng = random.Random(13)
    for _ in range(30):
        a = random_subspace(GF3, 4, rng)
        b = random_subspace(GF3, 4, rng)
        assert (a + b).dim + (a & b).dim == a.dim + b.dim


def test_apply_map():
    space = Subspace.span_of(Matrix(GF3, [[1, 0]]))
    swap = Matrix(GF3, [[0, 1], [1, 0]])
    assert space.apply_map(swap) == Subspace.span_of(Matrix(GF3, [[0, 1]]))
    # invertible maps preserve dimension
    rng = random.Random(19)
    for _ in range(10):
        sub = random_subspace(GF3, 3, rng)
        table = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        mat = Matrix(GF3, table)
        if mat.rank() == 3:
            assert sub.apply_map(mat).dim == sub.dim
    with pytest.raises(ShapeMismatch):
        space.apply_map(Matrix(GF3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_mixed_and_ambient_errors():
    a = Subspace.full(GF3, 2)
    with pytest.raises(MixedFields):
        a + Subspace.full(FieldSpec(5), 2)
    with pytest.raises(AmbientMismatch):
        a + Subspace.full(GF3, 3)
    with pytest.raises(AmbientMismatch):
        intersect_all([])


def test_direct_sum_full():
    # the two halves a parity-mixing map produces from span{(1,0)}
    mixer = Matrix(GF2, [[0, 1], [1, 1]])
    h = Subspace.span_of(Matrix(GF2, [[1, 0]]))
    assert is_direct_sum_full([h, h.apply_map(mixer)])
    assert not is_direct_sum_full([h, h])
    assert not is_direct_sum_full([h])
    assert is_direct_sum_full([Subspace.full(GF2, 2)])
    # overlapping parts may cover without being a direct sum
    assert not is_direct_sum_full([Subspace.full(GF2, 2), h])


def test_intersect_all():
    e1 = Subspace.span_of(Matrix(GF3, [[1, 0, 0]]))
    plane = Subspace.span_of(Matrix(GF3, [[1, 0, 0], [0, 1, 0]]))
    assert intersect_all([plane, Subspace.full(GF3, 3)]) == plane
    assert intersect_all([plane, e1]) == e1
    assert intersect_all([e1]) == e1


def test_trivial_intersection_dimension_bound():
    # quick version of the acceptance property: with trivial common
    # intersection, sum of dims <= (s-1) * dim of the sum
    rng = random.Random(29)
    checked = 0
    for _ in range(200):
        parts = [random_subspace(GF3, 4, rng) for _ in range(rng.choice((2, 3, 4)))]
        if not intersect_all(parts).is_zero:
            continue
        checked += 1
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        assert sum(part.dim for part in parts) <= (len(parts) - 1) * total.dim
    assert checked > 20


def test_json_round_trip():
    space = Subspace.span_of(Matrix(GF3, [[1, 2, 0], [0, 0, 1]]))
    payload = space.to_json_dict()
    assert payload["ambient"] == 3 and payload["p"] == 3
    assert Subspace.from_json_dict(payload) == space
    zero = Subspace.zero(GF3, 2)
    assert Subspace.from_json_dict(zero.to_json_dict()) == zero


def test_basis_is_a_frozen_copy_of_the_reduced_rows():
    gens = Matrix(GF3, [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    space = Subspace.span_of(gens)
    assert space.basis == Matrix(GF3, [[1, 2, 0], [0, 0, 1]])
    # its own array, not a view that keeps the whole reduced matrix alive
    assert space.basis._a.base is None
    assert not space.basis._a.flags.writeable
