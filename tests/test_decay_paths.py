"""The decay path without redundant eliminations: annihilator bases read off
the canonical basis, the restriction step multiplied through C's unit
columns, and the elimination counts that follow."""

from __future__ import annotations

import random

import pytest

from msrlab.field import FieldSpec
from msrlab.invariant import MapConstraint, _restrict, decay_trace
from msrlab.matrix import Matrix
from msrlab.msr_family import construct_tensor_family
from msrlab.subspace import Subspace

GF3 = FieldSpec(3)
PRIMES = (2, 3, 7, 2**31 - 1)


def counted_rref(monkeypatch) -> list:
    """Every matrix Matrix.rref is called on from now on, in call order."""
    eliminated = []
    real = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: eliminated.append(self) or real(self))
    return eliminated


def random_matrix(spec, rows, cols, rng):
    if rows == 0:
        return Matrix.zeros(spec, 0, cols)
    return Matrix(spec, [[rng.randrange(spec.p) for _ in range(cols)] for _ in range(rows)])


def subspaces(spec, ambient, rng):
    """The zero and full subspaces, then random ones of every dimension."""
    yield Subspace.zero(spec, ambient)
    yield Subspace.full(spec, ambient)
    for rows in range(ambient + 2):
        yield Subspace(spec, ambient, random_matrix(spec, rows, ambient, rng))


@pytest.mark.parametrize("p", PRIMES)
def test_annihilator_basis_spans_the_annihilator(p):
    spec = FieldSpec(p)
    rng = random.Random(p)
    for ambient in (1, 2, 5):
        for space in subspaces(spec, ambient, rng):
            basis = space.annihilator_basis()
            assert basis.shape == (ambient - space.dim, ambient)
            # independent, spanning exactly the canonical annihilator
            assert basis.rank() == basis.rows
            assert Subspace(spec, ambient, basis) == space.annihilator()
            # orthogonal to the space: every b . y is zero
            assert space.basis @ basis.transpose() == Matrix.zeros(spec, space.dim, basis.rows)


def test_annihilator_eliminates_once(monkeypatch):
    space = Subspace(GF3, 6, random_matrix(GF3, 3, 6, random.Random(5)))
    expected = Subspace(GF3, 6, space.basis.kernel())
    eliminated = counted_rref(monkeypatch)
    assert space.annihilator() == expected
    assert len(eliminated) == 1
    eliminated.clear()
    space.annihilator_basis()
    assert eliminated == []


def reference_restrict(maps, constraint):
    """The restriction step through the canonical annihilator and an explicit
    kernel() @ maps, as it was computed before C's unit columns were used."""
    source = constraint.source.basis
    annihilator = constraint.target.annihilator().basis
    if source.rows == 0 or annihilator.rows == 0:
        return maps
    if maps is None:
        return source.kron(annihilator).kernel()
    d, spec = maps.rows, maps.spec
    if d == 0:
        return maps
    ell, a, c = source.cols, source.rows, annihilator.rows
    work = (Matrix._adopt(spec, maps._a.reshape(d * ell, ell)) @ annihilator.transpose())._a
    work = work.reshape(d, ell, c).transpose(1, 0, 2).reshape(ell, d * c)
    work = (source @ Matrix._adopt(spec, work))._a
    work = work.reshape(a, d, c).transpose(0, 2, 1).reshape(a * c, d)
    return Matrix._adopt(spec, work).kernel() @ maps


def assert_same_bytes(got, expected):
    if expected is None:
        assert got is None
        return
    assert got.shape == expected.shape
    assert got._a.dtype == expected._a.dtype
    assert got._a.tobytes() == expected._a.tobytes()


@pytest.mark.parametrize("r, m", [(2, 4), (3, 3)])
def test_restrict_matches_the_reference_on_decay_families(r, m):
    family = construct_tensor_family(r, m, GF3, 2)
    orders = [list(range(family.k))]
    for seed in range(3):
        order = list(range(family.k))
        random.Random(seed).shuffle(order)
        orders.append(order)
    for order in orders:
        maps = expected = None
        for member in order:
            constraint = MapConstraint.fixing(family.subspaces[member])
            maps = _restrict(maps, constraint)
            expected = reference_restrict(expected, constraint)
            assert_same_bytes(maps, expected)
        assert maps.rows == decay_trace(family, order).dims[-1]


@pytest.mark.parametrize("p", PRIMES)
def test_restrict_matches_the_reference_on_random_constraints(p):
    spec = FieldSpec(p)
    rng = random.Random(17 * p)
    for _ in range(6):
        spaces = list(subspaces(spec, 4, rng))
        maps = expected = None
        for _ in range(4):
            constraint = MapConstraint(rng.choice(spaces), rng.choice(spaces))
            maps = _restrict(maps, constraint)
            expected = reference_restrict(expected, constraint)
            assert_same_bytes(maps, expected)


def test_decay_trace_eliminates_once_per_member(monkeypatch):
    family = construct_tensor_family(2, 4, GF3, 2)
    assert family.verify().ok  # the report is kept on the family
    order = list(range(family.k))
    random.Random(0).shuffle(order)
    eliminated = counted_rref(monkeypatch)
    decay_trace(family, order)
    # one elimination of the equations per member, none for annihilators
    assert len(eliminated) == family.k == 12
