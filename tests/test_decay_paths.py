"""The decay path without redundant eliminations: annihilator bases read off
the canonical basis, the restriction step multiplied through C's unit
columns, coordinate equations gathered from the maps, the first step's
kernel read off a Kronecker product of two RREFs, loaded canonical bases
kept as they are, and the elimination counts that follow."""

from __future__ import annotations

import json
import random

import pytest

from msrlab import invariant, matrix
from msrlab.field import FieldSpec
from msrlab.invariant import MapConstraint, _restrict, decay_trace
from msrlab.matrix import Matrix
from msrlab.msr_family import MsrSubspaceFamily, construct_tensor_family
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
    # the first member's annihilator, then one elimination of the equations
    # per later member
    assert len(eliminated) == family.k == 12


def test_decay_trace_reads_an_annihilator_only_where_it_multiplies(monkeypatch):
    family = construct_tensor_family(2, 4, GF3, 2)
    assert family.verify().ok  # the report is kept on the family
    order = list(range(family.k))
    random.Random(0).shuffle(order)
    kernels = []
    real = Matrix._kernel_of_reduced
    monkeypatch.setattr(
        Matrix, "_kernel_of_reduced",
        lambda self, rank, pivots: kernels.append(self) or real(self, rank, pivots),
    )
    decay_trace(family, order)
    coordinate = sum(family.subspaces[member].is_coordinate for member in order[1:])
    # step 1 reads the first member's annihilator and the Kronecker system's
    # kernel; a later member's annihilator basis is read only when its
    # equations are multiplied out, that is, when it is not coordinate
    assert coordinate == 7
    assert len(kernels) == 2 + (family.k - 1 - coordinate) == 6


def coordinate(spec, ambient, pivots) -> Subspace:
    """span(e_P) for the pivots P."""
    rows = [[int(col == pivot) for col in range(ambient)] for pivot in pivots]
    return Subspace(spec, ambient, Matrix(spec, rows)) if rows else Subspace.zero(spec, ambient)


def random_coordinate(spec, ambient, rng) -> Subspace:
    return coordinate(spec, ambient, sorted(rng.sample(range(ambient), rng.randrange(ambient + 1))))


@pytest.mark.parametrize("p", PRIMES)
def test_coordinate_constraints_match_the_reference(p):
    spec = FieldSpec(p)
    rng = random.Random(31 * p)
    ambient = 5
    for _ in range(6):
        # a random first constraint, so that the later ones restrict stored maps
        start = MapConstraint.fixing(Subspace(spec, ambient, random_matrix(spec, 2, ambient, rng)))
        maps, expected = _restrict(None, start), reference_restrict(None, start)
        for _ in range(4):
            source, target = random_coordinate(spec, ambient, rng), None
            while target is None or target == source:
                target = random_coordinate(spec, ambient, rng)
            assert source.is_coordinate and target.is_coordinate
            constraint = MapConstraint(source, target)
            maps = _restrict(maps, constraint)
            expected = reference_restrict(expected, constraint)
            assert_same_bytes(maps, expected)


@pytest.mark.parametrize("p", PRIMES)
def test_first_step_with_an_unreduced_annihilator_matches_the_reference(p):
    spec = FieldSpec(p)
    target = Subspace.span_of(Matrix(spec, [[1, 0, 1, 1, 0], [0, 1, 2, 0, 1]]))
    assert not target.is_coordinate
    # rows e_f - H[:, f] at the pivots: two lead at column 0, so not reduced
    assert target.annihilator_basis() != target.annihilator().basis
    for source in (target, Subspace.full(spec, 5), coordinate(spec, 5, [1, 3]),
                   Subspace.span_of(Matrix(spec, [[0, 2, 1, 0, 1]]))):
        constraint = MapConstraint(source, target)
        assert_same_bytes(_restrict(None, constraint), reference_restrict(None, constraint))


def test_coordinate_steps_build_their_equations_without_a_product(monkeypatch):
    family = construct_tensor_family(2, 4, GF3, 2)
    calls = {"matrix": 0, "invariant": 0}

    def counted(where, real):
        def product(a, b, p):
            calls[where] += 1
            return real(a, b, p)
        return product

    # `@` multiplies through matrix._product; C K through invariant's own binding
    monkeypatch.setattr(matrix, "_product", counted("matrix", matrix._product))
    monkeypatch.setattr(invariant, "_product", counted("invariant", invariant._product))
    order = list(range(family.k))
    random.Random(0).shuffle(order)
    kinds = set()
    maps = None
    for member in order:
        sub = family.subspaces[member]
        calls.update(matrix=0, invariant=0)
        maps = _restrict(maps, MapConstraint.fixing(sub))
        if member != order[0]:
            kinds.add(sub.is_coordinate)
            # two products form A psi N^T unless both ends are coordinate
            assert calls["matrix"] == (0 if sub.is_coordinate else 2)
            assert calls["invariant"] <= 1
    assert kinds == {True, False}  # the trace takes both paths


@pytest.mark.parametrize("r, m", [(2, 4), (3, 3)])
def test_first_step_eliminates_only_the_annihilator(r, m, monkeypatch):
    family = construct_tensor_family(r, m, GF3, 2)
    ell = family.ell
    for sub in family.subspaces:
        eliminated = counted_rref(monkeypatch)
        maps = _restrict(None, MapConstraint.fixing(sub))
        monkeypatch.undo()
        # N is c x ell; the a c x ell**2 Kronecker system is never eliminated
        assert [mat.shape for mat in eliminated] == [(ell - sub.dim, ell)]
        assert maps.rows == ell * ell - sub.dim * (ell - sub.dim)


def test_a_canonical_family_file_loads_with_no_elimination(monkeypatch):
    for spec in (GF3, FieldSpec(2**31 - 1)):
        family = construct_tensor_family(3, 3, spec, 2)
        payload = json.loads(json.dumps(family.to_json_dict()))
        eliminated = counted_rref(monkeypatch)
        loaded = MsrSubspaceFamily.from_json_dict(payload)
        assert eliminated == []
        monkeypatch.undo()
        assert loaded == family
        for got, sub in zip(loaded.subspaces, family.subspaces):
            assert got._pivots == sub._pivots
            assert got.basis._a.dtype == sub.basis._a.dtype
            assert got.basis._a.tobytes() == sub.basis._a.tobytes()


CANONICAL = [[1, 0, 2, 0, 1], [0, 1, 1, 0, 2], [0, 0, 0, 1, 1]]
NOT_CANONICAL = {
    "rows permuted": [CANONICAL[1], CANONICAL[0], CANONICAL[2]],
    "a row scaled": [CANONICAL[0], [0, 2, 2, 0, 1], CANONICAL[2]],
    "a row added to another": [[1, 1, 0, 0, 0], CANONICAL[1], CANONICAL[2]],
    "a zero row": CANONICAL + [[0, 0, 0, 0, 0]],
    "a duplicated row": CANONICAL + [CANONICAL[2]],
    "a leading entry other than 1": [[2, 0, 1, 0, 2], CANONICAL[1], CANONICAL[2]],
}


@pytest.mark.parametrize("case", sorted(NOT_CANONICAL))
def test_a_non_canonical_basis_loads_through_one_elimination(case, monkeypatch):
    rows = NOT_CANONICAL[case]
    expected = Subspace.span_of(Matrix(GF3, rows))
    assert expected == Subspace.span_of(Matrix(GF3, CANONICAL))
    eliminated = counted_rref(monkeypatch)
    got = Subspace.from_json_dict({"ambient": 5, "p": 3, "basis": rows})
    assert len(eliminated) == 1
    assert got == expected and got._pivots == expected._pivots


def test_a_canonical_basis_loads_as_it_is(monkeypatch):
    eliminated = counted_rref(monkeypatch)
    got = Subspace.from_json_dict({"ambient": 5, "p": 3, "basis": CANONICAL})
    assert eliminated == []
    monkeypatch.undo()
    assert got == Subspace.span_of(Matrix(GF3, CANONICAL)) and got._pivots == (0, 1, 3)


def test_loaded_entries_reduce_exactly_at_and_beyond_the_int64_range():
    values = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70, -1]
    for p in PRIMES:
        got = Matrix.from_json_rows(FieldSpec(p), [values])
        assert got.to_lists() == [[v % p for v in values]]
        assert Matrix.from_json_rows(FieldSpec(p), [values[:2]]).to_lists() == [
            [v % p for v in values[:2]]]
