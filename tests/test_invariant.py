"""Invariant-map dimensions, decay traces, composition checks."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from msrlab.cli import main
from msrlab.errors import (
    AmbientMismatch,
    BadParams,
    IndexOutOfRange,
    LemmaViolation,
    MixedFields,
    VerificationRequired,
)
from msrlab.field import FieldSpec
from msrlab.invariant import (
    MapConstraint,
    composition_isomorphism_check,
    decay_trace,
    invariant_dim,
    invariant_space,
)
from msrlab.matrix import Matrix
from msrlab.msr_family import MsrSubspaceFamily, construct_tensor_family
from msrlab.subspace import Subspace

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def vec_row_major(mat):
    """A square matrix flattened to the row vector the encoding uses."""
    flat = [entry for row in mat.to_lists() for entry in row]
    return Matrix(mat.spec, [flat])


def brute_force_count(constraints, spec, ambient):
    """Count maps satisfying all constraints by trying every single matrix."""
    count = 0
    for entries in itertools.product(range(spec.p), repeat=ambient * ambient):
        rows = [
            list(entries[i * ambient : (i + 1) * ambient]) for i in range(ambient)
        ]
        candidate = Matrix(spec, rows)
        ok = True
        for c in constraints:
            for i in range(c.source.dim):
                if not c.target.contains_vector(c.source.basis.row(i) @ candidate):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def random_subspace(spec, ambient, rng):
    rows = rng.randrange(ambient + 1)
    if rows == 0:
        return Subspace.zero(spec, ambient)
    return Subspace(
        spec, ambient,
        Matrix(spec, [[rng.randrange(spec.p) for _ in range(ambient)] for _ in range(rows)]),
    )


def constraint_equations(constraint):
    """Equation rows on the vectorized map imposed by one constraint: one
    Kronecker row a (x) n per source basis row a and target annihilator row
    n. The stacked system of these rows is the reference the incremental
    restriction in msrlab.invariant is checked against."""
    source = constraint.source.basis
    annihilator = constraint.target.annihilator().basis
    ell = constraint.source.ambient_dim
    if source.rows == 0 or annihilator.rows == 0:
        return Matrix.zeros(constraint.source.spec, 0, ell * ell)
    return source.kron(annihilator)


def kron_invariant_space(constraints, spec, ambient):
    """The invariant maps as the kernel of the whole stacked system."""
    if not constraints:
        return Subspace.full(spec, ambient * ambient)
    system = Matrix.vstack([constraint_equations(c) for c in constraints])
    return Subspace.span_of(system.kernel())


# ---------------------------------------------------------------- dimensions

def test_no_constraints_gives_all_maps():
    assert invariant_dim([], spec=GF3, ambient=4) == 16
    space = invariant_space([], spec=GF3, ambient=4)
    assert space.is_full and space.ambient_dim == 16


def test_full_to_zero_gives_nothing():
    full = Subspace.full(GF3, 2)
    zero = Subspace.zero(GF3, 2)
    assert invariant_dim([MapConstraint(full, zero)], spec=GF3, ambient=2) == 0


def test_fixing_formula():
    # maps preserving one d-dim subspace of F^n form a space of dim
    # n^2 - d(n-d): d*n for the action on the subspace plus (n-d)*n minus
    # the d(n-d) entries forced to zero
    rng = random.Random(7)
    for _ in range(20):
        sub = random_subspace(GF3, 4, rng)
        d = sub.dim
        assert invariant_dim([MapConstraint.fixing(sub)]) == 16 - d * (4 - d)


def test_constraint_validation():
    full3 = Subspace.full(GF3, 2)
    with pytest.raises(BadParams):
        invariant_dim([])  # ambient unknown without spec/ambient kwargs
    with pytest.raises(AmbientMismatch):
        MapConstraint(full3, Subspace.full(GF3, 3))
    with pytest.raises(MixedFields):
        MapConstraint(full3, Subspace.full(FieldSpec(5), 2))


def test_constraint_equations_shape():
    sub = Subspace.span_of(Matrix(GF3, [[1, 0]]))
    eqs = constraint_equations(MapConstraint.fixing(sub))
    assert eqs.cols == 4
    assert eqs.rows == sub.dim * sub.annihilator().dim == 1


def dense_subspace(spec, ambient, rng):
    """The span of 1..ambient-1 random rows: a subspace that constrains
    maps, with large entries when p is large."""
    rows = rng.randrange(1, ambient)
    return Subspace.span_of(
        Matrix(spec, [[rng.randrange(spec.p) for _ in range(ambient)] for _ in range(rows)])
    )


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_fold_matches_stacked_kronecker_system(p):
    # at p = 2**31 - 1 a product that skipped the blocked reduction of
    # Matrix.__matmul__ would overflow int64 and change the result
    spec = FieldSpec(p)
    rng = random.Random(p)
    ambient = 5
    edge = [
        [MapConstraint(Subspace.zero(spec, ambient), dense_subspace(spec, ambient, rng))],
        [MapConstraint(dense_subspace(spec, ambient, rng), Subspace.full(spec, ambient))],
        [MapConstraint(dense_subspace(spec, ambient, rng), Subspace.zero(spec, ambient))],
    ]
    for trial in range(16):
        constraints = [
            MapConstraint(dense_subspace(spec, ambient, rng), dense_subspace(spec, ambient, rng))
            for _ in range(rng.randrange(1, 4))
        ]
        if trial < len(edge):
            at = rng.randrange(len(constraints) + 1)
            constraints[at:at] = edge[trial]
        expected = kron_invariant_space(constraints, spec, ambient)
        assert invariant_space(constraints, spec=spec, ambient=ambient) == expected
        assert invariant_dim(constraints, spec=spec, ambient=ambient) == expected.dim
        system = Matrix.vstack([constraint_equations(c) for c in constraints])
        assert expected.dim == ambient * ambient - system.rank()
    assert invariant_space([], spec=spec, ambient=ambient) == kron_invariant_space([], spec, ambient)


def test_identity_is_invariant_when_fixing():
    rng = random.Random(9)
    for _ in range(10):
        constraints = [MapConstraint.fixing(random_subspace(GF3, 3, rng)) for _ in range(3)]
        space = invariant_space(constraints, spec=GF3, ambient=3)
        assert space.contains_vector(vec_row_major(Matrix.identity(GF3, 3)))
        assert space.dim >= 1


def test_monotone_under_more_constraints():
    rng = random.Random(13)
    for _ in range(15):
        constraints = [
            MapConstraint(random_subspace(GF3, 3, rng), random_subspace(GF3, 3, rng))
            for _ in range(3)
        ]
        dims = [
            invariant_dim(constraints[:count], spec=GF3, ambient=3)
            for count in range(4)
        ]
        assert dims == sorted(dims, reverse=True)


def test_dimension_matches_brute_force_count():
    rng = random.Random(17)
    for p in (2, 3):
        spec = FieldSpec(p)
        for _ in range(8):
            constraints = [
                MapConstraint(random_subspace(spec, 2, rng), random_subspace(spec, 2, rng))
                for _ in range(rng.randrange(1, 4))
            ]
            count = brute_force_count(constraints, spec, 2)
            assert count == p ** invariant_dim(constraints, spec=spec, ambient=2)


def test_membership_agrees_with_constraints():
    # vectors of the invariant space are exactly the constraint-satisfying maps
    rng = random.Random(19)
    source = random_subspace(GF2, 2, rng)
    target = random_subspace(GF2, 2, rng)
    constraints = [MapConstraint(source, target)]
    space = invariant_space(constraints, spec=GF2, ambient=2)
    for entries in itertools.product(range(2), repeat=4):
        candidate = Matrix(GF2, [entries[:2], entries[2:]])
        satisfied = all(
            target.contains_vector(source.basis.row(i) @ candidate)
            for i in range(source.dim)
        )
        assert space.contains_vector(vec_row_major(candidate)) == satisfied


# ---------------------------------------------------------------- decay

def test_decay_trace_small_family():
    family = construct_tensor_family(2, 2, GF3, 2)
    trace = decay_trace(family)
    assert trace.order == (0, 1, 2, 3, 4, 5)
    assert trace.dims == (16, 12, 8, 4, 3, 2, 1)
    assert trace.ratios == (
        Fraction(3, 4),
        Fraction(2, 3),
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(2, 3),
        Fraction(1, 2),
    )
    assert trace.bounds[0] == 16
    assert trace.bounds[1] == 12
    assert all(dim <= bound for dim, bound in zip(trace.dims, trace.bounds))
    rows = trace.csv_rows()
    assert rows[0] == (0, 16, 16, 1, True)
    assert rows[-1] == (6, 1, 729, 256, True)  # 16 * (3/4)**6 = 729/256
    assert all(row[4] for row in rows)


def test_decay_trace_order_independent_endpoints():
    family = construct_tensor_family(2, 2, GF3, 2)
    rng = random.Random(23)
    for _ in range(5):
        order = list(range(family.k))
        rng.shuffle(order)
        trace = decay_trace(family, order)
        assert trace.dims[0] == 16
        assert trace.dims[-1] >= 1


def test_decay_dims_match_stacked_kronecker_system():
    family = construct_tensor_family(2, 3, GF3, 2)
    rng = random.Random(29)
    orders = [list(range(family.k)), list(reversed(range(family.k)))]
    for _ in range(3):
        orders.append(rng.sample(range(family.k), family.k))
    for order in orders:
        expected = [
            kron_invariant_space(
                [MapConstraint.fixing(family.subspaces[i]) for i in order[:t]], GF3, family.ell
            ).dim
            for t in range(family.k + 1)
        ]
        assert list(decay_trace(family, order).dims) == expected


def closed_form_dims(r, m, order):
    """dims along `order` for construct_tensor_family(r, m). Member
    s*(r+1)+i is F^(r^s) (x) <v_i> (x) F^(r^(m-1-s)), so the maps fixing the
    members used so far factor over the m slots. A slot with j of its
    members used keeps the f(j) = r^2 - j(r-1) maps of F^r fixing j lines
    in general position for j <= r, and only the f(r+1) = 1 scalars."""

    def f(j):
        return 1 if j == r + 1 else r * r - j * (r - 1)

    used = [0] * m
    dims = [f(0) ** m]
    for member in order:
        used[member // (r + 1)] += 1
        dims.append(math.prod(f(j) for j in used))
    return dims


@pytest.mark.parametrize("r, m, orders", [(2, 4, 20), (3, 3, 8)])
def test_decay_dims_match_the_closed_form(r, m, orders):
    family = construct_tensor_family(r, m, GF3, 2)
    assert list(decay_trace(family).dims) == closed_form_dims(r, m, range(family.k))
    for seed in range(orders):
        order = list(range(family.k))
        random.Random(seed).shuffle(order)  # the order of --order random:<seed>
        assert list(decay_trace(family, order).dims) == closed_form_dims(r, m, order)


def test_decay_builds_no_identity_on_all_maps(monkeypatch):
    family = construct_tensor_family(2, 3, GF3, 2)
    sizes = []
    real = Matrix.identity.__func__

    def identity(cls, spec, n):
        sizes.append(n)
        return real(cls, spec, n)

    monkeypatch.setattr(Matrix, "identity", classmethod(identity))
    assert decay_trace(family).dims[0] == family.ell**2
    assert invariant_dim([], spec=GF3, ambient=family.ell) == family.ell**2
    assert all(n < family.ell**2 for n in sizes)


# `msrlab decay --order random:S` on the r = 2, m = 3 family over GF(3), as
# printed when every step eliminated the whole stacked Kronecker system.
DECAY_STDOUT = {
    3: """\
t  invariant_dim  bound_numerator  bound_denominator  pass
0  64             64               1                  True
1  48             48               1                  True
2  36             36               1                  True
3  27             27               1                  True
4  18             81               4                  True
5  12             243              16                 True
6  8              729              64                 True
7  4              2187             256                True
8  2              6561             1024               True
9  1              19683            4096               True
decay holds along order [1, 5, 6, 0, 8, 4, 7, 2, 3]: final dim 1
""",
    8: """\
t  invariant_dim  bound_numerator  bound_denominator  pass
0  64             64               1                  True
1  48             48               1                  True
2  36             36               1                  True
3  27             27               1                  True
4  18             81               4                  True
5  12             243              16                 True
6  6              729              64                 True
7  3              2187             256                True
8  2              6561             1024               True
9  1              19683            4096               True
decay holds along order [4, 2, 6, 0, 7, 1, 8, 5, 3]: final dim 1
""",
}


@pytest.mark.parametrize("seed", sorted(DECAY_STDOUT))
def test_decay_cli_stdout_is_unchanged(seed, tmp_path, capsys):
    path = tmp_path / "family.json"
    assert main(["construct", "--r", "2", "--m", "3", "--p", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["decay", "--in", str(path), "--order", f"random:{seed}"]) == 0
    assert capsys.readouterr().out == DECAY_STDOUT[seed]


def test_decay_requires_verified_family():
    bad = MsrSubspaceFamily(
        ell=2, r=2, spec=GF3,
        subspaces=(
            Subspace.span_of(Matrix(GF3, [[1, 0]])),
            Subspace.span_of(Matrix(GF3, [[0, 1]])),
        ),
        maps=((Matrix(GF3, [[0, 1], [1, 0]]),), (Matrix(GF3, [[0, 1], [1, 0]]),)),
    )
    with pytest.raises(VerificationRequired):
        decay_trace(bad)


def test_decay_rejects_bad_order():
    family = construct_tensor_family(2, 1, GF3, 2)
    with pytest.raises(BadParams):
        decay_trace(family, [0, 0, 1])
    with pytest.raises(BadParams):
        decay_trace(family, [0, 1])  # wrong length
    for order in ([0.9, 1.7, 2.2], ["0", "1", "2"], [True, False, 2], [0, 1, 2.0]):
        with pytest.raises(BadParams):
            decay_trace(family, order)
    assert decay_trace(family, [np.int64(2), 0, np.int32(1)]).order == (2, 0, 1)


def test_lemma_violation_payload():
    exc = LemmaViolation("boom", payload={"step": 3, "dims": [4, 4]})
    assert exc.payload == {"step": 3, "dims": [4, 4]}
    assert LemmaViolation("bare").payload == {}


# ---------------------------------------------------------------- composition

def test_composition_isomorphism_full_grid():
    for family in (construct_tensor_family(2, 1, GF3, 2), construct_tensor_family(2, 2, GF3, 2)):
        for t in range(1, family.k + 1):
            for j in range(family.r):
                assert composition_isomorphism_check(family, t, j)


def test_composition_isomorphism_range_errors():
    family = construct_tensor_family(2, 1, GF3, 2)
    with pytest.raises(IndexOutOfRange):
        composition_isomorphism_check(family, 0, 1)
    with pytest.raises(IndexOutOfRange):
        composition_isomorphism_check(family, family.k + 1, 1)
    with pytest.raises(IndexOutOfRange):
        composition_isomorphism_check(family, 1, family.r)
