"""Families of aligned subspaces: construction, verification, size bound."""

from __future__ import annotations

import dataclasses
import decimal
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from msrlab.errors import (
    BadLambda,
    BadParams,
    FieldTooSmall,
    StructuralError,
)
from msrlab.field import FieldSpec
from msrlab.matrix import Matrix
from msrlab.msr_family import (
    MsrSubspaceFamily,
    compare_to_log_multiple,
    construct_tensor_family,
)
from msrlab.subspace import Subspace

GF3 = FieldSpec(3)
GF5 = FieldSpec(5)

SWAP3 = Matrix(GF3, [[0, 1], [1, 0]])


def line(values):
    return Subspace.span_of(Matrix(GF3, [values]))


def trivial_family():
    # one subspace span{(1,0)} with the swap map: the image span{(0,1)}
    # completes the regeneration sum, and alignment is vacuous at k = 1
    return MsrSubspaceFamily(
        ell=2, r=2, spec=GF3, subspaces=(line([1, 0]),), maps=((SWAP3,),)
    )


def swap_swap_family():
    # classic failure: each member's map moves the other member's line
    return MsrSubspaceFamily(
        ell=2,
        r=2,
        spec=GF3,
        subspaces=(line([1, 0]), line([0, 1])),
        maps=((SWAP3,), (SWAP3,)),
    )


# ---------------------------------------------------------------- structure

def test_trivial_family_verifies():
    family = trivial_family()
    report = family.verify()
    assert report.ok
    assert report.k == 1 and report.ell == 2 and report.r == 2
    assert family.map_matrix(0, 0) == Matrix.identity(GF3, 2)
    assert family.map_matrix(0, 1) == SWAP3


def test_swap_swap_family_fails_alignment():
    report = swap_swap_family().verify()
    assert not report.ok
    assert report.noninvertible == ()
    assert report.direct_sum_failures == ()
    assert report.alignment_failures == ((0, 1, 1), (1, 0, 1))
    assert report.summary_lines()[-1] == "VERIFY FAIL"


def test_verify_pass_summary():
    lines = trivial_family().verify().summary_lines()
    assert lines[-1] == "VERIFY PASS"


def test_structural_validation():
    with pytest.raises(StructuralError):  # wrong subspace dimension
        MsrSubspaceFamily(
            ell=2, r=2, spec=GF3, subspaces=(Subspace.full(GF3, 2),), maps=((SWAP3,),)
        )
    with pytest.raises(StructuralError):  # r does not divide ell
        MsrSubspaceFamily(
            ell=3, r=2, spec=GF3,
            subspaces=(Subspace.span_of(Matrix(GF3, [[1, 0, 0]])),),
            maps=((Matrix.identity(GF3, 3),),),
        )
    with pytest.raises(StructuralError):  # map grid is k x (r-1)
        MsrSubspaceFamily(
            ell=2, r=2, spec=GF3, subspaces=(line([1, 0]),), maps=((SWAP3, SWAP3),)
        )
    with pytest.raises(StructuralError):  # map has wrong shape
        MsrSubspaceFamily(
            ell=2, r=2, spec=GF3, subspaces=(line([1, 0]),),
            maps=((Matrix(GF3, [[1, 0]]),),),
        )
    for subspace, phi, message in [
        (Subspace.span_of(Matrix(GF5, [[1, 0]])), SWAP3, "subspace 0 over GF(5), family over GF(3)"),
        (Subspace.span_of(Matrix(GF3, [[1, 0, 0]])), SWAP3, "subspace 0 lives in F^3, not F^2"),
        (line([1, 0]), Matrix(GF5, [[0, 1], [1, 0]]), "map (0,1) over GF(5)"),
    ]:
        with pytest.raises(StructuralError) as caught:
            MsrSubspaceFamily(ell=2, r=2, spec=GF3, subspaces=[subspace], maps=[[phi]])
        assert str(caught.value) == message


def test_families_and_subspaces_are_frozen():
    family = construct_tensor_family(2, 2, GF3, 2)
    report = family.verify()
    duplicated = family.subspaces[:1] * family.k  # would fail alignment
    for name, value in [("ell", 8), ("r", 4), ("spec", GF5), ("subspaces", duplicated),
                        ("maps", ()), ("_report", None)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(family, name, value)
    member = family.subspaces[0]
    for name in ("spec", "ambient_dim", "basis", "_pivots"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(member, name, Subspace.full(GF3, 3).basis)
    assert family.verify() is report and report.ok
    clone = MsrSubspaceFamily.from_json_dict(json.loads(json.dumps(family.to_json_dict())))
    assert clone == family and hash(clone) == hash(family)
    assert {family: "original"}[clone] == "original"
    assert not hasattr(family, "__dict__") and not hasattr(member, "__dict__")


def test_noninvertible_map_reported_not_raised():
    family = MsrSubspaceFamily(
        ell=2, r=2, spec=GF3, subspaces=(line([1, 0]),),
        maps=((Matrix(GF3, [[0, 0], [0, 1]]),),),
    )
    report = family.verify()
    assert not report.ok
    assert report.noninvertible == ((0, 1),)


# ---------------------------------------------------------------- construction

def test_smallest_construction():
    family = construct_tensor_family(2, 1, GF3, 2)
    assert family.ell == 2 and family.r == 2 and family.k == 3
    bases = [s.basis.to_lists() for s in family.subspaces]
    assert bases == [[[1, 0]], [[0, 1]], [[1, 1]]]  # e0, e1, -(e0+e1) lines
    assert family.verify().ok


def test_construction_shape_invariants():
    for r, m, p, lam in ((2, 2, 3, 2), (3, 2, 5, 2), (3, 2, 7, 3)):
        family = construct_tensor_family(r, m, FieldSpec(p), lam)
        assert family.k == (r + 1) * m
        assert family.ell == r**m
        assert all(s.dim == r ** (m - 1) for s in family.subspaces)
        assert family.verify().ok


def test_construction_maps_have_two_eigenvalues():
    # each map acts as the scalar lam on a r^(m-1)-dim piece and as the
    # identity on the rest; check via rank of (M - lam I) and (M - I)
    for r, m, spec, lam in ((2, 2, GF3, 2), (3, 2, GF5, 2)):
        family = construct_tensor_family(r, m, spec, lam)
        ell, piece = family.ell, r ** (m - 1)
        eye = Matrix.identity(spec, ell)
        for i in range(family.k):
            for j in range(1, r):
                mat = family.map_matrix(i, j)
                assert (mat - eye * lam).rank() == ell - piece
                assert (mat - eye).rank() == piece


def test_construction_rejects_bad_params():
    with pytest.raises(BadParams):
        construct_tensor_family(1, 2, GF3, 2)
    with pytest.raises(BadParams):
        construct_tensor_family(2, 0, GF3, 2)
    with pytest.raises(FieldTooSmall):
        construct_tensor_family(2, 2, FieldSpec(2), 1)
    with pytest.raises(BadLambda):
        construct_tensor_family(2, 2, GF3, 0)
    with pytest.raises(BadLambda):
        construct_tensor_family(2, 2, GF3, 1)
    with pytest.raises(BadLambda):
        construct_tensor_family(2, 2, GF3, 4)  # 4 = 1 mod 3
    with pytest.raises(BadLambda):
        construct_tensor_family(2, 2, GF3, GF5.element(2))  # wrong field
    for lam in (2.5, 2.0, "2", None):
        with pytest.raises(BadLambda):
            construct_tensor_family(2, 2, GF3, lam)
    assert construct_tensor_family(2, 2, GF3, np.int64(2)) == construct_tensor_family(2, 2, GF3, 2)


def test_construction_builds_only_the_chosen_members():
    for r, m, spec, lam in ((2, 2, GF3, 2), (3, 2, GF5, 3), (2, 3, FieldSpec(7), 2)):
        full = construct_tensor_family(r, m, spec, lam)
        for idx in ([], [0], [full.k - 1, 0, r + 1], list(range(full.k))[::-1]):
            part = construct_tensor_family(r, m, spec, lam, members=idx)
            assert (part.ell, part.r, part.spec) == (full.ell, full.r, full.spec)
            assert part.subspaces == tuple(full.subspaces[c] for c in idx)
            assert part.maps == tuple(full.maps[c] for c in idx)
    assert construct_tensor_family(2, 2, GF3, members=range(6)) == construct_tensor_family(2, 2, GF3)


def test_construction_rejects_bad_members():
    for idx in ([6], [-1], [0, 0], [1, 2, 1], [0.0, 1.0], ["1"], [True], [[0]]):
        with pytest.raises(BadParams, match=r"distinct indices in range\(6\)"):
            construct_tensor_family(2, 2, GF3, members=idx)
    # the parameter checks come first
    with pytest.raises(FieldTooSmall):
        construct_tensor_family(2, 2, FieldSpec(2), members=[0, 0])
    with pytest.raises(BadLambda):
        construct_tensor_family(2, 2, GF3, 1, members=[6])


def test_json_round_trip():
    family = construct_tensor_family(2, 2, GF3, 2)
    clone = MsrSubspaceFamily.from_json_dict(family.to_json_dict())
    assert clone == family
    assert hash(clone) == hash(family)
    assert clone.verify().ok


# ---------------------------------------------------------------- size bound

def test_bound_check_within():
    family = construct_tensor_family(2, 2, GF3, 2)
    report = family.bound_check()
    assert report.within_bound
    assert report.k == 6
    assert report.bound_approx == pytest.approx(8 * math.log(4))


def test_compare_to_log_multiple_known_signs():
    # 8 ln 4 = 11.0904...: 11 is below, 12 above
    assert compare_to_log_multiple(6, Fraction(8), 4) == -1
    assert compare_to_log_multiple(11, Fraction(8), 4) == -1
    assert compare_to_log_multiple(12, Fraction(8), 4) == 1


def test_compare_to_log_multiple_matches_float_log():
    # floats are fine as an oracle when the comparison is far from a tie
    for coeff in (1, 2, 8, 12):
        for ell in (2, 3, 8, 81, 1000):
            target = coeff * math.log(ell)
            for value in (int(target) - 1, int(target) + 2):
                want = -1 if value < target else 1
                assert compare_to_log_multiple(value, Fraction(coeff), ell) == want


def test_compare_to_log_multiple_near_ties():
    # 12 ln 9 = 26.3667: certified comparison must separate 26 and 27
    assert compare_to_log_multiple(26, Fraction(12), 9) == -1
    assert compare_to_log_multiple(27, Fraction(12), 9) == 1
    # fractions work as values too
    assert compare_to_log_multiple(Fraction(111, 10), Fraction(8), 4) == 1


def test_compare_to_log_multiple_edge_cases():
    assert compare_to_log_multiple(1, Fraction(5), 1) == 1  # ln 1 = 0
    assert compare_to_log_multiple(0, Fraction(5), 1) == 0
    with pytest.raises(BadParams):
        compare_to_log_multiple(1, Fraction(5), 0)
    with pytest.raises(BadParams):
        compare_to_log_multiple(1, Fraction(0), 4)


def _decimal(x: Fraction) -> decimal.Decimal:
    return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


def test_compare_to_log_multiple_agrees_with_decimal_oracle():
    # value - coeff * ln(ell) evaluated with decimal at 100 digits, an oracle
    # independent of the series; cases within 1e-90 of a tie are skipped
    rng = random.Random(1901)
    ells = [1, 2, 3, 9, 81, 2**31 - 1, 10**100] + [rng.randint(1, 2**31 - 1) for _ in range(6)]
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        cases = [  # the 16 comparisons of the default sweep grid
            (k, Fraction(c), r**m)
            for r in (2, 3) for m in (1, 2, 3, 4) for k in [(r + 1) * m] for c in (4 * r, r)
        ]
        for ell in ells:
            for _ in range(12):
                coeff = Fraction(rng.randint(1, 64), rng.choice([1, rng.randint(1, 10**9)]))
                den = rng.randint(1, 10**9)
                cases.append((rng.randint(-5, 400), coeff, ell))
                cases.append((Fraction(rng.randint(-den, 400 * den), den), coeff, ell))
                if ell > 1:  # near-ties, offset by 1e-6 down to 1e-40 either way
                    offset = rng.choice([-1, 1]) * decimal.Decimal(10) ** -rng.randint(6, 40)
                    tie = _decimal(coeff) * decimal.Decimal(ell).ln() + offset
                    cases.append((Fraction(tie), coeff, ell))
        checked = 0
        for value, coeff, ell in cases:
            gap = _decimal(Fraction(value)) - _decimal(coeff) * decimal.Decimal(ell).ln()
            if abs(gap) < decimal.Decimal(10) ** -90:
                continue
            assert compare_to_log_multiple(value, coeff, ell) == (1 if gap > 0 else -1), (
                value, coeff, ell)
            checked += 1
    assert checked >= len(cases) - 1 and checked > 400


def test_all_constructed_families_within_bound():
    for r in (2, 3):
        for m in (1, 2, 3):
            family = construct_tensor_family(r, m, GF3 if r == 2 else GF5, 2)
            assert family.bound_check().within_bound
