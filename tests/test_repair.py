"""Vector codes, repair schemes, bandwidth accounting, extraction."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

from msrlab.errors import (
    BadParams,
    FieldTooSmall,
    IndexOutOfRange,
    SchemeInvalid,
    ShapeMismatch,
    StructuralError,
)
from msrlab.field import FieldSpec
from msrlab.matrix import Matrix
from msrlab.repair import (
    ConstantRepairScheme,
    GeneralRepairScheme,
    VectorCodeSystematic,
    _random_invertible,
    as_block,
    check_msr_scheme,
    cutset_bound,
    evenodd_code,
    evenodd_constant_instance,
    evenodd_repair,
    evenodd_scheme,
    extract_family,
    is_mds,
    random_constant_instance,
    repair_node,
    scheme_from_json_dict,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def all_data_words(code):
    """Every message, as a list of per-node coordinate tuples."""
    coords = code.k * code.ell
    for entries in itertools.product(range(code.spec.p), repeat=coords):
        yield [entries[i * code.ell : (i + 1) * code.ell] for i in range(code.k)]


# ---------------------------------------------------------------- blocks

def test_as_block():
    col = as_block(GF3, 2, (4, 5))
    assert col.to_lists() == [[1], [2]]
    same = as_block(GF3, 2, col)
    assert same == col
    with pytest.raises(ShapeMismatch):
        as_block(GF3, 2, Matrix(GF3, [[1, 2]]))  # row vectors are not blocks
    with pytest.raises(ShapeMismatch):
        as_block(GF3, 2, (1, 2, 3))


# ---------------------------------------------------------------- codes

def test_evenodd_encode_examples():
    code = evenodd_code()
    blocks = code.encode([(1, 0), (0, 0)])
    assert [b.column_values() for b in blocks] == [(1, 0), (0, 0), (1, 0), (0, 1)]
    blocks = code.encode([(1, 0), (1, 1)])
    assert [b.column_values() for b in blocks] == [(1, 0), (1, 1), (0, 1), (1, 0)]
    # seeded (5, 3) codes with ell = 4: each parity block is the sum over the
    # systematic nodes of parity[i][j] @ data[j], computed here in Python ints
    rng = random.Random(2026)
    for p in (2, 2**31 - 1):
        spec = FieldSpec(p)
        parity = [[_random_invertible(spec, 4, rng) for _ in range(3)] for _ in range(2)]
        code = VectorCodeSystematic(n=5, k=3, ell=4, spec=spec, parity=parity)
        data = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
        blocks = code.encode(data)
        assert [b.column_values() for b in blocks[:3]] == [tuple(d) for d in data]
        for i in range(2):
            lists = [parity[i][j].to_lists() for j in range(3)]
            want = tuple(
                sum(lists[j][s][c] * data[j][c] for j in range(3) for c in range(4)) % p
                for s in range(4)
            )
            assert blocks[3 + i].column_values() == want


def test_code_properties():
    code = evenodd_code()
    assert code.n == 4 and code.k == 2 and code.ell == 2 and code.r == 2
    assert is_mds(code)


def test_code_encode_validation():
    code = evenodd_code()
    with pytest.raises(ShapeMismatch):
        code.encode([(1, 0)])
    with pytest.raises(ShapeMismatch):
        code.encode([(1, 0), (0, 0, 1)])


def test_code_structural_checks():
    eye = Matrix.identity(GF2, 2)
    singular = Matrix(GF2, [[1, 0], [1, 0]])
    with pytest.raises(StructuralError):  # parity blocks must be invertible
        VectorCodeSystematic(n=4, k=2, ell=2, spec=GF2, parity=((eye, singular), (eye, eye)))
    with pytest.raises(StructuralError):  # grid must be r x k
        VectorCodeSystematic(n=4, k=2, ell=2, spec=GF2, parity=((eye, eye),))
    with pytest.raises(StructuralError):  # need k < n
        VectorCodeSystematic(n=2, k=2, ell=2, spec=GF2, parity=())
    for parity, ell, message in [
        (((), ()), 0, "need ell >= 1, got 0"),
        (((eye,), (eye, eye)), 2, "parity row 0 has 1 blocks, expected 2"),
        (((eye, Matrix.identity(GF3, 2)), (eye, eye)), 2, "parity block (0,1) over GF(3)"),
        (((eye, Matrix.identity(GF2, 3)), (eye, eye)), 2, "parity block (0,1) has shape (3, 3)"),
    ]:
        with pytest.raises(StructuralError, match=exactly(message)):
            VectorCodeSystematic(n=4, k=2, ell=ell, spec=GF2, parity=parity)


def test_code_json_round_trip():
    code = evenodd_code()
    clone = VectorCodeSystematic.from_json_dict(code.to_json_dict())
    assert clone.n == code.n and clone.k == code.k and clone.ell == code.ell
    assert clone.parity == code.parity


# ---------------------------------------------------------------- schemes

def test_scheme_json_round_trips():
    _, constant = evenodd_constant_instance()
    payload = constant.to_json_dict()
    assert payload["kind"] == "constant" and payload["p"] == 2
    clone = scheme_from_json_dict(payload)
    assert isinstance(clone, ConstantRepairScheme)
    assert clone.matrices == constant.matrices

    general = evenodd_scheme()
    clone = scheme_from_json_dict(general.to_json_dict())
    assert isinstance(clone, GeneralRepairScheme)
    assert clone.matrices == general.matrices


def test_scheme_json_validation():
    with pytest.raises(BadParams):
        scheme_from_json_dict({"kind": "constant"})
    with pytest.raises(BadParams):
        scheme_from_json_dict({"kind": "diagonal", "p": 2, "repair": []})


def test_check_msr_scheme_evenodd():
    code = evenodd_code()
    scheme = evenodd_scheme()
    for node in (0, 1):
        report = check_msr_scheme(code, scheme, node)
        assert report.ok
        assert report.regeneration_ok
        assert all(good for _, good in report.interference_ok)
    with pytest.raises(IndexOutOfRange):
        check_msr_scheme(code, scheme, 2)


def test_no_constant_row_can_repair_evenodd_node_1():
    # both parity coefficients of node 1 are the identity, so S @ C_{0,1}
    # and S @ C_{1,1} always span the same line: regeneration cannot hold
    code = evenodd_code()
    keep = Matrix(GF2, [[1, 0]])
    for row in ([0, 1], [1, 0], [1, 1]):
        scheme = ConstantRepairScheme((keep, Matrix(GF2, [row])))
        assert check_msr_scheme(code, scheme, 1).regeneration_ok is False


def test_scheme_shape_validation():
    code = evenodd_code()
    with pytest.raises(SchemeInvalid):  # wrong row count for node count
        check_msr_scheme(code, ConstantRepairScheme((Matrix(GF2, [[1, 0]]),)), 0)
    with pytest.raises(SchemeInvalid):  # zero row is not full row rank
        check_msr_scheme(
            code,
            ConstantRepairScheme((Matrix(GF2, [[1, 0]]), Matrix(GF2, [[0, 0]]))),
            0,
        )
    top, bottom, eye = Matrix(GF2, [[1, 0]]), Matrix(GF2, [[0, 1]]), Matrix.identity(GF2, 2)
    for build in (lambda: ConstantRepairScheme(()), lambda: GeneralRepairScheme(()),
                  lambda: GeneralRepairScheme(((),))):
        with pytest.raises(SchemeInvalid, match=exactly("scheme with no repair matrices")):
            build()
    with pytest.raises(SchemeInvalid, match=exactly("ragged repair matrix grid")):
        GeneralRepairScheme(((top, bottom), (top,)))
    r_of_3 = VectorCodeSystematic(n=4, k=1, ell=2, spec=GF2, parity=((eye,),) * 3)
    for target, scheme, error, message in [
        (r_of_3, ConstantRepairScheme((top,)), BadParams, "r = 3 does not divide ell = 2"),
        (code, GeneralRepairScheme(((top, top),)), SchemeInvalid,
         "repair grid is 1x2, expected 2x2"),
        (code, object(), TypeError, "unknown scheme type object"),
        (code, ConstantRepairScheme((Matrix(GF3, [[1, 0]]), Matrix(GF3, [[0, 1]]))),
         SchemeInvalid, "repair matrix for node 0 over GF(3)"),
        (code, GeneralRepairScheme(((top, bottom), (top, eye))), SchemeInvalid,
         "repair matrix (1,1) has shape (2, 2), expected (1, 2)"),
    ]:
        with pytest.raises(error, match=exactly(message)):
            check_msr_scheme(target, scheme, 0)


# ---------------------------------------------------------------- cutset

def test_cutset_bound_values():
    assert cutset_bound(4, 2, 2) == 3
    assert cutset_bound(14, 10, 16) == 52
    assert cutset_bound(5, 3, 4) == Fraction(16, 2)
    assert cutset_bound(4, 1, 3) == 3


def test_cutset_bound_validation():
    with pytest.raises(BadParams):
        cutset_bound(4, 4, 2)
    with pytest.raises(BadParams):
        cutset_bound(2, 5, 2)
    with pytest.raises(BadParams):
        cutset_bound(4, 2, 3)  # (n-k) must divide ell


# ---------------------------------------------------------------- repair

def test_evenodd_exhaustive_repair():
    code = evenodd_code()
    for data in all_data_words(code):
        blocks = code.encode(data)
        for node in range(4):
            result = evenodd_repair(blocks, node)
            assert result.block == blocks[node]
            assert result.bandwidth.total == 3
            assert result.bandwidth.meets_cutset
            assert result.bandwidth.per_helper == tuple(
                (helper, 1) for helper in range(4) if helper != node
            )


def test_bandwidth_report_json():
    blocks = evenodd_code().encode([(1, 0), (1, 1)])
    assert evenodd_repair(blocks, 2).bandwidth.to_json_dict() == {
        "per_helper": [[0, 1], [1, 1], [3, 1]],
        "total": 3,
        "cutset_numerator": 3,
        "cutset_denominator": 1,
    }


def test_evenodd_published_transmissions():
    # the worked example word: a = (1,0), b = (1,1)
    blocks = evenodd_code().encode([(1, 0), (1, 1)])
    sent = {
        node: [
            (helper, column.column_values())
            for helper, column in evenodd_repair(blocks, node).transmissions
        ]
        for node in range(4)
    }
    assert sent[0] == [(1, (1,)), (2, (0,)), (3, (1,))]  # b1, a1+b1, a2+b1
    assert sent[1] == [(0, (0,)), (2, (1,)), (3, (1,))]  # a2, a2+b2, a2+b1
    assert sent[2] == [(0, (1,)), (1, (1,)), (3, (0,))]  # a1, b1, a1+a2+b2
    assert sent[3] == [(0, (0,)), (1, (1,)), (2, (1,))]  # a2, b1, a1+b1+a2+b2


def test_evenodd_repair_bad_node():
    blocks = evenodd_code().encode([(0, 0), (0, 0)])
    with pytest.raises(IndexOutOfRange):
        evenodd_repair(blocks, 4)


def test_repair_node_rejects_failing_scheme():
    code = evenodd_code()
    scheme = ConstantRepairScheme((Matrix(GF2, [[1, 0]]), Matrix(GF2, [[1, 0]])))
    blocks = code.encode([(1, 0), (1, 1)])
    with pytest.raises(SchemeInvalid):
        repair_node(code, scheme, 1, blocks)


def exactly(text: str) -> str:
    return f"^{re.escape(text)}$"


def test_failing_scheme_messages():
    code = evenodd_code()
    blocks = code.encode([(1, 0), (1, 1)])
    top, bottom = Matrix(GF2, [[1, 0]]), Matrix(GF2, [[0, 1]])
    same_rows = ConstantRepairScheme((top, top))
    with pytest.raises(SchemeInvalid, match=exactly(
        "scheme fails at node 1: regeneration_ok=False, interference_ok=[(0, False)]"
    )):
        repair_node(code, same_rows, 1, blocks)
    # node 0's shares [1 0] and [0 1] @ C[1][0] = [1 1] span F^2, but node 1's
    # share [0 1] under parity unit 1 leaves the span of its [1 0] under unit 0
    unaligned = GeneralRepairScheme(((top, bottom), (bottom, top)))
    with pytest.raises(SchemeInvalid, match=exactly(
        "scheme fails at node 0: regeneration_ok=True, interference_ok=[(1, False)]"
    )):
        repair_node(code, unaligned, 0, blocks)
    with pytest.raises(SchemeInvalid, match=exactly(
        "constant scheme fails at node 1: regeneration_ok=False, interference_ok=[(0, False)]"
    )):
        extract_family(code, same_rows)


@pytest.mark.parametrize("count", (3, 5))
@pytest.mark.parametrize("node", range(4))
def test_evenodd_repair_block_count(node, count):
    blocks = evenodd_code().encode([(1, 0), (1, 1)])
    with pytest.raises(ShapeMismatch, match=exactly(f"{count} blocks, expected 4")):
        evenodd_repair((blocks + blocks)[:count], node)


def test_repair_node_block_count():
    code, scheme = evenodd_constant_instance()
    with pytest.raises(ShapeMismatch):
        repair_node(code, scheme, 0, [(1, 0)])


def test_constant_instance_repair_ignores_lost_block():
    code, scheme = evenodd_constant_instance()
    for data in all_data_words(code):
        blocks = list(code.encode(data))
        expected = blocks[0]
        blocks[0] = None  # the failed node's block must not be read
        result = repair_node(code, scheme, 0, blocks)
        assert result.block == expected
        assert result.bandwidth.meets_cutset


# ---------------------------------------------------------------- extraction

def test_extract_family_from_evenodd_instance():
    code, scheme = evenodd_constant_instance()
    family = extract_family(code, scheme)
    assert family.k == 1 and family.ell == 2 and family.r == 2
    assert family.subspaces[0].basis.to_lists() == [[1, 0]]
    assert family.map_matrix(0, 1).to_lists() == [[0, 1], [1, 1]]
    assert family.verify().ok


def test_extract_family_requires_constant_scheme():
    code = evenodd_code()
    with pytest.raises(SchemeInvalid):
        extract_family(code, evenodd_scheme())


def test_extract_family_gatekeeping():
    # all-identity parity: every alignment image collapses, so the scheme
    # fails; extraction refuses by default but can hand verify() the mess
    eye = Matrix.identity(GF2, 2)
    code = VectorCodeSystematic(n=4, k=2, ell=2, spec=GF2, parity=((eye, eye), (eye, eye)))
    scheme = ConstantRepairScheme((Matrix(GF2, [[1, 0]]), Matrix(GF2, [[0, 1]])))
    with pytest.raises(SchemeInvalid):
        extract_family(code, scheme)
    family = extract_family(code, scheme, check_scheme=False)
    assert not family.verify().ok


def test_random_constant_instances():
    rng = random.Random(20260816)
    for n, ell in ((4, 2), (5, 2), (5, 4), (6, 4)):
        k = n - 2
        code, scheme = random_constant_instance(n, k, ell, rng)
        assert code.n == n and code.k == k and code.ell == ell
        for m in range(k):
            assert check_msr_scheme(code, scheme, m).ok
        family = extract_family(code, scheme)
        assert family.k == k
        assert family.verify().ok
        # repair a random word at every node, exactly and at the cutset
        data = [
            [rng.randrange(code.spec.p) for _ in range(ell)] for _ in range(k)
        ]
        blocks = code.encode(data)
        for m in range(k):
            result = repair_node(code, scheme, m, blocks)
            assert result.block == blocks[m]
            assert Fraction(result.bandwidth.total) == cutset_bound(n, k, ell)


def test_random_constant_instance_validation():
    rng = random.Random(1)
    with pytest.raises(BadParams):
        random_constant_instance(4, 2, 3, rng)  # ell not a power of r
    with pytest.raises(BadParams):
        random_constant_instance(3, 2, 2, rng)  # r = 1


def test_random_constant_instance_errors_draw_nothing():
    # (9, 7) at ell = 2 needs 7 members of a 3-member family; over GF(2) the
    # field is refused before the count, and neither error draws from rng
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(FieldTooSmall):
        random_constant_instance(9, 7, 2, rng, FieldSpec(2))
    with pytest.raises(FieldTooSmall):
        random_constant_instance(4, 2, 2, rng, FieldSpec(2))
    with pytest.raises(BadParams, match="only provides 3 members, need 7"):
        random_constant_instance(9, 7, 2, rng)
    assert rng.getstate() == state
