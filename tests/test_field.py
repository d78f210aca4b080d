"""Prime field arithmetic."""

from __future__ import annotations

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrlab.errors import DivisionByZero, MixedFields, NotPrime
from msrlab.field import MAX_MODULUS, FieldElement, FieldSpec, is_prime


def test_is_prime_matches_sieve():
    def sieve(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(-3, 500):
        assert is_prime(n) == sieve(n), n


def test_is_prime_rejects_carmichael_numbers():
    # composite but fools Fermat tests; Miller-Rabin must not be fooled
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
        assert not is_prime(n)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)


def test_spec_validation():
    assert FieldSpec(2).p == 2
    assert FieldSpec(MAX_MODULUS).p == MAX_MODULUS
    for bad in (0, 1, 4, 9, -7, MAX_MODULUS + 2):
        with pytest.raises(NotPrime):
            FieldSpec(bad)
    with pytest.raises(NotPrime):
        FieldSpec(3.0)
    # a huge modulus, as a loaded file may give, is named by a bounded repr
    with pytest.raises(NotPrime, match=r"^modulus 10+\.\.\.0+ outside") as err:
        FieldSpec(10**400)
    assert len(str(err.value)) < 80
    with pytest.raises(NotPrime, match=r"^modulus -7 outside \[2, 2\*\*31 - 1\]$"):
        FieldSpec(-7)


def test_spec_repr_and_constructors():
    spec = FieldSpec(7)
    assert repr(spec) == "GF(7)"
    assert spec.zero().value == 0
    assert spec.one().value == 1
    assert spec.element(10).value == 3


def test_element_reduction_and_int():
    spec = FieldSpec(5)
    assert FieldElement(12, spec).value == 2
    assert FieldElement(-1, spec).value == 4
    assert int(spec.element(7)) == 2
    assert bool(spec.element(5)) is False
    assert bool(spec.element(6)) is True


@pytest.mark.parametrize("bad, name", [(2.7, "float"), (3.0, "float"), ("3", "str"),
                                       (True, "bool"), (None, "NoneType"), (2 + 0j, "complex")])
def test_element_refuses_values_that_are_not_integers(bad, name):
    spec = FieldSpec(7)
    for make in (lambda v: FieldElement(v, spec), spec.element):
        with pytest.raises(TypeError, match=rf"^field elements must be ints, got {name}$"):
            make(bad)


def test_element_accepts_python_and_numpy_integers():
    spec = FieldSpec(7)
    for value in (9, np.int64(9), np.int32(-5), np.uint8(9)):
        element = spec.element(value)
        assert element.value == 2 and type(element.value) is int


def test_element_operators():
    spec = FieldSpec(7)
    a, b = spec.element(3), spec.element(5)
    assert (a + b).value == 1
    assert (a - b).value == 5
    assert (a * b).value == 1
    assert (-a).value == 4
    assert (a / b).value == (a * b.inv()).value
    assert (a**3).value == 6
    # ints coerce on either side
    assert (a + 4).value == 0
    assert (4 + a).value == 0
    assert (2 * b).value == 3
    assert (1 - a).value == 5
    assert (3 / a).value == 1
    assert (3 / b).value == (spec.element(3) * b.inv()).value
    with pytest.raises(DivisionByZero):
        a / 0
    # any other operand is NotImplemented on both sides, so Python raises TypeError
    for bad in (1.5, "x", True):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(a, bad)
            with pytest.raises(TypeError):
                op(bad, a)


def test_inverse_and_division_by_zero():
    spec = FieldSpec(11)
    for v in range(1, 11):
        assert (spec.element(v) * spec.element(v).inv()).value == 1
    with pytest.raises(DivisionByZero):
        spec.zero().inv()
    with pytest.raises(DivisionByZero):
        spec.one() / spec.zero()


def test_mixed_fields_rejected():
    a = FieldSpec(5).element(2)
    b = FieldSpec(7).element(2)
    with pytest.raises(MixedFields):
        a + b
    with pytest.raises(MixedFields):
        a * b
    with pytest.raises(MixedFields):
        a - b
    with pytest.raises(MixedFields):
        a / b


@settings(max_examples=60)
@given(
    p=st.sampled_from((2, 3, 7, 101, 2**31 - 1)),
    x=st.integers(0, 2**31),
    y=st.integers(0, 2**31),
    z=st.integers(0, 2**31),
)
def test_field_axioms(p, x, y, z):
    spec = FieldSpec(p)
    a, b, c = spec.element(x), spec.element(y), spec.element(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a.value:
        assert (a * a.inv()).value == 1
