"""Arithmetic in prime fields GF(p).

A FieldSpec pins down the modulus once; elements keep a reference to their
spec and refuse to mix with elements of any other spec. Plain Python ints
are accepted on the right or left of an operator and are reduced mod p.
"""

from __future__ import annotations

import operator
import reprlib
from dataclasses import dataclass

from .errors import DivisionByZero, MixedFields, NotPrime

MAX_MODULUS = 2**31 - 1

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin. Bases 2, 3, 5, 7 certify every n below
    3,215,031,751, which covers the whole supported modulus range."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(p) for a prime 2 <= p <= 2**31 - 1."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise NotPrime(f"modulus must be an int, got {type(self.p).__name__}")
        if not 2 <= self.p <= MAX_MODULUS:
            raise NotPrime(f"modulus {reprlib.repr(self.p)} outside [2, 2**31 - 1]")
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    def element(self, value: int) -> FieldElement:
        return FieldElement(value, self)

    def zero(self) -> FieldElement:
        return FieldElement(0, self)

    def one(self) -> FieldElement:
        return FieldElement(1, self)

    def __repr__(self) -> str:
        return f"GF({self.p})"


@dataclass(frozen=True)
class FieldElement:
    """An element of GF(p). Immutable; all operators return new elements."""

    value: int
    spec: FieldSpec

    def __post_init__(self):
        object.__setattr__(self, "value", int(self.value) % self.spec.p)

    def _combine(self, other, op):
        """op(self.value, other's value) as an element of this field, for
        other in the same field or a plain int; NotImplemented otherwise."""
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise MixedFields(f"cannot mix {self.spec!r} and {other.spec!r}")
            other = other.value
        elif not isinstance(other, int) or isinstance(other, bool):
            return NotImplemented
        return FieldElement(op(self.value, other), self.spec)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return self._combine(other, lambda x, y: y - x)

    def __mul__(self, other):
        return self._combine(other, operator.mul)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.spec)

    def inv(self) -> FieldElement:
        if self.value == 0:
            raise DivisionByZero(f"0 has no inverse in {self.spec!r}")
        return FieldElement(pow(self.value, -1, self.spec.p), self.spec)

    def __truediv__(self, other):
        return self._combine(other, lambda x, y: x * self.spec.element(y).inv().value)

    def __rtruediv__(self, other):
        return self._combine(other, lambda x, y: y * self.inv().value)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        return FieldElement(pow(self.value, exponent, self.spec.p), self.spec)

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.spec.p})"
