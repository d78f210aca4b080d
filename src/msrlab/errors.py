"""Exception types shared across the package."""


class MsrLabError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(MsrLabError):
    """Field modulus is not a prime in the supported range."""


class MixedFields(MsrLabError):
    """Operands belong to different field specs."""


class DivisionByZero(MsrLabError):
    """Multiplicative inverse of zero requested."""


class ShapeMismatch(MsrLabError):
    """Matrix dimensions do not fit the requested operation."""


class BadEntry(MsrLabError):
    """A matrix entry loaded from a file is not an integer."""


class Singular(MsrLabError):
    """Matrix is not invertible, or a linear system is inconsistent."""


class AmbientMismatch(MsrLabError):
    """Subspaces live in different ambient spaces."""


class StructuralError(MsrLabError):
    """Object violates a structural invariant (as opposed to failing a
    verified mathematical property)."""


class FieldTooSmall(MsrLabError):
    """The construction needs a field with more than two elements."""


class BadLambda(MsrLabError):
    """Scaling constant is 0 or 1, which breaks the construction."""


class BadParams(MsrLabError):
    """Parameter combination outside the operation's domain."""


class VerificationRequired(MsrLabError):
    """Operation needs a family that passes verification first."""


class IndexOutOfRange(MsrLabError):
    """Subspace or map index outside the valid range."""


class SchemeInvalid(MsrLabError):
    """Repair scheme fails its precondition for the given code."""


class CeilingExceeded(MsrLabError):
    """Requested dimension is above the configured ceiling."""


class LemmaViolation(MsrLabError):
    """A verified family broke a property that must hold for all verified
    families. Carries enough state to replay the failing check."""

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = dict(payload or {})
