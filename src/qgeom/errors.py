"""Exception types shared across the package."""


class QgeomError(Exception):
    """Base class for all contract violations raised by this package."""


class NotPrimePower(QgeomError):
    """The requested field order is not a prime power."""


class Unsupported(QgeomError):
    """The requested field order is a prime power but above the supported cap."""


class DivisionByZero(QgeomError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class ZeroVector(QgeomError):
    """A projective point was requested for the zero vector."""


class FieldMismatch(QgeomError):
    """Two geometries over different fields were combined."""


class EmptyGeometry(QgeomError):
    """An operation that needs at least one point received an empty geometry."""


class InvalidEpsilon(QgeomError):
    """An epsilon is not positive, or above 1 where a bound needs a density."""
