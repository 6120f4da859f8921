"""Exception hierarchy shared by all modules."""


class HamisoError(Exception):
    """Base class for all library errors."""


class NonPrime(HamisoError):
    pass


class ReduciblePolynomial(HamisoError):
    pass


class OrderTooLarge(HamisoError):
    pass


class DivisionByZero(HamisoError):
    pass


class FieldMismatch(HamisoError):
    pass


class SpaceMismatch(HamisoError):
    pass


class WidthMismatch(HamisoError):
    pass


class ZeroColumn(HamisoError):
    """The generator matrix has an all-zero column and normalization is off."""


class ZeroSpace(HamisoError):
    """All generator rows are zero."""


class UnknownPoint(HamisoError):
    pass


class EnumerationTooLarge(HamisoError):
    pass


class RingTooLarge(HamisoError):
    pass


class SearchTooLarge(HamisoError):
    pass


class NotRelated(HamisoError):
    pass


class PointsRelated(HamisoError):
    pass


class NotSaturated(HamisoError):
    pass


class ZeroFunctional(HamisoError):
    pass


class LengthMismatch(HamisoError):
    pass


class NotMonomial(HamisoError):
    """Raised when a decomposition has no classical monomial form."""


class TheoremViolation(HamisoError):
    """A theorem the library relies on failed on an instance; indicates an implementation bug."""


class ParseError(HamisoError):
    pass


class SchemaViolation(HamisoError, ValueError):
    """Malformed input: a file or object that does not describe a valid space or code."""


class InvalidArgument(HamisoError, ValueError):
    """A call got an argument outside its domain: a dimension above the
    length, a bitmask wider than its space, a vector outside the codomain."""


class UsageError(HamisoError):
    """The command line does not parse."""


class SeedRequired(HamisoError):
    pass
