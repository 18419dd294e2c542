"""Exception hierarchy shared by all ybk modules."""


class YbkError(Exception):
    """Base class for every error raised by this package.

    The CLI exits with `exit_code`: 2 for usage and input errors, 1 for the
    property errors, which say that a property the operation needs fails.
    """

    exit_code = 2


class NotABijection(YbkError):
    """A table that should describe a bijection repeats an output."""


class UnknownName(YbkError):
    """An unrecognized catalog key."""


class InvalidParams(YbkError):
    """Parameters violate a documented precondition."""


class OutOfRange(InvalidParams):
    """A coordinate lies outside the declared ground set."""


def check_int(value, what: str, least: int | None = None) -> None:
    """Raise InvalidParams unless `value` is an int, not a bool, and at least `least`."""
    # `type` rather than isinstance: bool is a subclass of int
    if type(value) is not int:
        raise InvalidParams(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidParams(f"{what} must be at least {least}, got {value}")


class PositionOutOfRange(YbkError):
    """A leg position does not fit the tuple it should act on."""


class NotAYbeSolution(YbkError):
    """The operation needs a map satisfying the braid relation."""

    exit_code = 1


class Degenerate(YbkError):
    """The operation needs all coordinate maps to be invertible."""

    exit_code = 1


class Overflow(YbkError):
    """An enumeration would exceed the configured encoding limit."""


class FamilyMismatch(YbkError):
    """Words from different commutation families cannot be combined."""


class InvalidLetter(YbkError):
    """A word contains a colour or letter outside its family."""


class DegreeOutOfRange(YbkError):
    """A requested degree vector does not fit inside the word's degree."""


class PropertyMissing(YbkError):
    """The family lacks the uniqueness property the operation relies on."""

    exit_code = 1


class DegreesOverlap(YbkError):
    """Diamond completion needs words with disjoint degree support."""

    exit_code = 1


class SizeTooLarge(YbkError):
    """Exhaustive enumeration is only feasible for very small sizes."""


class SizeMismatch(YbkError):
    """The operation needs operands whose ground sets have matching sizes."""


class NotDerivedType(YbkError):
    """The operation is only defined for derived-type solutions."""

    exit_code = 1


class BadModulus(YbkError):
    """Modular coefficients need a modulus of at least 2."""


class ParseError(YbkError):
    """The input text is not well-formed JSON."""


class SchemaError(YbkError):
    """The JSON document does not match the expected schema."""


class PreconditionFailed(YbkError):
    """A stated precondition of the operation does not hold."""

    exit_code = 1
