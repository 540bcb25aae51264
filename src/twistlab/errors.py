"""Exception types shared across the package."""


class GenusMismatch(ValueError):
    """Two values from surfaces of different genus were combined."""


class UnsupportedGenus(ValueError):
    """No built-in generator table exists for the requested genus."""


class UnknownTwistName(ValueError):
    """A twist name is not present in the generator table."""


class SpecParseError(ValueError):
    """Malformed curve-spec text, its conjugator's mapping class word
    included."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class WordLengthLimit(RuntimeError):
    """An automorphism image exceeded the configured letter cap."""


class SeriesTermLimit(RuntimeError):
    """A series of a truncated action exceeded the configured term cap."""


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


class ConsistencyViolation(RuntimeError):
    """A pair report violated one of the cross-detector consistency laws.

    If this is ever raised the implementation (or its generator tables)
    is wrong; the laws themselves are exact.
    """
