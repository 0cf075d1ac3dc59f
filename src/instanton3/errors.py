"""Exception types shared across the toolkit, and the input checks that raise one."""


class ToolkitError(Exception):
    """Base class for every domain error this package raises."""


class RankUnsupported(ToolkitError):
    """A rank-specific closed form was asked about a rank it does not cover."""


class NonIntegralChernClass(ToolkitError):
    """A Chow class is not the Chern character of any sheaf of the given rank."""


class NonIntegralChi(ToolkitError):
    """An Euler characteristic came out non-integral, so the input data are inconsistent."""


class ParityViolation(ToolkitError):
    """c3 - c1*c2 is odd, so the genus relation has no integer solution."""


class DomainError(ToolkitError, ValueError):
    """An argument lies outside the range on which the quantity is defined.

    Also a ValueError, so callers that catch the built-in keep working.
    """


class OutOfValidityRange(ToolkitError):
    """A spectrum cohomology formula was evaluated at a twist it does not cover."""


class NotNaturalizable(ToolkitError):
    """No single-index cohomology table exists for the given Chern data."""


class MissingRows(ToolkitError):
    """A cohomology table lacks the twists a check needs to read."""


class ConsistencyError(ToolkitError):
    """Two independent routes to the same quantity disagree, so a transcription is corrupted."""


class MissingHypothesis(ToolkitError):
    """A conclusion was requested without asserting a hypothesis it depends on."""


#: Largest twist magnitude accepted anywhere: tables past it have rows nobody reads.
MAX_TWIST = 100


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints when each is integer-valued (-1.0, Fraction(2)); DomainError otherwise."""
    try:
        values = tuple(values)
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise DomainError(f"{what} must be integers, got {values}")
    return ints


def _twist(value, name: str) -> int:
    """``value`` as an int when it is an integer of magnitude at most MAX_TWIST; DomainError otherwise."""
    if type(value) is not int:
        (value,) = _integers((value,), name)
    if -MAX_TWIST <= value <= MAX_TWIST:
        return value
    raise DomainError(f"{name} = {value} is out of range; |{name}| must be at most {MAX_TWIST}")
