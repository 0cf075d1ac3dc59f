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

#: Most decimal digits of any integer accepted anywhere.  The cube of such a
#: class, and so every chi, table row and message, stays far below the 4,300
#: digits past which Python refuses to print an int.
MAX_DIGITS = 1000
MAX_INT = 10 ** MAX_DIGITS - 1


def _integers(values, what: str) -> tuple[int, ...]:
    """Each of ``values`` as an int of at most MAX_DIGITS digits (-1.0, Fraction(2) count); DomainError otherwise."""
    try:
        values = tuple(values)
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    short = not ints or max(map(abs, ints)) <= MAX_INT  # not ints: None, or an empty tuple
    if short and ints == values:
        return ints
    message = f"{what} must be integers of at most {MAX_DIGITS} digits"  # never prints a value past the cap
    if short:
        try:
            message = f"{what} must be integers, got {values}"
        except ValueError:  # an int too long to print, so past MAX_DIGITS too
            pass
    raise DomainError(message)


def _twist(value, name: str) -> int:
    """``value`` as an int when it is an integer of magnitude at most MAX_TWIST; DomainError otherwise."""
    if type(value) is int and -MAX_TWIST <= value <= MAX_TWIST:
        return value
    (value,) = _integers((value,), name)
    if -MAX_TWIST <= value <= MAX_TWIST:
        return value
    raise DomainError(f"{name} = {value} is out of range; |{name}| must be at most {MAX_TWIST}")
