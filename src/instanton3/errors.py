"""Exception types shared across the toolkit, the input checks that raise one, and the frozen-record base."""

from operator import attrgetter


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


# Record setters by arity, each a closure over the field names making one object.__setattr__ per field, chained
# by ``or`` (each returns None): CPython's compact instance layout stays, where a vars(self) dict slows field reads.
_store = object.__setattr__
_SETTERS = {
    1: lambda a: lambda s, x: _store(s, a, x),
    2: lambda a, b: lambda s, x, y: _store(s, a, x) or _store(s, b, y),
    3: lambda a, b, c: lambda s, x, y, z: _store(s, a, x) or _store(s, b, y) or _store(s, c, z),
    4: lambda a, b, c, d: lambda s, w, x, y, z: _store(s, a, w) or _store(s, b, x) or _store(s, c, y) or _store(s, d, z),
    6: lambda a, b, c, d, e, f: lambda s, u, v, w, x, y, z: (
        _store(s, a, u) or _store(s, b, v) or _store(s, c, w) or _store(s, d, x) or _store(s, e, y) or _store(s, f, z)
    ),
}


class Record:
    """A frozen value whose fields are its ``__init__`` parameters, in order, stored once by ``_set``."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__  # the code object, not inspect.signature: the CLI path must not load inspect
        cls._fields = names = code.co_varnames[1:code.co_argcount]
        if len(names) not in _SETTERS:
            raise TypeError(f"{cls.__name__} has {len(names)} fields; a record takes {', '.join(map(str, _SETTERS))}")
        cls._set = _SETTERS[len(names)](*names)
        get = attrgetter(*names)  # not a method: wrapped, and one field still gives a 1-tuple
        cls._values = (lambda self: (get(self),)) if len(names) == 1 else (lambda self: get(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        # Exact type only: a record never equals a tuple, nor another record type holding the same values.
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


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
