"""Exception types shared across the library and the command line tool, and
the type check on caller input and integer check on JSON input that raise them."""


class OsimplexError(Exception):
    """Base class for all library errors."""


class ParseError(OsimplexError, ValueError):
    """Malformed textual or JSON input; carries a position when known."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ArityError(OsimplexError, ValueError):
    """Domain/codomain mismatch in a composition or a group operation."""


class NotComposableError(OsimplexError, ValueError):
    """Face-matching precondition of a filler, pasting or cell composite fails."""


class PreconditionError(OsimplexError, ValueError):
    """An operation's stated precondition does not hold for the given input."""


class InvalidExpressionError(PreconditionError):
    """An expression tree fails a node precondition; carries the node path."""

    def __init__(self, message, path=()):
        self.path = tuple(path)
        where = "/".join(self.path) or "root"
        super().__init__(f"{message} (node {where})")


class CellConditionError(PreconditionError):
    """A double sequence violates membership conditions; lists their numbers."""

    def __init__(self, violated):
        self.violated = sorted(set(violated))
        names = ", ".join(str(k) for k in self.violated)
        super().__init__(f"double sequence violates condition(s) {names}")


class EnumerationLimitError(OsimplexError, RuntimeError):
    """A bounded search exceeded its configured resource limit."""


def json_int(value, what):
    """An integer field of JSON input.  Booleans, floats and strings are
    rejected rather than cut down to an integer."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _checked(value, cls, what):
    """value, after the check that it is an instance of cls."""
    if not isinstance(value, cls):
        raise ArityError(f"expected {what}, not {type(value).__name__}")
    return value
