"""Exception types shared across the package."""


class TauredError(Exception):
    """Base class for all package errors."""


class NotFiniteDimensional(TauredError):
    """The relation ideal does not truncate the path algebra within the length bound."""


class UnknownVertex(TauredError):
    pass


class EmptySupport(TauredError):
    pass


class AlgebraMismatch(TauredError):
    """Two representations that should live over the same algebra do not."""


class ZeroModule(TauredError):
    pass


class QuotientMismatch(TauredError):
    """A module was handed to bar/inflate without the matching quotient relationship."""


class UnsupportedQuotient(TauredError):
    """The quotient is not presentable on the induced quiver (outside supported scope)."""


class NotProjInjective(TauredError):
    pass


class NonSimpleSocle(TauredError):
    pass


class NoProjInjective(TauredError):
    pass


class CapExceeded(TauredError):
    """A valid string longer than the cap exists; the input is likely representation-infinite."""


class NotStringAlgebra(TauredError):
    """The string-module enumeration was asked for an algebra that is not a string algebra."""


class InventoryError(TauredError):
    """The indecomposable inventory is not closed under the operations that need it."""


class HasseError(TauredError):
    """The mutation quiver of the given pairs is not the covering relation of their Fac order."""


class BadIndex(TauredError):
    pass


class NonIntegerResult(TauredError):
    pass


class UsageError(TauredError):
    """A command-line value is invalid; the CLI prints its usage and exits 2."""


class ParseError(TauredError):
    """Syntax or semantic error in an algebra description file."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.message = message
        self.line = line
        self.column = column
