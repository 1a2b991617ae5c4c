"""Exception types shared across the library."""


class ChipfireError(Exception):
    """Base class for all library errors."""


class InvalidGraphError(ChipfireError):
    """Raised when a graph fails validation (loops, disconnected, bad endpoints)."""


class WrongShapeError(ChipfireError):
    """Raised when an operation requires a graph shape (banana, theta) it did not get."""


class DegenerateMarksError(ChipfireError):
    """Raised by operations that refuse coincident marked vertices."""


class NonSubmodularError(ChipfireError):
    """Raised when a transmission permutation is requested for a divisor with a
    twist of negative local convexity.  Carries the offending twist."""

    def __init__(self, witness, value):
        self.witness = witness
        self.value = value
        super().__init__(f"non-submodular twist (delta={value}): {witness!r}")


class EnumerationCapError(ChipfireError):
    """Raised when a class enumeration would exceed the configured cap."""


class AlgorithmError(ChipfireError):
    """Internal invariant violation; indicates a bug, not bad input."""


class SpecParseError(ChipfireError):
    """Syntax or semantic error in a spec file.  Carries the line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
