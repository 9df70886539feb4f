"""Exception types shared across the package."""


class DualcoxError(Exception):
    """Base class for every error raised by this package."""


class _PositionedError(DualcoxError, ValueError):
    """Input error that may name the offending position in the input text."""

    def __init__(self, message, position=None):
        self.reason, self.position = message, position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnsupportedTypeError(_PositionedError):
    """Group descriptor names a type outside the supported finite families."""


class WordParseError(_PositionedError):
    """Element input (simple word, reflection word, cycle form) failed to parse."""


class MixedGroupsError(DualcoxError, ValueError):
    """Operands belong to different Coxeter systems."""


class NoLinearModelError(DualcoxError, RuntimeError):
    """The group uses the combinatorial dihedral model, which carries no matrices."""


class CapExceededError(DualcoxError, RuntimeError):
    """An enumeration exceeded its cap; results were withheld rather than truncated silently."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap


class GroupTooLargeError(CapExceededError):
    """A group is too large to build, or to enumerate under the cap."""


class NotQuasiCoxeterError(DualcoxError, ValueError):
    """A decomposition was requested for an element that is not quasi-Coxeter where required."""


class InternalInvariantError(DualcoxError, RuntimeError):
    """A structural fact the theory guarantees failed to hold; this indicates a bug."""
