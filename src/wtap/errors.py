"""Exception hierarchy shared across the package.

Exit-code mapping used by the command line front end:

* ``InvariantViolationError`` -> 2
* ``InfeasibleInstanceError`` -> 3
* ``BadInputError``           -> 4
"""


class WtapError(Exception):
    """Base class for all package errors."""


class BadInputError(WtapError):
    """Malformed instance data, unparsable files, or bad CLI arguments.

    ``items`` holds the ``(kind, index)`` instance entries at fault, kind
    being "edge", "link" or "request": the offending one first, then any
    earlier one it clashes with; empty for the instance as a whole.
    """

    def __init__(self, message: str = "", *items):
        super().__init__(message)
        self.items = items


class InfeasibleInstanceError(WtapError):
    """A request arrived that no available link can cover."""


class InvariantViolationError(WtapError):
    """A runtime self-check failed.

    Raised when state that the algorithms guarantee by construction is
    observed to be broken (e.g. a coverage certificate that does not
    cover, or a budget cap exceeded).  Always indicates a bug, never a
    property of the input.
    """


class OracleSizeError(BadInputError):
    """An exhaustive oracle was asked to solve an instance above its cap."""
