"""Exception types shared across the package.

Convention: the package raises `ValueError` (or a subclass) only for
input it rejects, and `RuntimeError` (`InconsistentResult`) for a defect.
The CLI relies on it: `NotSelfDual` and `NotStarSelfDual` exit 1, any
other `ValueError` exits 2, everything else keeps its traceback. A
ground set outside a command's range is a `ValueError` too (the bound
tables take 1 <= t <= 28, at either parity).
"""


class GroundSetTooLarge(ValueError):
    """Ground set exceeds what the requested operation can materialize."""


class TrivialClutter(ValueError):
    """Operation requires a nontrivial clutter (not empty, not {0})."""


class NotAnFVector(ValueError):
    """An h-vector transformed back to counts that no family on E_t can have."""


class EmptyVertexSet(ValueError):
    """Alexander duality is undefined for the complex {0}."""


class NotStarSelfDual(ValueError):
    """Operation requires a family F with F* = F."""


class NotSelfDual(ValueError):
    """Operation requires a self-dual clutter (blocker equals the clutter)."""


class InvalidLevel(ValueError):
    """Cascade level must be a positive integer."""


class InconsistentResult(RuntimeError):
    """Two independent computations of the same fact disagree (a defect,
    not bad input)."""
