"""Exception types shared across the package."""


class InvariantError(RuntimeError):
    """An internal numerical invariant was violated (non-unitary operator, norm drift, ...)."""


class PostSelectionError(RuntimeError):
    """Post-selection on the requested outcome is impossible (vanishing probability)."""
