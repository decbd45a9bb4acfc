"""Exception and warning types shared across the package."""


class CapabilityError(ValueError):
    """An input exceeds a configured capability limit (e.g. eigenfunction order cap)."""


class TruncationError(RuntimeError):
    """A basis or sum truncation is too small for the requested accuracy."""


class ConvergenceWarning(UserWarning):
    """A self-consistency check did not reach its target; the value is returned anyway."""


class TruncationWarning(UserWarning):
    """A truncated sum's remainder bound exceeds the requested tolerance."""
