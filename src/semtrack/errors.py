"""Exception types shared across the library."""


class SemtrackError(Exception):
    """Base class for all library errors."""


class BehindCamera(SemtrackError):
    """Point (or box vertex) is at or behind the camera plane."""


class DegenerateGeometry(SemtrackError):
    """Input admits no unique solution (e.g. zero-area 2D box)."""


class NoConvergence(SemtrackError):
    """Iterative solve exceeded its iteration budget."""


class NumericalFailure(SemtrackError):
    """Normal equations stayed unsolvable (indefinite, or not finite)
    after damping escalation."""


class DegenerateGroup(SemtrackError):
    """All RANSAC samples in a group were rank deficient."""


class LengthMismatch(SemtrackError):
    """Trajectories do not share timestamps / lengths."""


class IoError(SemtrackError):
    """File read/write failure; message carries the offending path."""

    def __init__(self, path, message):
        self.path = str(path)
        super().__init__(f"{path}: {message}")


class ConfigError(SemtrackError):
    """Invalid run configuration; message carries the field path."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
