"""Exception types shared across the package."""


class DiagnosticsError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateObjective(DiagnosticsError):
    """Objective evaluated to a non-finite value (e.g. vanishing density)."""


class InvalidDirection(DiagnosticsError):
    """Requested derivative direction is not admissible at the given point."""


class NotDistinct(DiagnosticsError):
    """The two compared points coincide within the separation tolerance."""


class KernelNotPSD(DiagnosticsError):
    """Covariance matrix could not be factorized even after jitter escalation."""


class ConfigError(DiagnosticsError):
    """Invalid experiment configuration (bad schema, unknown keys, bad values)."""


class ExplicitBound(ConfigError):
    """Requested enumeration exceeds the hard-coded combinatorial bound."""
