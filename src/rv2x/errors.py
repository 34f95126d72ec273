"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value, file, or argument combination."""


class NonFiniteSatisfaction(RuntimeError):
    """The satisfaction estimate evaluated to a non-finite value.

    Carries a ``diagnostics`` dict (count of bad values, parameters and the
    queried ranges) so the caller can log what happened.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class InfeasibleMatching(RuntimeError):
    """No finite-weight perfect matching exists for the given weight matrix."""
