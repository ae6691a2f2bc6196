"""Error classes, importable without loading numpy."""


class ConfigurationError(ValueError):
    """Inconsistent geometry, film or scenario parameters."""


class SolverError(RuntimeError):
    """Linear system could not be solved reliably."""
