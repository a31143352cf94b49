"""Shared exception types.  The CLI exits with 2 on ParseError and
UnsupportedError, 3 on InfeasibleError and 4 on CapExceededError."""


class RobustmixError(Exception):
    """Base class for all package errors."""


class ParseError(RobustmixError):
    """Malformed input file (graph, scenario CSV, mixture JSON, LP)."""


class InfeasibleError(RobustmixError):
    """The feasible set is empty under the given restrictions."""


class UnsupportedError(RobustmixError):
    """Operation not defined for this set type or parameter combination."""


class CapExceededError(RobustmixError):
    """An enumeration or evaluation budget was exceeded."""
