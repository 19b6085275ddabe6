"""Exception types shared across the package, and the integer reading that raises one."""

import operator


class RwclustError(Exception):
    """Base class for all rwclust errors."""


class PanelFormatError(RwclustError):
    """Input file cannot be parsed; carries the 1-based line/column of the bad cell."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ValidationError(RwclustError):
    """Structurally invalid data: duplicate ids, missing cells, broken invariants."""


class BinningRangeError(RwclustError):
    """An observation falls outside the histogram grid, or no grid can cover the pooled range."""


class DimensionError(RwclustError):
    """Mismatched lengths between paired inputs."""


class ParameterError(RwclustError):
    """A parameter or configuration value is out of its allowed range."""


class DegenerateSampleError(ParameterError):
    """A resampled subsample is too small to be represented: a subsample
    fraction that the panel's length cannot take."""


def _integer(value, what: str) -> int:
    """`value` as an int, read with operator.index so that 2.5, 3.0 or '3' is
    refused; a bool is refused too, though operator.index reads it as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{what} must be an integer, got {value!r}")
