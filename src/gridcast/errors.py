"""Exception hierarchy shared by every gridcast module."""


class GridcastError(Exception):
    """Base class for all gridcast errors."""


class DimensionError(GridcastError):
    """Shape or width mismatch between arrays."""


class ParameterError(GridcastError):
    """Invalid configuration value or argument."""


class StateError(GridcastError):
    """Operation called out of order (e.g. backward before forward)."""


class DataError(GridcastError):
    """Dataset-level problem: empty input, too few rows, bad values."""


class SchemaError(DataError):
    """CSV header does not match the expected column schema."""


class RowError(DataError):
    """A specific CSV row could not be ingested."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NumericError(GridcastError):
    """Numerically undefined result (singular system, zero variance)."""
