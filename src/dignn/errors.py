"""Exception types shared across the package."""


class DignnError(Exception):
    """Base class for all package errors."""


class DimensionError(DignnError):
    """Operand shapes are incompatible."""


class InvalidLabelError(DignnError):
    """A label is outside the expected set."""


class GraphLoadError(DignnError):
    """A data file or model.bin holds contents that are malformed or do not
    fit; one that cannot be opened or read raises Python's ``OSError``."""


class SplitError(DignnError):
    """A stratified split cannot be formed."""


class UndefinedMetricError(DignnError):
    """A metric has no defined value for the given inputs."""


class DivergenceError(DignnError):
    """Training produced a non-finite loss; ``history`` holds the epochs
    that completed before it."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history
