"""Exception types shared across the package."""


class PrivCellError(Exception):
    """Base class for all package errors."""


class ShapeError(PrivCellError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class ArgumentError(PrivCellError, ValueError):
    """A scalar argument is out of its admissible range."""


class ConfigError(PrivCellError, ValueError):
    """A config file or scenario field failed validation."""


class DegenerateStepError(PrivCellError, RuntimeError):
    """An update step hit an exactly-zero denominator."""


class ProtocolError(PrivCellError, RuntimeError):
    """A message violates the allowed communication surface."""


class MetricUndefinedError(PrivCellError, ValueError):
    """A metric denominator is zero (e.g. NMSE of an all-zero reference)."""
