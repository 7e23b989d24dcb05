"""Exception types raised across the package."""


class LogSampleError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(LogSampleError):
    """A mandatory column or attribute declaration is missing or inconsistent."""


class RowError(LogSampleError):
    """A single input row is unusable (bad timestamp, empty mandatory field)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyLogError(LogSampleError):
    """The input contains no events at all."""


class XesParseError(LogSampleError):
    """The XES document is malformed or violates the supported subset."""


class ConfigurationError(LogSampleError):
    """A caller-supplied setting is invalid or inconsistent with the data."""


class EmptySampleError(LogSampleError):
    """The configured selection would keep zero cases."""


class EncodingError(LogSampleError):
    """A feature row's activity is outside the encoding alphabet, or its columns are bad."""


class TrainingError(LogSampleError):
    """The prediction model cannot be fitted (e.g. no training rows)."""


class EvaluationError(LogSampleError):
    """The evaluation input is unusable (e.g. no test rows)."""


class UndefinedRatioError(LogSampleError):
    """A ratio metric has a zero or non-positive denominator."""


class SplitError(LogSampleError):
    """The log cannot be partitioned as requested (too few cases)."""
