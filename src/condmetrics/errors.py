"""Exception types shared across the package."""


class CondMetricsError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(CondMetricsError, ValueError):
    """An argument violates an operation's contract."""


class NotPSDError(CondMetricsError):
    """A matrix required to be PSD has an eigenvalue below the tolerance floor."""


class ConfigError(CondMetricsError):
    """A run configuration is unusable (missing files, inconsistent options)."""


class TensorFileError(InvalidInputError):
    """A tensor file is malformed; ``code`` identifies the failure class.

    Codes: bad-magic, bad-version, bad-dtype, bad-rank, bad-padding,
    truncated, non-finite, bad-value.
    """

    def __init__(self, message: str, *, code: str):
        super().__init__(message)
        self.code = code
