"""Error taxonomy shared across pipeline stages.

Each class maps to one CLI exit code so batch scripts can branch on
failures without parsing prose.
"""


class LatentSumError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    kind = "internal"


class ConfigError(LatentSumError):
    exit_code = 2
    kind = "config"


class DataError(LatentSumError):
    exit_code = 3
    kind = "data"


class CheckpointError(LatentSumError):
    exit_code = 4
    kind = "checkpoint"


class NumericError(LatentSumError):
    exit_code = 5
    kind = "numeric"
