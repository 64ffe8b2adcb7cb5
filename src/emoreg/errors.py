"""Exception hierarchy shared across the package.

ConfigError maps to CLI exit code 2 (user/config mistakes); everything else
maps to exit code 1 (runtime failures).
"""


class EmoregError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(EmoregError):
    """Array extents do not satisfy an operation's contract."""


class ConfigError(EmoregError):
    """Invalid configuration value, unknown key, or bad hyperparameter."""


class ContractError(EmoregError):
    """An API was called outside its documented contract."""


class NumericError(EmoregError):
    """A NaN or Inf was produced where finite values are required."""


class InsufficientDataError(EmoregError):
    """Too few observations for the requested statistic."""


class CapacityError(EmoregError):
    """A sequence exceeds the configured maximum length."""


class NoModalityError(EmoregError):
    """The model was asked to run with an empty set of input modalities."""


class DataLoadError(EmoregError):
    """A dataset file violates the on-disk contract (message names file/row)."""
