"""Exception hierarchy shared across the package."""

import contextlib


class AdadfqError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AdadfqError):
    """Tensor shapes are incompatible for the requested operation."""


class ContractError(AdadfqError):
    """A caller violated a documented precondition."""


class NumericError(AdadfqError):
    """Non-finite values or other numerical breakdown."""


class ConfigError(AdadfqError):
    """Invalid configuration file or hyperparameter combination."""


class DegenerateRangeError(AdadfqError):
    """Quantization range has min >= max; callers pass through unquantized."""


class CheckpointFormatError(AdadfqError):
    """Checkpoint file is corrupt or has an unsupported version."""


class DataError(AdadfqError):
    """Malformed dataset file."""


class WorkerError(AdadfqError):
    """The game's trace worker ended without a reply, or failed with an
    error that is not the package's."""


@contextlib.contextmanager
def utf8_only(path, error: type[AdadfqError]):
    """Raise ``error`` naming ``path`` for a byte in the block's reads of it
    that is not UTF-8, in place of the bare ``UnicodeDecodeError``."""
    try:
        yield
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
