"""Exception types shared across the package, and the text-file reader
that raises them."""


class HrebError(Exception):
    """Base class for package errors."""


class ConfigError(HrebError):
    """Bad run configuration or malformed input data."""


class NumericsError(HrebError):
    """A computation produced NaN or infinity where finite values are required."""


class DegenerateRowError(NumericsError):
    """An attention row's normalization hit a non-positive sum. The message
    names the row as Pack.row_name does."""


class DivergenceError(NumericsError):
    """Training loss became non-finite; the run cannot continue."""


class CheckpointError(HrebError):
    """Checkpoint file is malformed or from an incompatible format version."""


class VerificationError(HrebError):
    """A self-check (gradient, decoder, or scan equivalence) failed."""


def read_lines(path, what):
    """The lines of the UTF-8 text file at path. A file that cannot be read
    or is not UTF-8 is a ConfigError that calls it `what` and names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{what} {path} is not UTF-8: {e}")
