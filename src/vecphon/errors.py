"""Exception types shared across the package.

Every error raised on purpose derives from VecphonError so the CLI can
map failures to a nonzero exit status with a structured message.
"""


class VecphonError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(VecphonError):
    """Array dimensions do not line up for the requested operation."""


class NumericError(VecphonError):
    """A computation produced or received non-finite values."""


class ConfigError(VecphonError):
    """An option value is outside its legal range."""


class DataError(VecphonError):
    """Input data is empty or otherwise unusable."""


class ParseError(DataError):
    """A data file could not be parsed; message carries the line number."""


class SplitError(DataError):
    """A corpus cannot be partitioned under the requested constraints."""


class VocabularyError(VecphonError):
    """A symbol or morpheme identifier is not in the vocabulary."""


class TrainingError(VecphonError):
    """Training diverged or could not proceed."""


class CheckpointError(VecphonError):
    """A checkpoint file is corrupt or incompatible."""


class CompatibilityError(VecphonError):
    """A checkpoint and a dataset disagree on vocabularies."""
