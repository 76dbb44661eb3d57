"""Exception hierarchy shared by all hyperspline modules."""


class HypersplineError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDomainError(HypersplineError):
    """A query point lies outside the queryable domain of the grid."""


class TooFewPointsError(HypersplineError):
    """An axis has fewer than the 4 points the cubic stencil requires."""


class IrregularSpacingError(HypersplineError):
    """Axis coordinates are not an arithmetic progression."""


class UnsupportedDimensionError(HypersplineError):
    """Only 3- and 4-dimensional grids are supported."""


class DimensionMismatchError(HypersplineError, ValueError):
    """An operand has the wrong shape for the grid: a point, batch,
    local coordinate, derivative orders or element base with the wrong
    number of entries, or a matrix of the wrong size."""


class InvalidPointError(HypersplineError, ValueError):
    """A query point has complex or non-numeric coordinates."""


class InvalidArgumentError(HypersplineError, ValueError):
    """An argument other than a point is out of its range: a derivative
    order outside 0..3, a local coordinate outside [0, 1] or a batch
    chunk size that is not a positive integer."""


class SingularMatrixError(HypersplineError):
    """Exact elimination found no usable pivot (construction bug)."""


class NonIntegerInverseWarning(UserWarning):
    """The exact inverse of the constraint matrix was not integer-valued.

    The inverse is kept in exact rational form instead; interpolation
    results are unaffected.
    """


class GridFormatError(HypersplineError):
    """Base class for problems with a grid CSV file."""


class MissingHeaderError(GridFormatError):
    """The CSV header is absent or does not name the expected columns."""


class IncompleteGridError(GridFormatError):
    """Rows do not form a complete Cartesian product of axis coordinates."""


class NonFiniteValueError(GridFormatError):
    """A sample value is NaN or infinite."""


class CacheFormatError(HypersplineError):
    """Base class for problems with a coefficient-cache file."""


class BadMagicError(CacheFormatError):
    """The file does not start with the cache magic bytes."""


class VersionMismatchError(CacheFormatError):
    """The cache file uses an unsupported format version."""


class FingerprintMismatchError(CacheFormatError):
    """The cache file was written for a different grid."""


class TruncatedFileError(CacheFormatError):
    """The cache file ends before the advertised payload is complete."""
