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
    number of entries, sample values of the wrong count, or result
    points not aligned with the results they are written with."""


class ElementOutOfRangeError(HypersplineError, IndexError):
    """An element named by its base (to ``eval_local``, ``coefficients``
    or the grid's checked gather) lies outside the boundary policy's
    ``element_base_range``."""


class PointIndexError(HypersplineError, IndexError):
    """A ``BatchResult`` is indexed past the points it holds."""


class InvalidPointError(HypersplineError, ValueError):
    """A query point has complex or non-numeric coordinates."""


class InvalidArgumentError(HypersplineError, ValueError):
    """An argument other than a point is not of its type or out of its
    range: a derivative order that is not an integer in 0..3, a local
    coordinate outside [0, 1], an element that is not an ElementRef of
    integers, a BatchResult index that is not an integer, an unknown
    boundary policy, an axis, grid or component names that are not
    valid, a bad ``HYPERSPLINE_THREADS``, a file that cannot be opened
    or a bad command-line argument."""


class GridFormatError(HypersplineError):
    """Base class for problems with a grid CSV file."""


class MissingHeaderError(GridFormatError):
    """The CSV header is absent or does not name the expected columns."""


class IncompleteGridError(GridFormatError):
    """Rows do not form a complete Cartesian product of axis coordinates."""


class NonFiniteValueError(GridFormatError):
    """A sample value is NaN or infinite."""
