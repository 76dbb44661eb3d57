"""Exception hierarchy shared by all hyperspline modules, and
:func:`shown`, the one way their messages show a caller's value."""


def _shown_one(value) -> str:
    try:
        return repr(value)
    except Exception:
        if isinstance(value, int):
            return f"<int of {int.bit_length(value)} bits>"
        return f"<{type(value).__name__}>"


def shown(value) -> str:
    """``repr(value)`` for an error message, or a stand-in where that
    raises, so building a typed error never raises another error. An
    integer past Python's 4,300-digit string limit shows as ``<int of
    N bits>``, inside a plain tuple or list too; any other value whose
    repr fails shows its type name."""
    try:
        return repr(value)
    except Exception:  # a caller's __repr__ may raise anything
        pass
    if type(value) in (tuple, list):  # plain ones iterate without fail
        inner = ", ".join(map(_shown_one, value))
        return f"({inner})" if type(value) is tuple else f"[{inner}]"
    return _shown_one(value)


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
    valid, a vertex index or component outside the grid, a file that
    cannot be opened or a bad command-line argument. No environment
    variable raises it: the library reads none, and a caller that wants
    a batch on more CPUs slices it (see ``Interpolator.eval_batch``)."""


class GridFormatError(HypersplineError):
    """Base class for problems with a grid CSV file."""


class MissingHeaderError(GridFormatError):
    """The CSV header is absent or does not name the expected columns."""


class IncompleteGridError(GridFormatError):
    """Rows do not form a complete Cartesian product of axis coordinates."""


class NonFiniteValueError(GridFormatError):
    """A sample value is NaN or infinite."""
