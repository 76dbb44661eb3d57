"""C1-continuous local cubic interpolation on regular 3D and 4D grids.

Each grid cell carries its own tensor-product cubic whose coefficients
are pinned by the field value and all mixed first partials at the cell
corners, estimated from centered differences of the surrounding
samples. That cubic is separable: restricted to a grid line it is the
uniform Catmull-Rom cubic, so a query gathers the cell's 4-wide sample
neighborhood and contracts it one axis at a time with Catmull-Rom
weights, and each first partial swaps in the differentiated weights on
its axis. Values and all first partial derivatives are continuous
across cell faces and the partials come out of the same polynomial
analytically. The coefficients themselves, the neighborhood times the
Kronecker power of the 4x4 Catmull-Rom basis matrix, are computed
per cell on request, for inspection only; that operator is built on
first use, never by a query. The paper's exact construction, ``inv(C)
@ F`` from the integer constraint matrix C and the central-difference
matrix F, is kept as the reference: it certifies the operator in
integer arithmetic, and its dense solve checks the values and first
partials that queries compute.

The top level holds the documented API; test fields and release checks
(``hyperspline.fields``) and the exact derivation (``operators``) are
imported from their modules. The file functions (``load_grid_csv``,
``write_grid_csv``, ``write_results_csv``) load ``hyperspline.io`` on
first use, so an import that only evaluates does not load it.

Quick start::

    import numpy as np
    from hyperspline import Axis, RegularGrid, Interpolator

    axes = [Axis(0.0, 0.5, 12)] * 3
    xs = axes[0].coordinates()
    zz, yy, xx = np.meshgrid(xs, xs, xs, indexing="ij")
    grid = RegularGrid(axes, np.sin(xx) * np.cos(yy) * np.cos(zz))
    f = Interpolator(grid)
    r = f.eval_with_gradient([1.3, 2.1, 0.9])
    r.values, r.gradient
"""

from .errors import (
    DimensionMismatchError,
    ElementOutOfRangeError,
    GridFormatError,
    HypersplineError,
    IncompleteGridError,
    InvalidArgumentError,
    InvalidPointError,
    IrregularSpacingError,
    MissingHeaderError,
    NonFiniteValueError,
    OutOfDomainError,
    PointIndexError,
    TooFewPointsError,
    UnsupportedDimensionError,
)
from .grid import Axis, BoundaryPolicy, ElementRef, RegularGrid
from .interpolator import BatchResult, Interpolator, QueryResult

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BatchResult",
    "BoundaryPolicy",
    "ElementRef",
    "Interpolator",
    "QueryResult",
    "RegularGrid",
    "load_grid_csv",
    "write_grid_csv",
    "write_results_csv",
    # errors
    "HypersplineError",
    "DimensionMismatchError",
    "ElementOutOfRangeError",
    "GridFormatError",
    "IncompleteGridError",
    "InvalidArgumentError",
    "InvalidPointError",
    "IrregularSpacingError",
    "MissingHeaderError",
    "NonFiniteValueError",
    "OutOfDomainError",
    "PointIndexError",
    "TooFewPointsError",
    "UnsupportedDimensionError",
]


def __getattr__(name):
    # the file functions resolve through io, imported on first access
    if name in ("load_grid_csv", "write_grid_csv", "write_results_csv"):
        from . import io

        return getattr(io, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # the lazy file functions are listed before their first use too
    return sorted(set(globals()) | set(__all__))
