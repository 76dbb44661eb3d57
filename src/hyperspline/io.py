"""File formats: grid CSV and query-result CSV.

Grid CSV
    Header names the coordinate columns first, ``x,y,z`` (3D) or
    ``x,y,z,t`` (4D), then one column per field component. Rows hold one
    vertex each and may appear in any order; together they must form the
    complete Cartesian product of the per-axis coordinate values. The
    body is parsed in one ``np.loadtxt`` call (see :func:`parse_rows` for
    what a cell may hold) and placed by one scatter; a malformed line is
    reported by number.

Result CSV
    Coordinates, then value columns, then gradient columns named
    ``d<component>_d<axis>``, then an ``error`` column. Rows for points
    outside the queryable domain carry the literal token ``NaN`` in all
    result columns and ``out_of_domain`` in the error column.

Both CSV writers format every number with ``repr`` (the shortest text
that reads back as the same float64), a block of rows at a time.
"""

from __future__ import annotations

import contextlib
import csv

import numpy as np

from .errors import (
    DimensionMismatchError,
    GridFormatError,
    IncompleteGridError,
    MissingHeaderError,
    NonFiniteValueError,
)
from .grid import RegularGrid, as_component_names, as_coordinates, infer_axis
from .interpolator import BatchResult

AXIS_NAMES = ("x", "y", "z", "t")

_BLOCK_ROWS = 4096  # rows formatted and written at once


def parse_rows(fh, ncols: int, path, first_line: int) -> np.ndarray:
    """Parse the rest of an open CSV file as an ``(n, ncols)`` float64 table.

    ``fh`` is a seekable text file positioned at line ``first_line``.
    Every cell is read as ``float()`` reads it, bit for bit, but by
    numpy's text reader: cells may be quoted with ``"``, ``#`` is not a
    comment marker, and Python literal spellings such as ``1_0`` are
    rejected. Empty lines are skipped.

    Raises
    ------
    IncompleteGridError
        Naming the first line with a cell count other than ``ncols``.
    GridFormatError
        Naming the first line with a cell that is not a number.
    """
    start = fh.tell()
    if not any(line.strip() for line in fh):
        return np.empty((0, ncols))
    fh.seek(start)
    try:
        rows = _loadtxt(fh)
        if rows.shape[1] == ncols:
            return rows
        problem = f"rows have {rows.shape[1]} columns, expected {ncols}"
    except ValueError as exc:
        problem = str(exc)
    fh.seek(start)
    raise (_bad_line(fh, ncols, path, first_line)
           or GridFormatError(f"{path}: {problem}"))


def _loadtxt(lines) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2,
                      comments=None, quotechar='"')


def _bad_line(lines, ncols, path, first_line):
    """The error for the first line that does not parse as ``ncols`` numbers.

    Runs only after the whole table failed to parse, so it may afford one
    parse per line.
    """
    for number, line in enumerate(lines, first_line):
        if not line.strip("\r\n"):
            continue  # the table parse skipped it too
        try:
            width = _loadtxt([line]).shape[1]
        except ValueError:
            return GridFormatError(
                f"{path}: line {number} has a non-numeric cell: "
                f"{line.rstrip()!r}")
        if width != ncols:
            return IncompleteGridError(
                f"{path}: line {number} has {width} columns, "
                f"expected {ncols}")
    return None


@contextlib.contextmanager
def open_csv(path):
    """Open a CSV file as UTF-8 text for reading.

    Bytes that do not decode raise ``GridFormatError`` naming the file.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise GridFormatError(
                f"{path}: not UTF-8 text ({exc.reason}: "
                f"{exc.object[exc.start:exc.end]!r})") from None


def load_grid_csv(path) -> RegularGrid:
    """Read a grid CSV file (see module docstring for the schema).

    Raises
    ------
    MissingHeaderError, IrregularSpacingError, IncompleteGridError,
    NonFiniteValueError, GridFormatError
    """
    with open_csv(path) as fh:
        line = fh.readline()
        if not line:
            raise MissingHeaderError(f"{path}: file is empty")
        header = [h.strip() for h in next(csv.reader([line]))]
        dim = 0
        for name in header:
            if dim < 4 and name == AXIS_NAMES[dim]:
                dim += 1
            else:
                break
        if dim not in (3, 4):
            raise MissingHeaderError(
                f"{path}: header must start with x,y,z or x,y,z,t, "
                f"got {header[:4]}")
        component_names = header[dim:]
        if not component_names:
            raise MissingHeaderError(f"{path}: no field columns in header")
        m = len(component_names)
        rows = parse_rows(fh, dim + m, path, 2)
    if rows.shape[0] == 0:
        raise IncompleteGridError(f"{path}: no data rows")
    if not np.all(np.isfinite(rows[:, :dim])):
        raise NonFiniteValueError(f"{path}: non-finite coordinate")
    if not np.all(np.isfinite(rows[:, dim:])):
        raise NonFiniteValueError(f"{path}: non-finite field value")

    axes = []
    index = []
    for d in range(dim):
        uniq, inverse = np.unique(rows[:, d], return_inverse=True)
        axes.append(infer_axis(uniq))
        index.append(inverse)
    counts = tuple(a.count for a in axes)
    expected = int(np.prod(counts))
    if rows.shape[0] != expected:
        raise IncompleteGridError(
            f"{path}: got {rows.shape[0]} rows, expected {expected} "
            f"({'x'.join(map(str, counts))})")

    # flat vertex index with x varying fastest, the layout of the samples
    flat = np.ravel_multi_index(index[::-1], counts[::-1])
    if np.bincount(flat, minlength=expected).max() > 1:
        repeat = np.ones(expected, dtype=bool)
        repeat[np.unique(flat, return_index=True)[1]] = False
        coord = tuple(rows[np.argmax(repeat), :dim].tolist())
        raise IncompleteGridError(f"{path}: duplicate vertex {coord}")
    values = np.empty((expected, m))
    values[flat] = rows[:, dim:]
    return RegularGrid(axes, values, components=m,
                       component_names=component_names)


def _write_rows(fh, table, row_format, ok=None, bad_format="",
                bad_cells=0):
    """Write ``row_format % row`` for each row of a float table.

    ``%r`` of a Python float is ``repr``, the shortest text that reads
    back as the same float64. Where ``ok`` is False the row is written
    as ``bad_format % row[:bad_cells]`` instead. Rows are formatted and
    written _BLOCK_ROWS at a time, so the text held at once stays small.
    """
    n = table.shape[0]
    if ok is None:
        ok = np.ones(n, dtype=bool)
    for start in range(0, n, _BLOCK_ROWS):
        rows = table[start:start + _BLOCK_ROWS].tolist()
        flags = ok[start:start + _BLOCK_ROWS].tolist()
        fh.write("".join([row_format % tuple(row) if good
                          else bad_format % tuple(row[:bad_cells])
                          for row, good in zip(rows, flags)]))


def write_grid_csv(path, grid: RegularGrid):
    """Dump a grid in the exact format ``load_grid_csv`` reads.

    Values round-trip bit-identically; axis coordinates are written with
    full precision so re-inferred axes agree to 1e-15 relative. The
    header names the grid's ``component_names``.
    """
    dim = grid.dim
    mesh = np.meshgrid(*[a.coordinates() for a in grid.axes[::-1]],
                       indexing="ij")
    table = np.column_stack(
        [mesh[dim - 1 - d].reshape(-1) for d in range(dim)]
        + [grid.values.reshape(-1, grid.components)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(AXIS_NAMES[:dim] + grid.component_names) + "\n")
        _write_rows(fh, table, _row_format(table.shape[1]))


def _row_format(n_cells: int, tail: str = "") -> str:
    return ",".join(["%r"] * n_cells) + tail + "\n"


def result_header(dim: int, component_names):
    cols = list(AXIS_NAMES[:dim]) + list(component_names)
    for name in component_names:
        for d in range(dim):
            cols.append(f"d{name}_d{AXIS_NAMES[d]}")
    cols.append("error")
    return cols


def write_results_csv(path, points, result: BatchResult, component_names):
    """Write batch query results; see module docstring for the layout.

    Raises
    ------
    DimensionMismatchError
        If ``points`` is not ``(n, dim)`` with one row per result and
        the results' dim.
    InvalidPointError
        If the coordinates are not all real numbers.
    InvalidArgumentError
        If ``component_names`` does not name each result component once.
    """
    points = as_coordinates(points)
    if points.shape != (len(result.ok), result.gradients.shape[-1]):
        raise DimensionMismatchError(
            "points must be (n, dim) and aligned with results")
    n, dim = points.shape
    m = result.values.shape[1]
    component_names = as_component_names(component_names, m)
    table = np.column_stack([points, result.values,
                             result.gradients.reshape(n, m * dim)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(result_header(dim, component_names)) + "\n")
        _write_rows(fh, table, _row_format(table.shape[1], ","),
                    ok=np.asarray(result.ok, dtype=bool),
                    bad_format=_row_format(
                        dim, ",NaN" * (m + m * dim) + ",out_of_domain"),
                    bad_cells=dim)
