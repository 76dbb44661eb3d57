"""File formats: grid CSV, query-points CSV and query-result CSV.

Grid CSV
    Header names the coordinate columns first, ``x,y,z`` (3D) or
    ``x,y,z,t`` (4D), then one column per field component, named as
    ``grid.as_component_names`` allows (non-empty, among other rules)
    and checked before the rows, so that every grid written reads back
    with its names. Rows hold one vertex each and may appear in any
    order; together they must form the complete Cartesian product of
    the per-axis coordinate values. The body is parsed in one
    ``np.loadtxt`` call (see :func:`parse_rows` for what a cell may hold)
    and placed by one scatter; a malformed line is reported by number.

Points CSV
    One query point per row, with an optional ``x,y,z[,t]`` header.

In both, a UTF-8 byte order mark and blank lines before the header are
skipped, and every line, the header too, is split by ``np.loadtxt``
with the same quote rules. A file that cannot be opened, for reading
or writing, raises ``InvalidArgumentError`` naming it and the reason.
Every ``HypersplineError`` raised once a file is open starts with its
name, and an axis's error names the axis too: ``g.csv: axis x: gap ...``.

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
import math
import os

import numpy as np

from .errors import (
    DimensionMismatchError,
    GridFormatError,
    HypersplineError,
    IncompleteGridError,
    InvalidArgumentError,
    MissingHeaderError,
    UnsupportedDimensionError,
    shown,
)
from .grid import (AXIS_NAMES, SUPPORTED_DIMS, RegularGrid,
                   as_component_names, as_coordinates, infer_axis,
                   is_integer, lattice, result_header)
from .interpolator import BatchResult

_BLOCK_ROWS = 4096  # rows formatted and written at once


def parse_rows(fh, ncols: int, first_line: int) -> np.ndarray:
    """Parse the rest of an open CSV file as an ``(n, ncols)`` float64 table.

    ``fh`` is a seekable text file positioned at line ``first_line``.
    Every cell is read as ``float()`` reads it, bit for bit, but by
    numpy's text reader: cells may be quoted with ``"``, ``#`` is not a
    comment marker, and Python literal spellings such as ``1_0`` are
    rejected. Empty lines are skipped. Errors name no file; a file's
    name is put in front of them by :func:`_open_text`.

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
    raise _bad_line(fh, ncols, first_line) or GridFormatError(problem)


def _loadtxt(lines, dtype=np.float64) -> np.ndarray:
    """The reader of every CSV line: ``,`` between cells, ``"`` quotes."""
    return np.loadtxt(lines, delimiter=",", dtype=dtype, ndmin=2,
                      comments=None, quotechar='"')


def _bad_line(lines, ncols, first_line):
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
                f"line {number} has a non-numeric cell: {line.rstrip()!r}")
        if width != ncols:
            return IncompleteGridError(
                f"line {number} has {width} columns, expected {ncols}")
    return None


@contextlib.contextmanager
def _named(name):
    """Re-raise a ``HypersplineError`` raised in the block as the same
    type, its message led by ``name: ``."""
    try:
        yield
    except HypersplineError as exc:
        raise type(exc)(f"{name}: {exc}") from None


@contextlib.contextmanager
def _open_text(path, mode="r"):
    """Open a file as UTF-8 text, for reading unless ``mode`` is "w".

    A byte order mark at the start of a file read is skipped, as
    spreadsheet programs write one; files written never get one. A file
    that cannot be opened, or anything but a path (such as a file
    descriptor), raises ``InvalidArgumentError`` naming it and the
    reason. Every ``HypersplineError`` raised in the block, and the
    ``GridFormatError`` of bytes that do not decode, is re-raised with
    the file's name in front of its message.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InvalidArgumentError(
            f"cannot open {shown(path)}: not a file path")
    # a bytes path or a path-like shows as its name, not its repr
    try:
        name = os.fsdecode(os.fspath(path))
    except TypeError as exc:  # a path-like that returns no path
        raise InvalidArgumentError(
            f"cannot open {shown(path)}: {exc}") from None
    try:
        fh = open(name, mode, encoding="utf-8" if mode == "w" else
                  "utf-8-sig", newline="")
    except (OSError, ValueError) as exc:  # ValueError: a NUL
        raise InvalidArgumentError(
            f"cannot open {name}: {getattr(exc, 'strerror', None) or exc}"
        ) from None
    with fh, _named(name):
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise GridFormatError(
                f"not UTF-8 text ({exc.reason}: "
                f"{exc.object[exc.start:exc.end]!r})") from None


def _read_header(fh):
    """The first line of ``fh`` that is not blank, read as a header:
    ``(names, dim, number, start)``, its stripped cells split as the rows
    are (object cells, as ``str`` ones drop trailing NULs; none at the
    end of the file), how many lead with ``x, y, z, t``, its line number
    and the file position where it starts."""
    number, start, line = 1, fh.tell(), fh.readline()
    while line and not line.strip():
        number, start, line = number + 1, fh.tell(), fh.readline()
    names = [n.strip() for n in _loadtxt([line], object)[0]] if line else []
    dim = 0
    for name, axis in zip(names, AXIS_NAMES):
        if name != axis:
            break
        dim += 1
    return names, dim, number, start


def load_grid_csv(path) -> RegularGrid:
    """Read a grid CSV file (see module docstring for the schema).

    Raises
    ------
    MissingHeaderError, IrregularSpacingError, TooFewPointsError,
    IncompleteGridError, NonFiniteValueError, GridFormatError
        If the file's contents are not a grid, naming the file.
    InvalidArgumentError
        If the file cannot be opened, or its header names a component
        as ``grid.as_component_names`` does not allow.
    """
    with _open_text(path) as fh:
        header, dim, number, _ = _read_header(fh)
        if not header:
            raise MissingHeaderError("file is empty or blank")
        if dim not in SUPPORTED_DIMS:
            raise MissingHeaderError(
                f"header must start with x,y,z or x,y,z,t, got {header[:4]}")
        component_names = header[dim:]
        if not component_names:
            raise MissingHeaderError("no field columns in header")
        m = len(component_names)
        as_component_names(component_names, m)
        rows = parse_rows(fh, dim + m, number + 1)
        if rows.shape[0] == 0:
            raise IncompleteGridError("no data rows")

        axes = []
        index = []
        for d in range(dim):
            uniq, inverse = np.unique(rows[:, d], return_inverse=True)
            with _named(f"axis {AXIS_NAMES[d]}"):
                axes.append(infer_axis(uniq))
            index.append(inverse)
        counts = tuple(a.count for a in axes)
        expected = math.prod(counts)
        if rows.shape[0] != expected:
            raise IncompleteGridError(
                f"got {rows.shape[0]} rows, expected {expected} "
                f"({'x'.join(map(str, counts))})")

        # flat vertex index with x varying fastest, the layout of the samples
        flat = np.ravel_multi_index(index[::-1], counts[::-1])
        if np.bincount(flat, minlength=expected).max() > 1:
            repeat = np.ones(expected, dtype=bool)
            repeat[np.unique(flat, return_index=True)[1]] = False
            coord = tuple(rows[np.argmax(repeat), :dim].tolist())
            raise IncompleteGridError(f"duplicate vertex {coord}")
        values = np.empty((expected, m))
        values[flat] = rows[:, dim:]
        return RegularGrid(axes, values, components=m,
                           component_names=component_names)


def load_points_csv(path, dim: int) -> np.ndarray:
    """Read query points from a CSV file as an ``(n, dim)`` float64 array.

    The first line that is not blank is a header if it starts with the
    axis names ``x, y, z[, t]``; every other line is one point, its
    cells read as :func:`parse_rows` reads them.

    Raises
    ------
    UnsupportedDimensionError
        If ``dim`` is not 3 or 4.
    InvalidArgumentError
        If the file cannot be opened.
    IncompleteGridError, GridFormatError
        Naming the first line that is not ``dim`` numbers.
    """
    if not is_integer(dim) or dim not in SUPPORTED_DIMS:
        raise UnsupportedDimensionError(
            f"points must have 3 or 4 coordinates, got dim={shown(dim)}")
    with _open_text(path) as fh:
        _, named, number, start = _read_header(fh)
        if named >= dim:
            number += 1
        else:
            fh.seek(start)
        return parse_rows(fh, dim, number)


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
    if not isinstance(grid, RegularGrid):
        raise InvalidArgumentError(
            f"grid must be a RegularGrid, got {shown(grid)}")
    table = np.column_stack([lattice(grid.axes),
                             grid.values.reshape(-1, grid.components)])
    with _open_text(path, "w") as fh:
        fh.write(",".join(AXIS_NAMES[:grid.dim] + grid.component_names) + "\n")
        _write_rows(fh, table, _row_format(table.shape[1]))


def _row_format(n_cells: int, tail: str = "") -> str:
    return ",".join(["%r"] * n_cells) + tail + "\n"


def write_results_csv(path, points, result: BatchResult, component_names):
    """Write batch query results; see module docstring for the layout.

    ``path`` is a file name, or an open text stream (anything with a
    ``write`` method) that is written to and left open.

    Raises
    ------
    DimensionMismatchError
        If ``points`` is not ``(n, dim)`` with one row per result and
        the results' dim.
    InvalidPointError
        If the coordinates are not all real numbers.
    InvalidArgumentError
        If ``result`` is not a :class:`BatchResult`, ``component_names``
        does not name each result component once, or the file cannot be
        opened.
    """
    if not isinstance(result, BatchResult):
        raise InvalidArgumentError(
            f"result must be a BatchResult, got {type(result).__name__}")
    points = as_coordinates(points)
    if points.shape != (len(result.ok), result.gradients.shape[-1]):
        raise DimensionMismatchError(
            "points must be (n, dim) and aligned with results")
    n, dim = points.shape
    m = result.values.shape[1]
    component_names = as_component_names(component_names, m)
    table = np.column_stack([points, result.values,
                             result.gradients.reshape(n, m * dim)])
    with (contextlib.nullcontext(path) if hasattr(path, "write")
          else _open_text(path, "w")) as fh:
        fh.write(",".join(result_header(dim, component_names)) + "\n")
        _write_rows(fh, table, _row_format(table.shape[1], ","),
                    ok=np.asarray(result.ok, dtype=bool),
                    bad_format=_row_format(
                        dim, ",NaN" * (m + m * dim) + ",out_of_domain"),
                    bad_cells=dim)
