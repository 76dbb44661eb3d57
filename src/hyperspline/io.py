"""File formats: grid CSV, query-result CSV, binary coefficient cache.

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

Coefficient cache ("QCUB")
    Little-endian binary: magic ``QCUB``, format version (u16), a grid
    fingerprint (dim u8, components u32, per axis count u32 + origin f64
    + spacing f64, then a 64-bit sample checksum), entry count (u64),
    then per entry the element base (dim u32 values) and the coefficient
    tensor (components x 4^dim f64 values, component-major). Loading
    verifies the fingerprint and is atomic: a bad file leaves the
    interpolator untouched.
"""

from __future__ import annotations

import contextlib
import csv
import struct

import numpy as np

from .errors import (
    BadMagicError,
    FingerprintMismatchError,
    GridFormatError,
    IncompleteGridError,
    MissingHeaderError,
    NonFiniteValueError,
    TruncatedFileError,
    VersionMismatchError,
)
from .grid import RegularGrid, infer_axis
from .interpolator import BatchResult, Interpolator

AXIS_NAMES = ("x", "y", "z", "t")

CACHE_MAGIC = b"QCUB"
CACHE_VERSION = 1

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


def write_grid_csv(path, grid: RegularGrid, component_names=None):
    """Dump a grid in the exact format ``load_grid_csv`` reads.

    Values round-trip bit-identically; axis coordinates are written with
    full precision so re-inferred axes agree to 1e-15 relative.
    """
    names = _component_names(grid, component_names)
    dim = grid.dim
    mesh = np.meshgrid(*[a.coordinates() for a in grid.axes[::-1]],
                       indexing="ij")
    table = np.column_stack(
        [mesh[dim - 1 - d].reshape(-1) for d in range(dim)]
        + [grid.values.reshape(-1, grid.components)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(AXIS_NAMES[:dim] + tuple(names)) + "\n")
        _write_rows(fh, table, _row_format(table.shape[1]))


def _row_format(n_cells: int, tail: str = "") -> str:
    return ",".join(["%r"] * n_cells) + tail + "\n"


def _component_names(grid: RegularGrid, names=None):
    if names is None:
        return grid.component_names
    if len(names) != grid.components:
        raise ValueError(
            f"need {grid.components} component names, got {len(names)}")
    return tuple(names)


def result_header(dim: int, component_names):
    cols = list(AXIS_NAMES[:dim]) + list(component_names)
    for name in component_names:
        for d in range(dim):
            cols.append(f"d{name}_d{AXIS_NAMES[d]}")
    cols.append("error")
    return cols


def write_results_csv(path, points, result: BatchResult, component_names):
    """Write batch query results; see module docstring for the layout."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] != len(result.ok):
        raise ValueError("points must be (n, dim) and aligned with results")
    n, dim = points.shape
    m = result.values.shape[1]
    table = np.column_stack([points, result.values,
                             result.gradients.reshape(n, m * dim)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(result_header(dim, component_names)) + "\n")
        _write_rows(fh, table, _row_format(table.shape[1], ","),
                    ok=np.asarray(result.ok, dtype=bool),
                    bad_format=_row_format(
                        dim, ",NaN" * (m + m * dim) + ",out_of_domain"),
                    bad_cells=dim)


def _grid_fingerprint(grid: RegularGrid) -> bytes:
    # imported here: loading it maps OpenSSL's hash library, 3.6 MB
    # resident, into every process that imports the package
    import hashlib

    parts = [struct.pack("<BI", grid.dim, grid.components)]
    for a in grid.axes:
        parts.append(struct.pack("<Idd", a.count, a.origin, a.spacing))
    digest = hashlib.sha256(grid.values.tobytes()).digest()[:8]
    parts.append(digest)
    return b"".join(parts)


def save_cache(path, interp: Interpolator):
    """Persist every cached coefficient tensor of an interpolator."""
    items = interp.cache_items()
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<H", CACHE_VERSION))
        fh.write(_grid_fingerprint(interp.grid))
        fh.write(struct.pack("<Q", len(items)))
        for base, coeffs in items:
            fh.write(struct.pack(f"<{interp.dim}I", *base))
            fh.write(np.ascontiguousarray(coeffs, dtype="<f8").tobytes())


def load_cache(path, interp: Interpolator):
    """Restore cached coefficient tensors saved by :func:`save_cache`.

    The file's grid fingerprint must match the interpolator's grid, and
    every entry must name an element that is valid under the
    interpolator's boundary policy. The load is atomic: on any error the
    interpolator's cache is unchanged. Returns the number of entries restored.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(blob):
            raise TruncatedFileError(
                f"{path}: ended while reading {what} "
                f"(need {n} bytes at offset {pos}, have {len(blob) - pos})")
        out = blob[pos:pos + n]
        pos += n
        return out

    if take(4, "magic") != CACHE_MAGIC:
        raise BadMagicError(f"{path}: not a coefficient cache file")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != CACHE_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, supported {CACHE_VERSION}")
    expected_fp = _grid_fingerprint(interp.grid)
    if take(len(expected_fp), "grid fingerprint") != expected_fp:
        raise FingerprintMismatchError(
            f"{path}: cache was written for a different grid")
    (n_entries,) = struct.unpack("<Q", take(8, "entry count"))
    dim = interp.dim
    tensor_len = interp.components * 4 ** dim
    ranges = interp.grid.element_base_range(interp.policy)
    entries = []
    for k in range(n_entries):
        base = struct.unpack(f"<{dim}I", take(4 * dim, f"entry {k} base"))
        if not all(lo <= b <= hi for b, (lo, hi) in zip(base, ranges)):
            raise TruncatedFileError(
                f"{path}: entry {k} names element {base}, outside the "
                f"valid range under {interp.policy.value}")
        raw = take(8 * tensor_len, f"entry {k} coefficients")
        coeffs = np.frombuffer(raw, dtype="<f8").reshape(
            interp.components, 4 ** dim)
        entries.append((base, coeffs))
    if pos != len(blob):
        raise TruncatedFileError(
            f"{path}: {len(blob) - pos} unexpected trailing bytes")
    for base, coeffs in entries:
        interp.install_cache_entry(base, coeffs)
    return len(entries)
