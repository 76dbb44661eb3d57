"""File formats: grid CSV, query-result CSV, binary coefficient cache.

Grid CSV
    Header names the coordinate columns first, ``x,y,z`` (3D) or
    ``x,y,z,t`` (4D), then one column per field component. Rows hold one
    vertex each and may appear in any order; together they must form the
    complete Cartesian product of the per-axis coordinate values.

Result CSV
    Coordinates, then value columns, then gradient columns named
    ``d<component>_d<axis>``, then an ``error`` column. Rows for points
    outside the queryable domain carry the literal token ``NaN`` in all
    result columns and ``out_of_domain`` in the error column.

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

import csv
import hashlib
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


def _format(v: float) -> str:
    # shortest representation that round-trips the exact float64
    return repr(float(v))


def load_grid_csv(path) -> RegularGrid:
    """Read a grid CSV file (see module docstring for the schema).

    Raises
    ------
    MissingHeaderError, IrregularSpacingError, IncompleteGridError,
    NonFiniteValueError
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingHeaderError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
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
        try:
            rows = np.array([[float(cell) for cell in row]
                             for row in reader if row], dtype=np.float64)
        except ValueError as exc:
            raise GridFormatError(f"{path}: non-numeric data row "
                                  f"({exc})") from None
    m = len(component_names)
    if rows.ndim != 2 or rows.shape[1] != dim + m:
        raise IncompleteGridError(
            f"{path}: rows must have {dim + m} columns")
    if not np.all(np.isfinite(rows[:, :dim])):
        raise NonFiniteValueError(f"{path}: non-finite coordinate")
    if not np.all(np.isfinite(rows[:, dim:])):
        raise NonFiniteValueError(f"{path}: non-finite field value")

    axes = []
    index_of = []
    for d in range(dim):
        uniq = np.unique(rows[:, d])
        axes.append(infer_axis(uniq))
        index_of.append({v: i for i, v in enumerate(uniq)})
    counts = tuple(a.count for a in axes)
    expected = int(np.prod(counts))
    if rows.shape[0] != expected:
        raise IncompleteGridError(
            f"{path}: got {rows.shape[0]} rows, expected {expected} "
            f"({'x'.join(map(str, counts))})")

    values = np.empty(counts[::-1] + (m,))
    seen = np.zeros(counts[::-1], dtype=bool)
    for row in rows:
        rev_idx = tuple(index_of[d][row[d]] for d in reversed(range(dim)))
        if seen[rev_idx]:
            coord = tuple(row[:dim])
            raise IncompleteGridError(f"{path}: duplicate vertex {coord}")
        seen[rev_idx] = True
        values[rev_idx] = row[dim:]
    return RegularGrid(axes, values, components=m,
                       component_names=component_names)


def write_grid_csv(path, grid: RegularGrid, component_names=None):
    """Dump a grid in the exact format ``load_grid_csv`` reads.

    Values round-trip bit-identically; axis coordinates are written with
    full precision so re-inferred axes agree to 1e-15 relative.
    """
    names = _component_names(grid, component_names)
    dim = grid.dim
    coords = [a.coordinates() for a in grid.axes]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(AXIS_NAMES[:dim] + tuple(names)) + "\n")
        for rev_idx in np.ndindex(*grid.counts[::-1]):
            point = [coords[d][rev_idx[dim - 1 - d]] for d in range(dim)]
            cells = [_format(c) for c in point]
            cells += [_format(v) for v in grid.values[rev_idx]]
            fh.write(",".join(cells) + "\n")


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
    dim = points.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(result_header(dim, component_names)) + "\n")
        for i in range(points.shape[0]):
            cells = [_format(c) for c in points[i]]
            if result.ok[i]:
                cells += [_format(v) for v in result.values[i]]
                cells += [_format(g) for g in result.gradients[i].reshape(-1)]
                cells.append("")
            else:
                n_res = result.values.shape[1] * (1 + dim)
                cells += ["NaN"] * n_res
                cells.append("out_of_domain")
            fh.write(",".join(cells) + "\n")


def _grid_fingerprint(grid: RegularGrid) -> bytes:
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
