import csv
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hyperspline import (
    Axis,
    DimensionMismatchError,
    GridFormatError,
    IncompleteGridError,
    Interpolator,
    InvalidArgumentError,
    InvalidPointError,
    IrregularSpacingError,
    MissingHeaderError,
    NonFiniteValueError,
    RegularGrid,
    TooFewPointsError,
    UnsupportedDimensionError,
    load_grid_csv,
    write_grid_csv,
    write_results_csv,
)
from hyperspline import io as hio
from hyperspline.fields import linear_field, sample, trig_product_field
from hyperspline.interpolator import BatchResult
from hyperspline.io import AXIS_NAMES, load_points_csv, result_header


def rows_4d(counts=(4, 4, 4, 4), func=None):
    if func is None:
        def func(x, y, z, t):
            return x + 2 * y + 3 * z + 4 * t
    rows = []
    for t in range(counts[3]):
        for z in range(counts[2]):
            for y in range(counts[1]):
                for x in range(counts[0]):
                    rows.append(f"{x},{y},{z},{t},{func(x, y, z, t)}")
    return rows


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLoadGridCsv:
    def test_scalar_4d(self, tmp_path):
        path = write_lines(tmp_path / "g.csv",
                           ["x,y,z,t,f"] + rows_4d())
        grid = load_grid_csv(path)
        assert grid.dim == 4
        assert grid.components == 1
        assert grid.counts == (4, 4, 4, 4)
        assert grid.component_names == ("f",)
        assert grid.vertex_value((1, 2, 3, 0)) == 1 + 4 + 9

    def test_vector_3d(self, tmp_path):
        lines = ["x,y,z,fx,fy,fz"]
        for z in range(5):
            for y in range(5):
                for x in range(5):
                    lines.append(f"{x},{y},{z},{x},{y * 2},{z * 3}")
        grid = load_grid_csv(write_lines(tmp_path / "g.csv", lines))
        assert grid.dim == 3
        assert grid.components == 3
        assert grid.component_names == ("fx", "fy", "fz")
        assert grid.vertex_value((1, 2, 3), 2) == 9.0

    def test_row_order_irrelevant(self, tmp_path):
        rows = rows_4d()
        a = load_grid_csv(write_lines(tmp_path / "a.csv",
                                      ["x,y,z,t,f"] + rows))
        rng = np.random.default_rng(0)
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        b = load_grid_csv(write_lines(tmp_path / "b.csv",
                                      ["x,y,z,t,f"] + shuffled))
        assert np.array_equal(a.values, b.values)
        assert a.counts == b.counts

    def test_missing_row(self, tmp_path):
        rows = rows_4d()[:-1]
        with pytest.raises(IncompleteGridError):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["x,y,z,t,f"] + rows))

    def test_vertex_count_does_not_wrap(self, tmp_path):
        # 2**16 distinct values on each of four axes span 2**64 vertices,
        # which np.prod wrapped to 0: the message read "expected 0"
        rows = [f"{i},{i},{i},{i},0" for i in range(2 ** 16)]
        with pytest.raises(IncompleteGridError,
                           match=f"expected {2 ** 64} "):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["x,y,z,t,f"] + rows))

    def test_duplicate_vertex(self, tmp_path):
        rows = rows_4d()
        rows[-1] = rows[0]
        with pytest.raises(IncompleteGridError) as info:
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["x,y,z,t,f"] + rows))
        assert str(info.value).endswith(
            "duplicate vertex (0.0, 0.0, 0.0, 0.0)")

    def test_short_row_names_line_and_width(self, tmp_path):
        rows = rows_4d()
        rows[6] = "2,1,0,0"
        with pytest.raises(IncompleteGridError,
                           match="line 8 has 4 columns, expected 5"):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["x,y,z,t,f"] + rows))

    @pytest.mark.parametrize("row", [
        "3,1,0,0,",       # empty cell
        "3,1,0,0,1,",     # trailing comma
        "3,1,0,0,1#2",    # not a comment marker
        "3,1,0,0,1_0",    # Python-only number spelling
        "3,1,0,0,1 2",
    ])
    def test_malformed_cell_names_line(self, tmp_path, row):
        rows = rows_4d()
        rows[7] = row
        with pytest.raises(GridFormatError,
                           match="line 9 has a non-numeric cell"):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["x,y,z,t,f"] + rows))

    def test_quoted_cells_accepted(self, tmp_path):
        rows = rows_4d()
        plain = load_grid_csv(write_lines(tmp_path / "a.csv",
                                          ["x,y,z,t,f"] + rows))
        quoted = [",".join(f'"{c}"' for c in r.split(",")) for r in rows]
        grid = load_grid_csv(write_lines(tmp_path / "b.csv",
                                         ['"x","y","z","t","f"'] + quoted))
        assert np.array_equal(grid.values, plain.values)
        assert grid.axes == plain.axes

    def test_header_only(self, tmp_path):
        with pytest.raises(IncompleteGridError, match="no data rows"):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["x,y,z,t,f", "", ""]))

    def test_nan_value(self, tmp_path):
        rows = rows_4d()
        rows[7] = "3,1,0,0,nan"
        with pytest.raises(NonFiniteValueError):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["x,y,z,t,f"] + rows))

    def test_nan_coordinate(self, tmp_path):
        rows = rows_4d()
        rows[7] = "nan,1,0,0,5"
        with pytest.raises(NonFiniteValueError,
                           match="axis x: axis coordinates must be finite"):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["x,y,z,t,f"] + rows))

    def test_missing_header(self, tmp_path):
        with pytest.raises(MissingHeaderError):
            load_grid_csv(write_lines(tmp_path / "g.csv", rows_4d()))

    def test_wrong_coordinate_names(self, tmp_path):
        with pytest.raises(MissingHeaderError):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["a,b,c,f"] + rows_4d()))

    def test_no_field_columns(self, tmp_path):
        lines = ["x,y,z"] + [f"{x},{y},{z}" for z in range(4)
                             for y in range(4) for x in range(4)]
        with pytest.raises(MissingHeaderError):
            load_grid_csv(write_lines(tmp_path / "g.csv", lines))

    def test_repeated_component_name(self, tmp_path):
        # loaded, and query then wrote x,y,z,f,f,df_dx,...,df_dx,...,error:
        # a reader looking columns up by name got one component twice
        lines = ["x,y,z,f,f"] + [f"{x},{y},{z},1,2" for z in range(4)
                                 for y in range(4) for x in range(4)]
        with pytest.raises(InvalidArgumentError, match="repeats a name"):
            load_grid_csv(write_lines(tmp_path / "g.csv", lines))

    def test_irregular_spacing(self, tmp_path):
        lines = ["x,y,z,f"]
        xs = [0.0, 1.0, 2.5, 3.0]
        for z in range(4):
            for y in range(4):
                for x in xs:
                    lines.append(f"{x},{y},{z},1.0")
        with pytest.raises(IrregularSpacingError):
            load_grid_csv(write_lines(tmp_path / "g.csv", lines))

    def test_non_numeric_cell(self, tmp_path):
        rows = rows_4d()
        rows[3] = "oops,1,0,0,1"
        with pytest.raises(GridFormatError):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["x,y,z,t,f"] + rows))

    def test_empty_file(self, tmp_path):
        with pytest.raises(MissingHeaderError):
            load_grid_csv(write_lines(tmp_path / "g.csv", [""]))

    def test_not_utf8(self, tmp_path):
        rows = rows_4d()
        rows[7] = "\xff\xfe" + rows[7]
        path = tmp_path / "g.csv"
        path.write_bytes("\n".join(["x,y,z,t,f"] + rows).encode("latin-1"))
        with pytest.raises(GridFormatError) as info:
            load_grid_csv(str(path))
        assert str(info.value).startswith(f"{path}: not UTF-8 text")


class TestHeaderAfterBlankLines:
    def test_grid_loads(self, tmp_path):
        grid = load_grid_csv(write_lines(tmp_path / "g.csv",
                                         ["", " \t", "x,y,z,t,f"] + rows_4d()))
        assert grid.counts == (4, 4, 4, 4)
        assert grid.vertex_value((1, 2, 3, 0)) == 1 + 4 + 9

    def test_grid_bad_row_names_its_line(self, tmp_path):
        rows = rows_4d()
        rows[6] = "2,1,0,0"
        with pytest.raises(IncompleteGridError,
                           match="line 10 has 4 columns, expected 5"):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["", "", "x,y,z,t,f"] + rows))

    @pytest.mark.parametrize("header", [["x,y,z"], []],
                             ids=["header", "no-header"])
    def test_points_load(self, tmp_path, header):
        path = write_lines(tmp_path / "p.csv",
                           ["", " "] + header + ["1,2,3", "", "4,5,6"])
        assert np.array_equal(load_points_csv(path, 3),
                              [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    @pytest.mark.parametrize("header, line", [(["x,y,z"], 5), ([], 4)],
                             ids=["header", "no-header"])
    def test_points_bad_row_names_its_line(self, tmp_path, header, line):
        path = write_lines(tmp_path / "p.csv",
                           ["", ""] + header + ["1,2,3", "1,a,3"])
        with pytest.raises(GridFormatError,
                           match=f"line {line} has a non-numeric cell"):
            load_points_csv(path, 3)


class TestHeaderCells:
    """The header is split by the rows' reader, into the cells the csv
    module reads from the line, without its field limit."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=2000)
    @given(body=st.lists(st.sampled_from(
               ['"', '""', ",", " ", "\t", "\0", "#", "x", "f", "1", ".", "é",
                "磁", "\x0b", "\x85", "\u2028", "\ufeff"])).map("".join),
           end=st.sampled_from(["\n", "\r\n", "\r", ""]))
    def test_cells_equal_the_csv_modules(self, body, end):
        fh = io.StringIO(body + end, newline="")
        line = fh.getvalue()
        names, dim, number, start = hio._read_header(fh)
        if not line.strip():  # skipped, and nothing follows
            assert names == [] and dim == 0
            return
        assert (number, start) == (1, 0)
        try:
            cells = next(csv.reader([line]))
        except csv.Error:
            return
        assert names == [c.strip() for c in cells]

    @pytest.mark.parametrize("line, names", [
        ('x,"y",z ,"a,b"\n', ["x", "y", "z", "a,b"]),
        ('x,y,z,"say ""hi"""\r\n', ["x", "y", "z", 'say "hi"']),
        ("x,y,z,#f\x00\x00\r", ["x", "y", "z", "#f\x00\x00"])],
        ids=["quoted-comma", "doubled-quote", "comment-nul"])
    def test_cells(self, line, names):
        assert hio._read_header(io.StringIO(line, newline=""))[0] == names


class TestByteOrderMark:
    """Spreadsheet programs start a UTF-8 CSV with a byte order mark; it
    was read as part of the first header cell or point."""

    @staticmethod
    def with_mark(path, lines):
        return write_lines(path, ["\ufeff" + lines[0]] + lines[1:])

    def test_grid_loads_as_without(self, tmp_path):
        lines = ["x,y,z,t,f"] + rows_4d()
        got = load_grid_csv(self.with_mark(tmp_path / "b.csv", lines))
        want = load_grid_csv(write_lines(tmp_path / "g.csv", lines))
        assert got.axes == want.axes
        assert got.component_names == ("f",)
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("header", [["x,y,z"], []],
                             ids=["header", "no-header"])
    def test_points_load_as_without(self, tmp_path, header):
        lines = header + ["1,2,3", "4.5,5,-6"]
        got = load_points_csv(self.with_mark(tmp_path / "p.csv", lines), 3)
        assert got.tobytes() == np.array([[1, 2, 3], [4.5, 5, -6]],
                                         dtype=float).tobytes()

    def test_written_files_start_without_one(self, tmp_path):
        grid = sample(linear_field(3), [Axis(0, 1, 4)] * 3)
        interp = Interpolator(grid)
        pts = np.array([[1.5, 1.5, 1.5]])
        write_grid_csv(tmp_path / "g.csv", grid)
        write_results_csv(tmp_path / "r.csv", pts, interp.eval_batch(pts),
                          grid.component_names)
        for name in ("g.csv", "r.csv"):
            assert (tmp_path / name).read_bytes().startswith(b"x,y,z,")


class TestFileErrors:
    @pytest.mark.parametrize("name, reason", [
        ("missing/g.csv", "No such file or directory"),
        (".", "Is a directory"),
        ("nul\0.csv", "embedded null byte")])
    def test_unopenable_file_named(self, tmp_path, name, reason):
        path = tmp_path / name
        for load in (load_grid_csv, lambda p: load_points_csv(p, 3)):
            with pytest.raises(InvalidArgumentError,
                               match=f"cannot open .*{reason}") as info:
                load(path)
            assert str(path) in str(info.value)

    def test_unwritable_output_named(self, tmp_path):
        grid = sample(linear_field(3), [Axis(0, 1, 5)] * 3)
        pts = np.full((2, 3), 2.0)
        res = Interpolator(grid).eval_batch(pts)
        with pytest.raises(InvalidArgumentError,
                           match=f"cannot open {tmp_path}: Is a directory"):
            write_results_csv(tmp_path, pts, res, grid.component_names)
        with pytest.raises(InvalidArgumentError,
                           match=f"cannot open {tmp_path}: Is a directory"):
            write_grid_csv(tmp_path, grid)

    def test_file_descriptor_is_not_a_path(self):
        # open() took an integer for a descriptor: the loaders read and
        # the writers wrote and closed it
        grid = sample(linear_field(3), [Axis(0, 1, 5)] * 3)
        res = Interpolator(grid).eval_batch(np.full((2, 3), 2.0))
        read_fd, write_fd = os.pipe()
        try:
            # writers first: a loader would wait on the open pipe
            for call in (lambda: write_grid_csv(write_fd, grid),
                         lambda: write_results_csv(
                             write_fd, np.full((2, 3), 2.0), res,
                             grid.component_names),
                         lambda: load_grid_csv(read_fd),
                         lambda: load_points_csv(read_fd, 3)):
                with pytest.raises(InvalidArgumentError,
                                   match="not a file path"):
                    call()
            os.write(write_fd, b"open")  # still open, nothing written
            os.close(write_fd)
            assert os.read(read_fd, 100) == b"open"
        finally:
            for fd in (read_fd, write_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass

    def test_grid_writer_rejects_what_is_not_a_grid(self, tmp_path):
        # an AttributeError escaped
        path = tmp_path / "g.csv"
        with pytest.raises(InvalidArgumentError, match="RegularGrid"):
            write_grid_csv(path, np.zeros((4, 4, 4)))
        assert not path.exists()

    def test_oversized_header_cell(self, tmp_path):
        # a name past the csv module's field limit (131,072 characters)
        # was written, and the header reader refused it with csv.Error
        name = "f" * 200_000
        grid = RegularGrid([Axis(0, 1, 4)] * 4, np.arange(256.0),
                           component_names=[name])
        write_grid_csv(tmp_path / "g.csv", grid)
        back = load_grid_csv(tmp_path / "g.csv")
        assert back.component_names == (name,)
        assert back.values.tobytes() == grid.values.tobytes()

    def test_points_line_past_csv_field_limit(self, tmp_path):
        # header detection ran the csv module over the line, which refused
        # a cell longer than its field limit that parse_rows reads
        path = write_lines(tmp_path / "p.csv",
                           ["", "0.5,0.5,0.5" + " " * 140_000, "1,2,3"])
        assert np.array_equal(load_points_csv(path, 3),
                              [[0.5, 0.5, 0.5], [1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("dim", [2, 5, "3", None, True, 3.0])
    def test_points_dim_must_be_3_or_4(self, tmp_path, dim):
        path = write_lines(tmp_path / "p.csv", ["1,2,3"])
        with pytest.raises(UnsupportedDimensionError):
            load_points_csv(path, dim)


def lattice_rows(*coords):
    """Grid CSV rows over the product of each axis's coordinate cells,
    x varying fastest, with the value 1 at every vertex."""
    return [",".join(cells[::-1]) + ",1"
            for cells in itertools.product(*coords[::-1])]


class TestErrorsNameTheFile:
    # each error of a file's contents starts with its name, an axis's
    # error names the axis too; at first the axis, grid and component
    # name errors named neither, and a trailing comma in the header
    # blamed line 2
    COLS = [["0", "1", "2", "3"]] * 4
    COLLIDING = [f"1000000000000000.{i}" for i in range(4)]  # 3 in float64

    @pytest.mark.parametrize("header, rows, error, message", [
        ("x,y,z,t,f", lattice_rows(*COLS[:3], ["0", "1", "2", "4"]),
         IrregularSpacingError, "axis t: gap 1.0 at index 0 deviates from "
         "uniform spacing 1.3333333333333333"),
        ("x,y,z,t,f", lattice_rows(*COLS[:2], ["0", "1", "2"], COLS[3]),
         TooFewPointsError,
         "axis z: need at least 4 coordinates to define an axis, got 3"),
        ("x,y,z,t,f", lattice_rows(COLS[0], COLLIDING, *COLS[2:]),
         TooFewPointsError,
         "axis y: need at least 4 coordinates to define an axis, got 3"),
        ("x,y,z,t,f", ["nan" + row[1:] if row == "3,3,3,3,1" else row
                       for row in lattice_rows(*COLS)],
         NonFiniteValueError, "axis x: axis coordinates must be finite"),
        ("x,y,z,t,f", [row[:-1] + "nan" if row == "3,3,3,3,1" else row
                       for row in lattice_rows(*COLS)],
         NonFiniteValueError, "grid samples must all be finite"),
        ("x,y,z,t,f,f", [row + ",1" for row in lattice_rows(*COLS)],
         InvalidArgumentError, "component name 'f' would not read back"),
        ("x,y,z,t,f,", lattice_rows(*COLS),
         InvalidArgumentError, "component name '' would not read back"),
        ("x,y,z,t,", lattice_rows(*COLS),
         InvalidArgumentError, "component name '' would not read back"),
    ], ids=["irregular", "too-few", "colliding", "nan-coordinate",
            "nan-sample", "repeated-name", "trailing-comma", "empty-name"])
    def test_grid_errors_start_with_the_path(self, tmp_path, header, rows,
                                             error, message):
        path = write_lines(tmp_path / "g.csv", [header] + rows)
        with pytest.raises(error) as info:
            load_grid_csv(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_bytes_path_shows_as_its_name(self, tmp_path):
        # a bytes path showed as its repr: cannot open b'...'
        missing = os.fsencode(tmp_path / "missing.csv")
        with pytest.raises(InvalidArgumentError) as info:
            load_grid_csv(missing)
        assert str(info.value).startswith(
            f"cannot open {tmp_path / 'missing.csv'}: ")

    def test_bytes_path_names_its_grid_errors(self, tmp_path):
        path = write_lines(tmp_path / "g.csv", ["x,y,z,t,f,f"] + [
            row + ",1" for row in lattice_rows(*self.COLS)])
        with pytest.raises(InvalidArgumentError) as info:
            load_grid_csv(os.fsencode(path))
        assert str(info.value).startswith(
            f"{path}: component name 'f' would not read back")


def grid_lines(grid):
    """Grid CSV lines, cells written with ``repr``, rows in array order."""
    coords = [a.coordinates() for a in grid.axes]
    lines = [",".join(AXIS_NAMES[:grid.dim] + grid.component_names)]
    for rev in np.ndindex(*grid.counts[::-1]):
        cells = [coords[d][rev[grid.dim - 1 - d]] for d in range(grid.dim)]
        cells += list(grid.values[rev])
        lines.append(",".join(repr(float(c)) for c in cells))
    return lines


class TestGridLoaderProperties:
    @pytest.mark.parametrize("dim,m", [(3, 1), (3, 3), (4, 1), (4, 3)])
    def test_row_order_and_layout_do_not_matter(self, tmp_path, dim, m):
        rng = np.random.default_rng(dim * 10 + m)
        axes = [Axis(-0.3, 0.7, 4), Axis(1.0, 0.25, 5), Axis(0.0, 2.0, 4),
                Axis(5.0, 0.5, 4)][:dim]
        counts = tuple(a.count for a in axes)
        grid = RegularGrid(axes, rng.standard_normal(counts[::-1] + (m,)),
                           components=m,
                           component_names=[f"c{i}" for i in range(m)])
        lines = grid_lines(grid)
        for trial in range(3):
            perm = rng.permutation(len(lines) - 1) + 1
            rows = [lines[i] for i in perm]
            if trial == 1:
                rows = [" " + r.replace(",", " ,\t") + " " for r in rows]
            newline = "\r\n" if trial == 2 else "\n"
            path = tmp_path / f"g{trial}.csv"
            path.write_bytes((newline.join([lines[0]] + rows) + newline)
                             .encode("utf-8"))
            back = load_grid_csv(path)
            assert np.array_equal(back.values, grid.values)
            assert back.axes == load_grid_csv(
                write_lines(tmp_path / "ordered.csv", lines)).axes
            assert back.counts == counts
            assert back.component_names == grid.component_names

    @pytest.mark.parametrize("fmt", [repr, "%.17g".__mod__, "%.6e".__mod__,
                                     "int"])
    def test_cells_parse_like_python_float(self, tmp_path, fmt):
        rng = np.random.default_rng(7)
        n = 4 ** 3 * 3
        if fmt == "int":
            ints = rng.integers(-2 ** 62, 2 ** 62, n)
            ints[:4] = [0, -1, 2 ** 53 + 1, -(2 ** 53) - 1]
            cells = [str(int(v) * 37) for v in ints]
        else:
            bits = rng.integers(0, 2 ** 64, 4 * n, dtype=np.uint64)
            vals = bits.view(np.float64)
            vals = vals[np.isfinite(vals)][:n]
            vals[:6] = [-0.0, 5e-324, -2.2250738585072009e-308, 1e300,
                        -1e300, np.finfo(np.float64).max]
            cells = [fmt(float(v)) for v in vals]
        lines = ["x,y,z,a,b,c"]
        for k in range(4 ** 3):
            x, y, z = k % 4, k // 4 % 4, k // 16
            lines.append(f"{x},{y},{z}," + ",".join(cells[3 * k:3 * k + 3]))
        grid = load_grid_csv(write_lines(tmp_path / "g.csv", lines))
        want = np.array([float(c) for c in cells])
        assert np.array_equal(grid.values.reshape(-1).view(np.uint64),
                              want.view(np.uint64))


class TestGridRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        axes = [Axis(-0.7, 0.31, 5), Axis(2.0, 1.0, 4), Axis(0.0, 0.125, 6),
                Axis(10.0, 0.05, 4)]
        grid = RegularGrid(axes, rng.standard_normal((4, 6, 4, 5, 2)),
                           components=2, component_names=("u", "v"))
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid)
        back = load_grid_csv(path)
        assert np.array_equal(back.values, grid.values)
        assert back.component_names == ("u", "v")
        for a, b in zip(grid.axes, back.axes):
            assert b.count == a.count
            assert b.origin == a.origin
            # vertex coordinates round-trip to full double precision
            assert_allclose(b.coordinates(), a.coordinates(), rtol=1e-15)

    @pytest.mark.parametrize("axis", [Axis(1e9, 1e-3, 5),
                                      Axis(-1e9, 1e-3, 5),
                                      Axis(1e300, 1e290, 5)],
                             ids=["epoch-ms", "negative-epoch-ms", "huge"])
    def test_coordinates_far_from_zero_load_back(self, tmp_path, axis):
        # the written coordinates round to float64 steps that differ by
        # more than SPACING_RTOL of the spacing, which read as irregular
        rng = np.random.default_rng(2)
        grid = RegularGrid([Axis(0, 1, 4), Axis(0, 1, 4), axis],
                           rng.standard_normal(80))
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid)
        back = load_grid_csv(path)
        assert np.array_equal(back.values, grid.values)
        assert back.axes[2].origin == axis.origin
        assert back.axes[2].count == axis.count
        assert_allclose(back.axes[2].coordinates(), axis.coordinates(),
                        rtol=1e-15)

    def test_component_names_come_from_the_grid(self, tmp_path):
        # the writer takes no names of its own; RegularGrid checks their
        # count (TestInvalidArguments)
        grid = sample(linear_field(3), [Axis(0, 1, 4)] * 3)
        path = tmp_path / "grid.csv"
        with pytest.raises(TypeError):
            write_grid_csv(path, grid, component_names=("a", "b"))
        assert not path.exists()


class TestResultsCsv:
    def test_header_and_columns(self, tmp_path):
        grid = sample(linear_field(4), [Axis(0, 1, 5)] * 4)
        interp = Interpolator(grid)
        pts = np.array([[1.25, 2.5, 2.0, 1.75], [9.0, 0.0, 0.0, 0.0]])
        res = interp.eval_batch(pts)
        path = tmp_path / "out.csv"
        write_results_csv(path, pts, res, grid.component_names)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        assert header == ["x", "y", "z", "t", "f",
                          "df_dx", "df_dy", "df_dz", "df_dt", "error"]
        assert len(header) == 4 + 1 + 4 + 1
        good = lines[1].split(",")
        assert float(good[4]) == pytest.approx(19.25, rel=1e-12)
        assert [float(v) for v in good[5:9]] == [1.0, 2.0, 3.0, 4.0]
        assert good[9] == ""
        bad = lines[2].split(",")
        assert bad[4:9] == ["NaN"] * 5
        assert bad[9] == "out_of_domain"

    def test_vector_column_count(self, tmp_path):
        grid = sample(trig_product_field(3), [Axis(0, 0.5, 5)] * 3)
        grid3 = RegularGrid(grid.axes,
                            np.repeat(grid.values, 3, axis=-1),
                            components=3)
        interp = Interpolator(grid3)
        pts = np.array([[1.0, 1.0, 1.0]])
        res = interp.eval_batch(pts)
        path = tmp_path / "out.csv"
        write_results_csv(path, pts, res, grid3.component_names)
        header = path.read_text(encoding="utf-8").split("\n")[0].split(",")
        assert len(header) == 3 + 3 + 9 + 1
        assert header == result_header(3, grid3.component_names)


    def test_lone_string_names_the_one_component(self, tmp_path):
        # a str was split into characters: "Bx" read as two names for one
        # component and was refused
        grid = sample(linear_field(3), [Axis(0, 1, 5)] * 3)
        pts = np.full((2, 3), 2.0)
        res = Interpolator(grid).eval_batch(pts)
        path = tmp_path / "out.csv"
        write_results_csv(path, pts, res, "Bx")
        header = path.read_text(encoding="utf-8").split("\n")[0]
        assert header.split(",") == result_header(3, ("Bx",))

    def test_open_stream_written_and_left_open(self, tmp_path):
        grid = sample(linear_field(3), [Axis(0, 1, 5)] * 3)
        pts = np.array([[2.0, 2.5, 1.5], [9.0, 0.0, 0.0]])
        res = Interpolator(grid).eval_batch(pts)
        path = tmp_path / "out.csv"
        stream = io.StringIO()
        write_results_csv(path, pts, res, grid.component_names)
        write_results_csv(stream, pts, res, grid.component_names)
        assert not stream.closed
        assert stream.getvalue().encode("utf-8") == path.read_bytes()

    @pytest.mark.parametrize("points", [
        np.zeros((3, 3)),  # one row more than results
        np.zeros((1, 3)),  # one row fewer
        np.zeros(6),       # not (n, dim)
    ], ids=["more-rows", "fewer-rows", "flat"])
    def test_points_not_aligned_with_results(self, tmp_path, points):
        grid = sample(linear_field(3), [Axis(0, 1, 5)] * 3)
        res = Interpolator(grid).eval_batch(np.full((2, 3), 2.0))
        path = tmp_path / "out.csv"
        with pytest.raises(DimensionMismatchError, match="aligned"):
            write_results_csv(path, points, res, grid.component_names)
        assert not path.exists()

    def test_text_points_rejected(self, tmp_path):
        grid = sample(linear_field(3), [Axis(0, 1, 5)] * 3)
        res = Interpolator(grid).eval_batch(np.full((2, 3), 2.0))
        path = tmp_path / "out.csv"
        with pytest.raises(InvalidPointError):
            write_results_csv(path, [["a", "b", "c"]] * 2, res,
                              grid.component_names)
        assert not path.exists()

    @pytest.mark.parametrize("names", [("a", "b"), (), None, 5],
                             ids=["two", "none-given", "None", "int"])
    def test_component_names_must_match_results(self, tmp_path, names):
        # two names for one component wrote a 12-column header over
        # 8-cell rows
        grid = sample(linear_field(3), [Axis(0, 1, 5)] * 3)
        pts = np.full((2, 3), 2.0)
        res = Interpolator(grid).eval_batch(pts)
        path = tmp_path / "out.csv"
        with pytest.raises(InvalidArgumentError, match="component names"):
            write_results_csv(path, pts, res, names)
        assert not path.exists()

    @pytest.mark.parametrize("result", ["x", None, (np.zeros((2, 1)),)],
                             ids=["text", "None", "tuple"])
    def test_result_must_be_a_batch_result(self, tmp_path, result):
        # let an AttributeError out: 'str' object has no attribute 'ok'
        path = tmp_path / "out.csv"
        with pytest.raises(InvalidArgumentError, match="BatchResult"):
            write_results_csv(path, np.full((2, 3), 2.0), result, ["f"])
        assert not path.exists()

    def test_unencodable_component_name_keeps_the_file(self, tmp_path):
        # a lone surrogate raised UnicodeEncodeError after the file was
        # opened, and so truncated
        grid = sample(linear_field(3), [Axis(0, 1, 5)] * 3)
        pts = np.full((2, 3), 2.0)
        res = Interpolator(grid).eval_batch(pts)
        path = tmp_path / "out.csv"
        path.write_bytes(b"kept\n")
        with pytest.raises(InvalidArgumentError, match="UTF-8"):
            write_results_csv(path, pts, res, ["\udc80"])
        assert path.read_bytes() == b"kept\n"


def reference_write_grid_csv(path, grid):
    """The per-row writer the block writer replaced, kept as reference."""
    names = grid.component_names
    dim = grid.dim
    coords = [a.coordinates() for a in grid.axes]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(AXIS_NAMES[:dim] + tuple(names)) + "\n")
        for rev_idx in np.ndindex(*grid.counts[::-1]):
            point = [coords[d][rev_idx[dim - 1 - d]] for d in range(dim)]
            cells = [repr(float(c)) for c in point]
            cells += [repr(float(v)) for v in grid.values[rev_idx]]
            fh.write(",".join(cells) + "\n")


def reference_write_results_csv(path, points, result, component_names):
    """The per-row writer the block writer replaced, kept as reference."""
    dim = points.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(result_header(dim, component_names)) + "\n")
        for i in range(points.shape[0]):
            cells = [repr(float(c)) for c in points[i]]
            if result.ok[i]:
                cells += [repr(float(v)) for v in result.values[i]]
                cells += [repr(float(g))
                          for g in result.gradients[i].reshape(-1)]
                cells.append("")
            else:
                n_res = result.values.shape[1] * (1 + dim)
                cells += ["NaN"] * n_res
                cells.append("out_of_domain")
            fh.write(",".join(cells) + "\n")


SPECIAL = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                    1e300, -1e300, 0.1, 1 / 3, -7.0])


def special_values(rng, shape):
    """Random normals with every SPECIAL value planted, for writer tests."""
    v = rng.standard_normal(shape).reshape(-1)
    v[:SPECIAL.size] = SPECIAL[:v.size]
    rng.shuffle(v)
    return v.reshape(shape)


class TestWriterByteIdentity:
    @pytest.fixture(params=[None, 7], ids=["one_block", "block_of_7"])
    def block_rows(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(hio, "_BLOCK_ROWS", request.param)

    @pytest.mark.parametrize("dim,m", [(3, 1), (3, 3), (4, 1), (4, 3)])
    def test_grid_writer(self, tmp_path, block_rows, dim, m):
        rng = np.random.default_rng(dim + m)
        axes = [Axis(-0.7, 0.31, 5), Axis(1e-300, 3e-301, 4),
                Axis(-0.0, 0.125, 6), Axis(10.0, 0.05, 4)][:dim]
        counts = tuple(a.count for a in axes)
        grid = RegularGrid(axes, special_values(rng, counts[::-1] + (m,)),
                           components=m)
        write_grid_csv(tmp_path / "new.csv", grid)
        reference_write_grid_csv(tmp_path / "ref.csv", grid)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_grid_writer_several_default_blocks(self, tmp_path):
        grid = RegularGrid([Axis(0.0, 0.1, 17)] * 3,
                           special_values(np.random.default_rng(3),
                                          (17, 17, 17, 1)))
        assert grid.values.size > hio._BLOCK_ROWS
        write_grid_csv(tmp_path / "new.csv", grid)
        reference_write_grid_csv(tmp_path / "ref.csv", grid)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    @pytest.mark.parametrize("dim,m", [(3, 1), (3, 3), (4, 1), (4, 3)])
    @pytest.mark.parametrize("n", [0, 1, 30])
    def test_results_writer(self, tmp_path, block_rows, dim, m, n):
        rng = np.random.default_rng(100 * dim + 10 * m + n)
        points = special_values(rng, (n, dim))
        ok = rng.random(n) < 0.7
        values = special_values(rng, (n, m))
        gradients = special_values(rng, (n, m, dim))
        values[~ok] = np.nan
        gradients[~ok] = np.nan
        result = BatchResult(values, gradients, ok)
        names = [f"c{i}" for i in range(m)]
        write_results_csv(tmp_path / "new.csv", points, result, names)
        reference_write_results_csv(tmp_path / "ref.csv", points, result,
                                    names)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


def _loaded_after(statement: str, names: set) -> str:
    """Which of ``names`` a fresh interpreter holds in ``sys.modules``
    after running ``statement``, as a printed sorted list."""
    src = Path(hio.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; "
         f"print(sorted({sorted(names)!r} & sys.modules.keys()))"],
        capture_output=True, text=True, env=env, check=True).stdout.strip()


def test_import_leaves_hashlib_unloaded():
    # nothing in the package needs hashlib, fractions or decimal; loading
    # hashlib would map OpenSSL's hash library into every process that
    # imports hyperspline, and fractions pulls in decimal with it;
    # concurrent.futures (with logging and queue) never loads, as batches
    # run serially (tests/test_cli.py::TestThreadEnvIgnored checks a
    # whole run); io loads on the first use of a file function, and
    # fields only where the checks run
    assert _loaded_after("import hyperspline", {
        "hashlib", "fractions", "decimal", "concurrent.futures",
        "hyperspline.io", "hyperspline.fields"}) == "[]"


def test_cli_import_leaves_fields_unloaded(tmp_path):
    # only validate runs the release checks of fields, and only bench
    # its harness; every other command would compile them for nothing;
    # io splits every CSV line with numpy and needs no csv module
    unused = {"hyperspline.fields", "hyperspline.bench", "csv"}
    assert _loaded_after("import hyperspline.cli", unused) == "[]"
    grid = tmp_path / "grid.csv"
    write_grid_csv(grid, RegularGrid([Axis(0.0, 1.0, 4)] * 3,
                                     np.arange(64.0)))
    assert _loaded_after(
        "from hyperspline.cli import main; "
        f"main(['info', {str(grid)!r}])", unused).endswith("\n[]")


def test_star_import_binds_the_public_api():
    import hyperspline

    namespace = {}
    exec("from hyperspline import *", namespace)
    assert set(hyperspline.__all__) <= namespace.keys()
    assert set(hyperspline.__all__) <= set(dir(hyperspline))
    for name in ("load_grid_csv", "write_grid_csv", "write_results_csv"):
        assert getattr(hyperspline, name) is getattr(hio, name)
        assert namespace[name] is getattr(hio, name)
    # the rest of io stays in its module
    assert not hasattr(hyperspline, "load_points_csv")
