import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperspline import (
    Axis,
    BadMagicError,
    BoundaryPolicy,
    CacheFormatError,
    ElementRef,
    FingerprintMismatchError,
    GridFormatError,
    IncompleteGridError,
    Interpolator,
    IrregularSpacingError,
    MissingHeaderError,
    NonFiniteValueError,
    RegularGrid,
    TruncatedFileError,
    VersionMismatchError,
    linear_field,
    load_cache,
    load_grid_csv,
    locate,
    sample,
    save_cache,
    trig_product_field,
    write_grid_csv,
    write_results_csv,
)
from hyperspline.io import CACHE_MAGIC, result_header


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

    def test_duplicate_vertex(self, tmp_path):
        rows = rows_4d()
        rows[-1] = rows[0]
        with pytest.raises(IncompleteGridError):
            load_grid_csv(write_lines(tmp_path / "g.csv",
                                      ["x,y,z,t,f"] + rows))

    def test_nan_value(self, tmp_path):
        rows = rows_4d()
        rows[7] = "3,1,0,0,nan"
        with pytest.raises(NonFiniteValueError):
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


class TestCoefficientCache:
    @pytest.fixture
    def interp(self):
        grid = sample(trig_product_field(4), [Axis(0.0, 0.5, 6)] * 4)
        return Interpolator(grid)

    def touch(self, interp, n=10, seed=2):
        """Cache the coefficients of the cells holding n random points."""
        rng = np.random.default_rng(seed)
        dom = interp.grid.queryable_domain(interp.policy)
        pts = np.stack([rng.uniform(lo, hi, n) for lo, hi in dom], axis=1)
        for p in pts:
            interp.coefficients(locate(interp.grid, p, interp.policy)[0])
        return pts, interp.eval_batch(pts)

    def test_round_trip_bit_identical(self, interp, tmp_path):
        pts, ref = self.touch(interp)
        path = tmp_path / "coeffs.qcub"
        save_cache(path, interp)

        fresh = Interpolator(interp.grid)
        n = load_cache(path, fresh)
        assert n == interp.cache_size() > 0
        assert fresh.cache_size() == n
        res = fresh.eval_batch(pts)
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.gradients, ref.gradients)
        for base, coeffs in interp.cache_items():
            assert np.array_equal(dict(fresh.cache_items())[base], coeffs)

    def test_empty_cache_round_trip(self, interp, tmp_path):
        path = tmp_path / "empty.qcub"
        save_cache(path, interp)
        fresh = Interpolator(interp.grid)
        assert load_cache(path, fresh) == 0

    def test_fingerprint_mismatch(self, interp, tmp_path):
        self.touch(interp)
        path = tmp_path / "coeffs.qcub"
        save_cache(path, interp)
        other_grid = sample(trig_product_field(4), [Axis(0.0, 0.4, 6)] * 4)
        other = Interpolator(other_grid)
        with pytest.raises(FingerprintMismatchError):
            load_cache(path, other)
        assert other.cache_size() == 0

    def test_value_change_flips_fingerprint(self, interp, tmp_path):
        path = tmp_path / "coeffs.qcub"
        save_cache(path, interp)
        vals = interp.grid.values.copy()
        vals[0, 0, 0, 0, 0] += 1e-9
        tweaked = RegularGrid(interp.grid.axes, vals, components=1)
        with pytest.raises(FingerprintMismatchError):
            load_cache(path, Interpolator(tweaked))

    def test_bad_magic(self, interp, tmp_path):
        path = tmp_path / "bad.qcub"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            load_cache(path, interp)

    def test_version_mismatch(self, interp, tmp_path):
        path = tmp_path / "v9.qcub"
        path.write_bytes(CACHE_MAGIC + (9).to_bytes(2, "little")
                         + b"\x00" * 64)
        with pytest.raises(VersionMismatchError):
            load_cache(path, interp)

    def test_truncated_file_leaves_interp_unchanged(self, interp, tmp_path):
        pts, _ = self.touch(interp)
        path = tmp_path / "coeffs.qcub"
        save_cache(path, interp)
        blob = path.read_bytes()
        for cut in (len(blob) - 1, len(blob) // 2, 10):
            trunc = tmp_path / f"cut{cut}.qcub"
            trunc.write_bytes(blob[:cut])
            fresh = Interpolator(interp.grid)
            with pytest.raises(TruncatedFileError):
                load_cache(trunc, fresh)
            assert fresh.cache_size() == 0

    def test_trailing_garbage_rejected(self, interp, tmp_path):
        self.touch(interp)
        path = tmp_path / "coeffs.qcub"
        save_cache(path, interp)
        path.write_bytes(path.read_bytes() + b"extra")
        fresh = Interpolator(interp.grid)
        with pytest.raises(TruncatedFileError):
            load_cache(path, fresh)
        assert fresh.cache_size() == 0

    def test_cache_shared_across_policies_for_interior(self, interp,
                                                       tmp_path):
        pts, ref = self.touch(interp)
        path = tmp_path / "coeffs.qcub"
        save_cache(path, interp)
        ghost = Interpolator(interp.grid, BoundaryPolicy.LINEAR_GHOST)
        load_cache(path, ghost)
        res = ghost.eval_batch(pts)
        assert np.array_equal(res.values, ref.values)

    def test_ghost_cells_rejected_by_strict_load(self, interp, tmp_path):
        ghost = Interpolator(interp.grid, BoundaryPolicy.LINEAR_GHOST)
        self.touch(interp)
        for base, _ in interp.cache_items():
            ghost.coefficients(ElementRef(base))
        ghost.coefficients(ElementRef((0, 0, 0, 0)))
        path = tmp_path / "ghost.qcub"
        save_cache(path, ghost)
        strict = Interpolator(interp.grid)
        with pytest.raises(CacheFormatError, match="outside"):
            load_cache(path, strict)
        assert strict.cache_size() == 0
        with pytest.raises(IndexError):
            strict.eval_local(ElementRef((0, 0, 0, 0)), [0.5] * 4)
