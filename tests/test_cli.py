import contextlib
import io
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperspline import Axis, RegularGrid, interpolator
from hyperspline.cli import main
from hyperspline.fields import linear_field, sample, trig_product_field
from hyperspline.io import load_grid_csv, write_grid_csv

pytestmark = pytest.mark.usefixtures("no_thread_env")


@pytest.fixture
def no_thread_env(monkeypatch):
    monkeypatch.delenv("HYPERSPLINE_THREADS", raising=False)


@pytest.fixture(scope="module")
def lin4d(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "lin4d.csv"
    grid = sample(linear_field(4, [1, 2, 3, 4]), [Axis(0.0, 1.0, 5)] * 4)
    write_grid_csv(path, grid)
    return str(path)


@pytest.fixture(scope="module")
def trig3d(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trig3d.csv"
    grid = sample(trig_product_field(3), [Axis(0.0, 0.5, 7)] * 3)
    write_grid_csv(path, grid)
    return str(path)


class TestHelp:
    @pytest.mark.parametrize("cmd", ["info", "query", "sample", "validate",
                                     "bench"])
    def test_subcommand_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("info", "query", "sample", "validate", "bench"):
            assert cmd in out

    def test_flags_documented(self, capsys):
        for cmd, flags in [
            ("query", ["--point", "--points", "--out", "--policy"]),
            ("sample", ["--counts", "--min", "--max", "--out"]),
            ("bench", ["--n", "--seed"]),
            ("validate", ["--seed"]),
        ]:
            with pytest.raises(SystemExit):
                main([cmd, "--help"])
            out = capsys.readouterr().out
            for flag in flags:
                assert flag in out

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestInfo:
    def test_report_contents(self, lin4d, capsys):
        assert main(["info", lin4d]) == 0
        out = capsys.readouterr().out
        assert "dim: 4" in out
        assert "count=5" in out
        assert "strict=16" in out
        assert "linear-ghost=256" in out
        assert "[1.0, 3.0]" in out
        assert "[0.0, 4.0]" in out
        # 7^4 stored vertices: 5 per axis plus a ghost layer per side
        assert "memory: 18.8 KiB of samples, ghost layers included" in out

    def test_missing_file_exits_2(self, capsys):
        assert main(["info", "/nonexistent/grid.csv"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot open /nonexistent/grid.csv: "
            "No such file or directory\n")

    def test_not_utf8_exits_2(self, lin4d, tmp_path, capsys):
        path = tmp_path / "g.csv"
        with open(lin4d, "rb") as fh:
            lines = fh.read().splitlines()
        lines[3] = b"\xff\xfe" + lines[3]
        path.write_bytes(b"\n".join(lines))
        assert main(["info", str(path)]) == 2
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err


class TestQuery:
    def test_files_with_a_byte_order_mark(self, lin4d, tmp_path):
        # Excel's "CSV UTF-8" starts the file with one; query exited 2
        # with "header must start with x,y,z or x,y,z,t"
        points = "x,y,z,t\n1.25,2.5,2.0,1.75\n9,9,9,9\n"
        outputs = []
        for mark in ("", "\ufeff"):
            grid = tmp_path / f"grid{len(mark)}.csv"
            grid.write_text(mark + Path(lin4d).read_text(encoding="utf-8"),
                            encoding="utf-8")
            pts = tmp_path / f"pts{len(mark)}.csv"
            pts.write_text(mark + points, encoding="utf-8")
            out = tmp_path / f"res{len(mark)}.csv"
            assert main(["query", str(grid), "--points", str(pts),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"x,y,z,t,f,")

    def test_inline_point(self, lin4d, capsys):
        assert main(["query", lin4d, "--point", "1.25,2.5,2.0,1.75"]) == 0
        out = capsys.readouterr().out
        assert "19.25" in out

    def test_csv_output_columns(self, lin4d, tmp_path, capsys):
        out_path = str(tmp_path / "res.csv")
        code = main(["query", lin4d,
                     "--point", "1.25,2.5,2.0,1.75",
                     "--point", "9.0,9.0,9.0,9.0",
                     "--out", out_path])
        assert code == 0
        lines = Path(out_path).read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        # dim + m + m*dim + error
        assert len(header) == 4 + 1 + 4 + 1
        row = lines[1].split(",")
        assert float(row[4]) == pytest.approx(19.25)
        assert [float(v) for v in row[5:9]] == [1.0, 2.0, 3.0, 4.0]
        bad = lines[2].split(",")
        assert bad[4] == "NaN" and bad[-1] == "out_of_domain"

    def test_stdout_is_the_out_file(self, lin4d, tmp_path, capsys):
        query = ["query", lin4d, "--point", "1.25,2.5,2.0,1.75",
                 "--point", "9.0,9.0,9.0,9.0", "--point", "1.1,1.2,1.3,1.4"]
        out_path = tmp_path / "res.csv"
        assert main(query + ["--out", str(out_path)]) == 0
        assert capsys.readouterr().out == (
            f"wrote 3 results to {out_path} (1 out of domain)\n")
        assert main(query) == 0
        printed = capsys.readouterr().out
        assert ",out_of_domain\n" in printed
        assert printed.encode("utf-8") == out_path.read_bytes()

    @pytest.mark.parametrize("flag", ["--points", "--out"])
    def test_unopenable_file_exits_2(self, lin4d, tmp_path, capsys, flag):
        path = tmp_path / "missing" / "x.csv"
        assert main(["query", lin4d, "--point", "1.5,1.5,1.5,1.5",
                     flag, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot open {path}: No such file or directory\n")

    def test_points_file_order_preserved(self, lin4d, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,z,t\n1.5,1.5,1.5,1.5\n2.5,2.5,2.5,2.5\n"
                       "1.1,1.2,1.3,1.4\n", encoding="utf-8")
        out_path = str(tmp_path / "res.csv")
        assert main(["query", lin4d, "--points", str(pts),
                     "--out", out_path]) == 0
        lines = Path(out_path).read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 4
        assert [float(c) for c in lines[1].split(",")[:4]] == [1.5] * 4
        assert [float(c) for c in lines[3].split(",")[:4]] == [1.1, 1.2,
                                                               1.3, 1.4]

    def test_inline_points_first_then_file(self, lin4d, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_bytes(b'\r\n x , y,z,t\r\n1.5,1.5,"1.5",1.5\r\n\r\n'
                        b" 2.5 ,2.5,2.5,2.5\r\n")
        out_path = str(tmp_path / "res.csv")
        assert main(["query", lin4d, "--point", "1.1,1.2,1.3,1.4",
                     "--points", str(pts), "--point", "3,3,3,3",
                     "--out", out_path]) == 0
        lines = Path(out_path).read_text(encoding="utf-8").strip().split("\n")
        assert [ln.split(",")[:4] for ln in lines[1:]] == [
            ["1.1", "1.2", "1.3", "1.4"], ["3.0"] * 4, ["1.5"] * 4,
            ["2.5"] * 4]

    def test_malformed_points_file_exits_2(self, lin4d, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("1.5,abc,1.5,1.5\n", encoding="utf-8")
        assert main(["query", lin4d, "--points", str(pts)]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "line 1 has a non-numeric cell: '1.5,abc,1.5,1.5'" in err

    def test_short_points_row_exits_2(self, lin4d, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,z,t\n1.5,1.5,1.5,1.5\n1.5,1.5,1.5\n",
                       encoding="utf-8")
        assert main(["query", lin4d, "--points", str(pts)]) == 2
        assert "line 3 has 3 columns, expected 4" in capsys.readouterr().err

    def test_not_utf8_points_file_exits_2(self, lin4d, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_bytes(b"x,y,z,t\n1.5,1.5,1.5,1.5\n\xff\xfe1.5,1.5,1.5,1.5\n")
        assert main(["query", lin4d, "--points", str(pts)]) == 2
        assert f"{pts}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [",1.5,,1.6,1.7,", "1.5,1.6,1.7,",
                                      "1.5,,1.6", "1.5, ,1.6", "", " ",
                                      "1.5,1.5,1.5\n",
                                      "1.5,1.5,1.5\n1.5,1.5,1.5",
                                      "\r1.5,1.5,1.5", "1.5,1.5"])
    def test_empty_point_cell_exits_2(self, trig3d, capsys, spec):
        assert main(["query", trig3d, "--point", spec]) == 2
        err = capsys.readouterr().err
        assert f"--point must be comma-separated numbers, got {spec!r}" in err

    @pytest.mark.parametrize("spec, code", [
        ("1_5,1.5,1.5", 2), ('"1.5",1.5," 1.5"', 0), (" 1.5 ,1.5,1.5", 0)])
    def test_inline_point_reads_like_a_points_file_line(
            self, trig3d, tmp_path, capsys, spec, code):
        # float() read 1_5 as 15.0 and rejected the quoted cell; a
        # points file did the opposite
        pts = tmp_path / "pts.csv"
        pts.write_text(spec + "\n", encoding="utf-8")
        inline, from_file = tmp_path / "inline.csv", tmp_path / "file.csv"
        assert main(["query", trig3d, "--point", spec,
                     "--out", str(inline)]) == code
        assert main(["query", trig3d, "--points", str(pts),
                     "--out", str(from_file)]) == code
        if code == 0:
            assert inline.read_bytes() == from_file.read_bytes()
            assert b"\n1.5,1.5,1.5," in inline.read_bytes()

    def test_no_points_exits_2(self, lin4d, capsys):
        assert main(["query", lin4d]) == 2

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_thread_env_exits_2(self, lin4d, tmp_path, capsys,
                                    monkeypatch, value):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,z,t\n1.5,1.5,1.5,1.5\n", encoding="utf-8")
        monkeypatch.setenv("HYPERSPLINE_THREADS", value)
        assert main(["query", lin4d, "--points", str(pts)]) == 2
        err = capsys.readouterr().err
        assert "HYPERSPLINE_THREADS" in err and repr(value) in err

    def test_huge_coordinate_prints_no_warning(self, trig3d):
        # -1e308 over the grid's 0.5 spacing overflows to -inf; the point
        # is out of domain either way, and stderr stays empty
        src = Path(interpolator.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-m", "hyperspline.cli", "query", trig3d,
             "--point=-1e308,0.5,0.5"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.split("\n")[1].endswith(",out_of_domain")

    def test_ghost_policy_widens_domain(self, lin4d, capsys):
        assert main(["query", lin4d, "--point", "0.2,0.2,0.2,0.2",
                     "--policy", "linear-ghost"]) == 0
        out = capsys.readouterr().out
        assert "out_of_domain" not in out


class TestSample:
    def test_resample_at_original_vertices(self, trig3d, tmp_path, capsys):
        out_path = str(tmp_path / "res.csv")
        # strict queryable region of the 0.5-spaced 7-point grid is
        # [0.5, 2.5]: 5 vertices per axis coincide with originals
        assert main(["sample", trig3d, "--counts", "5,5,5",
                     "--out", out_path]) == 0
        orig = load_grid_csv(trig3d)
        res = load_grid_csv(out_path)
        assert res.counts == (5, 5, 5)
        for idx in np.ndindex(5, 5, 5):
            want = orig.vertex_value((idx[2] + 1, idx[1] + 1, idx[0] + 1))
            got = res.values[idx + (0,)]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_linear_field_denser_lattice_exact(self, lin4d, tmp_path,
                                               capsys):
        out_path = str(tmp_path / "dense.csv")
        assert main(["sample", lin4d, "--counts", "5,5,5,5",
                     "--min", "1,1,1,1", "--max", "3,3,3,3",
                     "--out", out_path]) == 0
        res = load_grid_csv(out_path)
        for idx in np.ndindex(res.counts[::-1]):
            p = [res.axes[d].coordinate(idx[3 - d]) for d in range(4)]
            want = p[0] + 2 * p[1] + 3 * p[2] + 4 * p[3]
            assert res.values[idx + (0,)] == pytest.approx(want, rel=1e-12)

    def test_region_outside_domain_exits_2(self, lin4d, tmp_path, capsys):
        code = main(["sample", lin4d, "--counts", "4,4,4,4",
                     "--min", "0,0,0,0", "--max", "4,4,4,4",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "target range [0.0, 4.0] on axis x outside queryable " in err
        assert "np." not in err

    @pytest.mark.parametrize("flag", ["--min", "--max"])
    def test_empty_range_cell_exits_2(self, lin4d, tmp_path, capsys, flag):
        out_path = tmp_path / "x.csv"
        assert main(["sample", lin4d, "--counts", "4,4,4,4",
                     flag, "2,,2,2,2", "--out", str(out_path)]) == 2
        assert f"{flag} must be comma-separated numbers" in (
            capsys.readouterr().err)
        assert not out_path.exists()

    @pytest.mark.parametrize("counts", [
        "4,,4,4,", "4,4,4,", "1,4,4", "0,4,4",
        # more vertices than one array can index: was a ValueError
        # traceback and exit 1
        "3000000,3000000,3000000", f"{10 ** 20},4,4"])
    def test_bad_counts_exit_2(self, trig3d, tmp_path, capsys, counts):
        out_path = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", trig3d, "--counts", counts,
                         "--out", str(out_path)]) == 2
        assert "--counts" in capsys.readouterr().err
        assert not out_path.exists()

    def test_unwritable_out_exits_2(self, trig3d, tmp_path, capsys):
        assert main(["sample", trig3d, "--counts", "4,4,4",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot open {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("count", [19, 20])
    def test_default_range_when_the_last_vertex_overshoots(
            self, tmp_path, capsys, count):
        # at 20 the last vertex, 0.1 + 19 * (0.3 / 19), passes the strict
        # domain's end 0.4 by an ulp: exit 2 with "resampling lattice left
        # the queryable domain"
        path = tmp_path / "g.csv"
        write_grid_csv(path, RegularGrid([Axis(0.0, 0.1, 6)] * 3,
                                         np.sin(np.arange(216.0))))
        out_path = tmp_path / "res.csv"
        assert main(["sample", str(path), "--counts", f"{count},{count},"
                     f"{count}", "--out", str(out_path)]) == 0
        res = load_grid_csv(out_path)
        assert res.counts == (count,) * 3
        assert res.axes[0].origin == 0.1

    def test_output_loadable(self, trig3d, tmp_path, capsys):
        out_path = str(tmp_path / "res.csv")
        assert main(["sample", trig3d, "--counts", "6,5,4",
                     "--out", out_path]) == 0
        grid = load_grid_csv(out_path)
        assert grid.counts == (6, 5, 4)


class TestValidate:
    def test_builtin_suite_passes(self, capsys):
        assert main(["validate", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "convergence_order" in out
        assert "result: PASS" in out

    def test_seeded_determinism(self, capsys):
        assert main(["validate", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert main(["validate", "--seed", "42"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_user_grid_skips_analytic_checks(self, trig3d, capsys):
        assert main(["validate", trig3d, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "SKIP exactness_quadratic" in out
        assert "SKIP convergence_order" in out
        assert "c1_continuity" in out

    @pytest.mark.parametrize("dim", [3, 4])
    def test_large_magnitude_user_grid_passes(self, tmp_path, capsys, dim):
        # fused_oracle bounded the coefficient difference at an absolute
        # 1e-10, which rounding alone exceeds on samples of magnitude 1e8
        grid = sample(trig_product_field(dim), [Axis(0.0, 0.5, 9)] * dim)
        noise = np.random.default_rng(dim).standard_normal(grid.values.shape)
        path = tmp_path / "big.csv"
        write_grid_csv(path, RegularGrid(
            grid.axes, grid.values * (1 + 1e-3 * noise) * 1e8))
        assert main(["validate", str(path)]) == 0
        assert "PASS fused_oracle max_scaled_diff=" in capsys.readouterr().out

    def test_failing_check_exits_1(self, trig3d, capsys, monkeypatch):
        monkeypatch.setattr(interpolator, "_HORNER",
                            interpolator._HORNER * (1 + 1e-6))
        assert main(["validate", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "FAIL vertex_reproduction_dim3" in out
        assert out.strip().split("\n")[-1].startswith("result: FAIL")
        assert main(["validate", trig3d]) == 1
        assert "FAIL fused_oracle " in capsys.readouterr().out


class TestCoordinatesStartingWithMinus:
    # argparse read "-1.5,..." after a flag as an option and exited 2
    @pytest.fixture(scope="class")
    def offset3d(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "offset3d.csv"
        write_grid_csv(path, sample(linear_field(3, [1, 2, 3]),
                                    [Axis(-3.0, 1.0, 7)] * 3))
        return str(path)

    def test_query_point(self, offset3d, capsys):
        assert main(["query", offset3d, "--point", "-1.5,0.25,-0.5",
                     "--point", "1,1,1"]) == 0
        spaced = capsys.readouterr().out
        assert main(["query", offset3d, "--point=-1.5,0.25,-0.5",
                     "--point", "1,1,1"]) == 0
        assert spaced == capsys.readouterr().out
        assert spaced.split("\n")[1].split(",")[3] == "-2.5"

    def test_sample_range(self, offset3d, tmp_path, capsys):
        for name, bounds in (("spaced", ["--min", "-2,-1.5,-1",
                                         "--max", "-1,1,2"]),
                             ("joined", ["--min=-2,-1.5,-1",
                                         "--max=-1,1,2"])):
            assert main(["sample", offset3d, "--counts", "4,5,6",
                         "--out", str(tmp_path / f"{name}.csv")]
                        + bounds) == 0
        assert ((tmp_path / "spaced.csv").read_bytes()
                == (tmp_path / "joined.csv").read_bytes())
        assert load_grid_csv(tmp_path / "spaced.csv").axes[0].origin == -2.0


class TestNegativeNumbers:
    # each ended in a ValueError traceback with exit 1
    @pytest.mark.parametrize("argv, flag", [
        (["bench", "GRID", "--n", "-5"], "--n"),
        (["bench", "GRID", "--seed", "-1"], "--seed"),
        (["validate", "--seed", "-1"], "--seed"),
        (["validate", "GRID", "--seed", "-1"], "--seed"),
    ], ids=["bench-n", "bench-seed", "validate-seed", "validate-grid-seed"])
    def test_exit_2_with_one_error_line(self, lin4d, capsys, argv, flag):
        argv = [lin4d if a == "GRID" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {flag} must be a non-negative integer, "
            f"got {argv[-1]}\n")
        assert "result:" not in captured.out


class TestBench:
    def test_zero_points(self, lin4d, capsys):
        assert main(["bench", lin4d, "--n", "0"]) == 0
        out = capsys.readouterr().out
        assert "n=0" in out

    @pytest.mark.parametrize("n", [10 ** 15, 2 ** 61, 10 ** 20])
    def test_unallocatable_point_count_exits_2(self, lin4d, capsys, n):
        # ended in numpy's _ArrayMemoryError traceback (10**15 points fail
        # to allocate at once) or, for more points than one array can
        # index, in a ValueError traceback and exit 1
        assert main(["bench", lin4d, "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert n == 10 ** 15 or err.startswith(f"error: --n asks for {n} ")

    def test_machine_line_before_timings(self, lin4d, capsys):
        assert main(["bench", lin4d, "--n", "20"]) == 0
        lines = capsys.readouterr().out.split("\n")
        machine = next(i for i, ln in enumerate(lines)
                       if ln.startswith("machine:"))
        timing = next(i for i, ln in enumerate(lines) if "points/s" in ln)
        assert machine < timing
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert lines[machine] == (
            f"machine: cpus={os.cpu_count()} numpy={np.__version__} "
            f"blas={blas['name']} {blas['version']} "
            f"python={platform.python_version()}")

    def test_machine_line_without_show_config_modes(self, lin4d, capsys,
                                                    monkeypatch):
        def show_config():  # the signature of numpy before config modes
            pass

        monkeypatch.setattr(np, "show_config", show_config)
        assert main(["bench", lin4d, "--n", "0"]) == 0
        assert "blas=unknown" in capsys.readouterr().out

    @pytest.mark.parametrize("grid_name, n, seed",
                             [("lin4d", 500, 3), ("trig3d", 200, 5)],
                             ids=["lin4d", "trig3d"])
    def test_checksums_match_and_rates_printed(self, grid_name, n, seed,
                                               request, capsys):
        grid = request.getfixturevalue(grid_name)
        assert main(["bench", grid, "--n", str(n), "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert "points/s" in out
        line = next(ln for ln in out.split("\n")
                    if ln.startswith("checksum_perpoint"))
        per_point = line.split()[0].split("=")[1]
        batch = line.split()[1].split("=")[1]
        assert per_point == batch
        assert "batch_matches_pointwise=yes\n" in out

    def test_batch_differing_from_pointwise_exits_1(self, lin4d, capsys,
                                                    monkeypatch):
        # a stand-in for a BLAS whose batched products round differently:
        # every batch result moves by one ulp, single points do not
        kernel = interpolator._stencil_kernel

        def off_by_an_ulp(samples, u, orders):
            part = kernel(samples, u, orders)
            return np.nextafter(part, np.inf) if len(samples) > 1 else part

        monkeypatch.setattr(interpolator, "_stencil_kernel", off_by_an_ulp)
        assert main(["bench", lin4d, "--n", "20"]) == 1
        out = capsys.readouterr().out
        assert "batch_matches_pointwise=NO\n" in out


# cells of an inline point: numbers, padded or quoted numbers, and
# spellings that float() and a points file may read differently
numbers = st.one_of(st.floats().map(repr), st.integers(-5, 5).map(str))
point_cells = st.one_of(
    numbers,
    st.tuples(st.sampled_from(["", " ", "\t", '"', "\x0c"]), numbers,
              st.sampled_from(["", " ", '"', "\x85"])).map("".join),
    st.sampled_from(["", "nan", "-inf", "1e999", "1_0", "0x1", "1.5e",
                     ".5", "5.", "+1", "\u0661", "\uff11", "\x00", "#",
                     "x", "t", "'1'"]),
    st.text(max_size=3))
# one line: a points-file line cannot hold a line break
point_lines = st.one_of(
    st.lists(point_cells, min_size=3, max_size=3).map(",".join),
    st.lists(point_cells, min_size=2, max_size=4).map(",".join),
    st.text(max_size=12)).filter(lambda t: "\n" not in t and "\r" not in t)


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def line_files(tmp_path_factory):
    return tmp_path_factory.mktemp("lines")


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=point_lines)
def test_inline_point_is_a_points_file_line(trig3d, line_files, text):
    """``--point TEXT`` queries the coordinates that a points file holding
    the line TEXT does, bit for bit, or both exit 2."""
    pts = line_files / "pts.csv"
    pts.write_bytes((text + "\n").encode("utf-8"))
    inline, from_file = line_files / "inline.csv", line_files / "file.csv"
    for out in (inline, from_file):
        out.unlink(missing_ok=True)
    code = run_quietly(["query", trig3d, "--point=" + text,
                        "--out", str(inline)])
    assert code == run_quietly(["query", trig3d, "--points", str(pts),
                                "--out", str(from_file)])
    assert code in (0, 2)
    if code == 0:
        assert inline.read_bytes() == from_file.read_bytes()
