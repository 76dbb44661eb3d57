import warnings

import numpy as np
import pytest

from hyperspline import Axis, interpolator
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

    def test_missing_file_exits_2(self, capsys):
        assert main(["info", "/nonexistent/grid.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_not_utf8_exits_2(self, lin4d, tmp_path, capsys):
        path = tmp_path / "g.csv"
        with open(lin4d, "rb") as fh:
            lines = fh.read().splitlines()
        lines[3] = b"\xff\xfe" + lines[3]
        path.write_bytes(b"\n".join(lines))
        assert main(["info", str(path)]) == 2
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err


class TestQuery:
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
        lines = open(out_path, encoding="utf-8").read().strip().split("\n")
        header = lines[0].split(",")
        # dim + m + m*dim + error
        assert len(header) == 4 + 1 + 4 + 1
        row = lines[1].split(",")
        assert float(row[4]) == pytest.approx(19.25)
        assert [float(v) for v in row[5:9]] == [1.0, 2.0, 3.0, 4.0]
        bad = lines[2].split(",")
        assert bad[4] == "NaN" and bad[-1] == "out_of_domain"

    def test_points_file_order_preserved(self, lin4d, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,z,t\n1.5,1.5,1.5,1.5\n2.5,2.5,2.5,2.5\n"
                       "1.1,1.2,1.3,1.4\n", encoding="utf-8")
        out_path = str(tmp_path / "res.csv")
        assert main(["query", lin4d, "--points", str(pts),
                     "--out", out_path]) == 0
        lines = open(out_path, encoding="utf-8").read().strip().split("\n")
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
        lines = open(out_path, encoding="utf-8").read().strip().split("\n")
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
                                      "1.5,,1.6", "1.5, ,1.6"])
    def test_empty_point_cell_exits_2(self, trig3d, capsys, spec):
        assert main(["query", trig3d, "--point", spec]) == 2
        err = capsys.readouterr().err
        assert f"--point must be comma-separated numbers, got {spec!r}" in err

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

    @pytest.mark.parametrize("counts", ["4,,4,4,", "4,4,4,", "1,4,4",
                                        "0,4,4"])
    def test_bad_counts_exit_2(self, trig3d, tmp_path, capsys, counts):
        out_path = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", trig3d, "--counts", counts,
                         "--out", str(out_path)]) == 2
        assert "--counts" in capsys.readouterr().err
        assert not out_path.exists()

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

    def test_failing_check_exits_1(self, trig3d, capsys, monkeypatch):
        monkeypatch.setattr(interpolator, "_HORNER",
                            interpolator._HORNER * (1 + 1e-6))
        assert main(["validate", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "FAIL vertex_reproduction_dim3" in out
        assert out.strip().split("\n")[-1].startswith("result: FAIL")
        assert main(["validate", trig3d]) == 1


class TestBench:
    def test_zero_points(self, lin4d, capsys):
        assert main(["bench", lin4d, "--n", "0"]) == 0
        out = capsys.readouterr().out
        assert "n=0" in out

    def test_machine_line_before_timings(self, lin4d, capsys):
        assert main(["bench", lin4d, "--n", "20"]) == 0
        lines = capsys.readouterr().out.split("\n")
        machine = next(i for i, ln in enumerate(lines)
                       if ln.startswith("machine:"))
        timing = next(i for i, ln in enumerate(lines) if "points/s" in ln)
        assert machine < timing
        assert f"numpy={np.__version__}" in lines[machine]
        assert "cpus=" in lines[machine] and "blas=" in lines[machine]

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
