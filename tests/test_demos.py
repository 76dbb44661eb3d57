import re
import runpy
import sys
import types
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_operator_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "03_operator_matrices.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "False" not in out
    assert out.count("exactly in int64: True") == 2
    assert out.count("C has an integer inverse (C @ inv == I in int64): "
                     "True") == 2
    assert list(tmp_path.iterdir()) == []


def test_time_varying_field_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "02_quadcubic_time_varying_field.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "max |gradient error|" in out


def test_files_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "05_files.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "reloaded bit-identical: True" in out
    assert "1 point flagged out_of_domain" in out
    assert sorted(p.name for p in (tmp_path / "demo_output").iterdir()) == [
        "field.csv", "results.csv"]


def test_tricubic_basics_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "01_tricubic_basics.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "5000 random points: max |error|" in out
    assert "vertex query" in out
    assert list(tmp_path.iterdir()) == []


class _Plot:
    """Stands in for a matplotlib figure and axes; savefig writes an
    empty file."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: None

    def savefig(self, path, **kwargs):
        open(path, "wb").close()


@pytest.mark.parametrize("with_matplotlib", [False, True])
def test_continuity_demo_runs(tmp_path, monkeypatch, capsys, with_matplotlib):
    if with_matplotlib:
        mpl = types.ModuleType("matplotlib")
        mpl.use = lambda backend: None
        mpl.pyplot = types.ModuleType("matplotlib.pyplot")
        mpl.pyplot.subplots = lambda **kwargs: (_Plot(), _Plot())
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", mpl.pyplot)
    else:
        mpl = None  # makes `import matplotlib` raise ImportError
    monkeypatch.setitem(sys.modules, "matplotlib", mpl)
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "04_continuity_and_convergence.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    # the C1 check's and the convergence study's metrics, as printed
    jumps = re.findall(r"max \|(?:value|gradient) jump\| +(\S+)\n", out)
    assert len(jumps) == 2 and max(map(float, jumps)) <= 1e-9
    errors = [float(e) for e in re.findall(r"^ +[0-9.]+ +(\S+)$", out, re.M)]
    assert len(errors) == 4
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert float(re.search(r"fitted order: (\S+)\n", out)[1]) >= 2.7
    saved = tmp_path / "demo_output" / "convergence.png"
    assert ("saved demo_output/convergence.png" in out) == with_matplotlib
    assert saved.exists() == with_matplotlib
