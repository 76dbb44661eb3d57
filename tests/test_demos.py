import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_operator_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "03_operator_matrices.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "False" not in out
    assert out.count("exactly in int64: True") == 2
    assert list(tmp_path.iterdir()) == []


def test_time_varying_field_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "02_quadcubic_time_varying_field.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "max |gradient error|" in out
    assert "coefficient tensors stored: 0 " in out


def test_files_and_cache_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "05_files_and_cache.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "reloaded bit-identical: True" in out
    assert "1 point flagged out_of_domain" in out
    assert "cache restored: 625 element tensors, bit-identical: True" in out
    assert sorted(p.name for p in (tmp_path / "demo_output").iterdir()) == [
        "coeffs.qcub", "field.csv", "results.csv"]
