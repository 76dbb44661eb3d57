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
