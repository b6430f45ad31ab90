import runpy
from pathlib import Path

import pytest

SOBOLEV_LIMITS = Path(__file__).resolve().parents[1] / "scripts" / "sobolev_limits.py"


def run_sobolev_limits(monkeypatch, *args):
    monkeypatch.setattr("sys.argv", [str(SOBOLEV_LIMITS), *args])
    runpy.run_path(str(SOBOLEV_LIMITS), run_name="__main__")


class TestSobolevLimitsScript:
    @pytest.mark.parametrize("degrees", [["0", "5"], ["-3", "5"]])
    def test_rejects_degrees_below_one(self, monkeypatch, capsys, degrees):
        with pytest.raises(SystemExit) as exc:
            run_sobolev_limits(monkeypatch, "--degrees", *degrees)
        assert exc.value.code == 2
        assert "--degrees must all be >= 1" in capsys.readouterr().err

    def test_tables(self, monkeypatch, capsys):
        run_sobolev_limits(monkeypatch, "--degrees", "10", "5")
        out = capsys.readouterr().out
        assert "N=   5" in out and "N=  10" in out
        assert "slope 2*tanh(pi) = 1.992544152" in out
        assert "limit 2*pi*lambda_inf/mu_inf = 3.14159265358979" in out
        assert "limit/(2pi/(r+3))" in out
