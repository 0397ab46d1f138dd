"""Smoke test: the deep-tissue power-up example runs to completion."""

import runpy
from pathlib import Path

EXAMPLE = (
    Path(__file__).resolve().parents[2] / "examples" / "deep_tissue_powerup.py"
)


def test_deep_tissue_powerup_example_runs(capsys):
    runpy.run_path(str(EXAMPLE), run_name="__main__")
    out = capsys.readouterr().out
    assert "Water-tank depth sweep" in out
    assert "placements communicated" in out
