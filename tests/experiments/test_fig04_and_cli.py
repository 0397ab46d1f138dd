"""Tests for the Fig. 4 experiment and the CLI runner."""

import pytest

from repro.experiments import fig04
from repro.experiments.cli import EXPERIMENTS, main


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04.run()

    def test_three_regimes_ordered(self, result):
        voltages = [row[1] for row in result.rows]
        assert voltages[0] > voltages[1] > voltages[2]

    def test_deep_regime_is_dead(self, result):
        """Fig. 4c: below the threshold the conduction angle is zero."""
        deep = result.rows[2]
        assert deep[2] == 0.0  # conduction angle
        assert deep[4] == 0.0  # V_DC

    def test_air_regime_is_healthy(self, result):
        air = result.rows[0]
        assert air[2] > 2.0
        assert air[3] > 0.3

    def test_cib_revives_the_deep_regime(self, result):
        assert result.cib_deep_conduction_rad > 1.0
        assert result.cib_voltage > result.rows[2][1]

    def test_table_renders(self, result):
        rendered = result.table().render()
        assert "Fig. 4" in rendered
        assert "CIB" in rendered


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "invivo" in out

    def test_registry_covers_every_figure(self):
        for name in ("fig04", "fig06", "fig09", "fig10", "fig11", "fig12",
                     "fig13", "invivo", "constraints", "ablations"):
            assert name in EXPERIMENTS

    def test_run_single_experiment(self, capsys):
        assert main(["fig04"]) == 0
        out = capsys.readouterr().out
        assert "conduction angle" in out

    def test_run_constraints(self, capsys):
        assert main(["constraints"]) == 0
        out = capsys.readouterr().out
        assert "RMS offset bound" in out

    def test_fast_flag(self, capsys):
        assert main(["fig06", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out

    def test_wakeup_honours_workers(self):
        record = {}
        EXPERIMENTS["wakeup"](True, 2, record)
        assert record["config"].workers == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])
