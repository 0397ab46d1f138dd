"""Tests for ``tools/check_obs_schema.py --tables`` (experiment payloads)."""

import copy
import json
from pathlib import Path

import pytest

from repro.experiments.cli import main as experiments_main

_TOOLS = Path(__file__).resolve().parents[2] / "tools"


@pytest.fixture
def checker(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))
    import check_obs_schema

    return check_obs_schema


@pytest.fixture(scope="module")
def entries(tmp_path_factory):
    """``{experiment: --tables-out entry}`` from real fast runs."""
    out = tmp_path_factory.mktemp("tables")
    found = {}
    for name in ("degradation", "fleet"):
        path = out / f"{name}.json"
        assert experiments_main([name, "--fast", "--tables-out", str(path)]) == 0
        found[name] = json.loads(path.read_text())["experiments"][name]
    return found


def break_degradation(entry):
    # Off the N-1 law: losing k of N branches must leave (N - k)/N.
    table = entry["tables"]["antenna_dropout"]
    table["values"][-1] *= 1.01


def break_fleet(entry):
    # One configured (population, band, array size) cell without a row.
    entry["rows"].pop()


BREAKERS = {"degradation": break_degradation, "fleet": break_fleet}
EXPECTED_PROBLEM = {
    "degradation": "tables: degradation: antenna_dropout: k=",
    "fleet": "tables: fleet: expected 2 cell rows",
}


def run_check(checker, tmp_path, experiments):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"experiments": experiments}))
    return checker.main(["--tables", str(path)])


class TestTablesFlag:
    def test_registry_covers_every_breaker(self, checker):
        assert set(checker.TABLE_CHECKERS) == set(BREAKERS)

    @pytest.mark.parametrize("kind", sorted(BREAKERS))
    def test_valid_payload_passes(self, checker, entries, kind, tmp_path):
        assert run_check(checker, tmp_path, {kind: entries[kind]}) == 0

    @pytest.mark.parametrize("kind", sorted(BREAKERS))
    def test_broken_payload_fails(
        self, checker, entries, kind, tmp_path, capsys
    ):
        entry = copy.deepcopy(entries[kind])
        BREAKERS[kind](entry)
        assert run_check(checker, tmp_path, {kind: entry}) == 1
        assert EXPECTED_PROBLEM[kind] in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(BREAKERS))
    def test_wrong_schema_version_fails(
        self, checker, entries, kind, tmp_path
    ):
        entry = copy.deepcopy(entries[kind])
        if kind == "degradation":
            entry["tables"]["pll_relock"]["schema_version"] = 99
        else:
            entry["schema_version"] = 99
        assert run_check(checker, tmp_path, {kind: entry}) == 1

    @pytest.mark.parametrize("key", ["airtime_s", "read_rate_tags_per_s"])
    def test_nan_fleet_airtime_or_rate_fails(
        self, checker, entries, key, tmp_path, capsys
    ):
        entry = copy.deepcopy(entries["fleet"])
        entry["rows"][0][key] = float("nan")
        assert run_check(checker, tmp_path, {"fleet": entry}) == 1
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_every_present_kind_is_checked(self, checker, entries, tmp_path):
        assert run_check(checker, tmp_path, dict(entries)) == 0
        broken = copy.deepcopy(entries)
        break_fleet(broken["fleet"])
        assert run_check(checker, tmp_path, broken) == 1

    def test_payload_without_a_registered_kind_fails(
        self, checker, tmp_path, capsys
    ):
        assert run_check(checker, tmp_path, {"fig04": {}}) == 1
        assert "holds none of" in capsys.readouterr().err

    def test_unreadable_file_fails(self, checker, tmp_path):
        path = tmp_path / "tables.json"
        path.write_text("{not json")
        assert checker.main(["--tables", str(path)]) == 1

    def test_history_option_is_gone(self, checker, tmp_path):
        with pytest.raises(SystemExit) as exc:
            checker.main(["--history", str(tmp_path / "history.jsonl")])
        assert exc.value.code == 2
