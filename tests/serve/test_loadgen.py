"""Tests for ``tools/loadgen.py`` driving a spawned planning server."""

from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[2] / "tools"


def test_spawned_server_writes_relative_outputs_in_callers_directory(
    tmp_path, monkeypatch
):
    monkeypatch.syspath_prepend(str(_TOOLS))
    monkeypatch.chdir(tmp_path)
    import loadgen

    outputs = ("plans.sqlite", "trace.jsonl", "metrics.json", "report.json")
    status = loadgen.main(
        [
            "--spawn",
            "--requests", "4",
            "--concurrency", "2",
            "--n-draws", "4",
            "--grid-size", "512",
            "--n-candidates", "4",
            "--store", outputs[0],
            "--trace-out", outputs[1],
            "--metrics-out", outputs[2],
            "--report", outputs[3],
        ]
    )
    assert status == 0
    for name in outputs:
        assert (tmp_path / name).is_file(), name
