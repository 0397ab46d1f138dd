"""Self time and layer attribution on synthetic span trees."""

import asyncio

import pytest

from perfbench import spans
from perfbench.spans import Hook, Span


def _span(id, parent, start, end, layer="em", name=None):
    return Span(id, parent, name or f"s{id}", layer, start, end, 0)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),  # overlaps its sibling on [3, 4]
        _span(3, 1, 3.0, 6.0),
        _span(4, 2, 2.0, 3.0),
        _span(5, 1, 9.5, 12.0),  # runs past its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx(
        {1: 10.0 - 5.0 - 0.5, 2: 2.0, 3: 3.0, 4: 1.0, 5: 2.5}
    )


def test_attribution_equals_self_time_without_concurrency():
    tree = [
        _span(1, None, 1.0, 9.0, "reader"),
        _span(2, 1, 2.0, 5.0, "kernels"),
        _span(3, 2, 3.0, 4.0, "em"),
        _span(4, None, 9.0, 9.5, "fleet"),
    ]
    credit, unattributed = spans.attribute(tree, (0.0, 10.0))
    assert credit == pytest.approx(spans.self_times(tree))
    assert unattributed == pytest.approx(1.0 + 0.5)


def test_concurrent_self_time_is_shared_and_rows_sum_to_wall():
    tree = [
        _span(1, None, 0.0, 4.0, "serve"),
        _span(2, None, 2.0, 6.0, "core"),  # another thread, overlapping
        _span(3, 2, 3.0, 5.0, "kernels"),
        _span(4, None, 7.0, 8.0, "other"),  # not a layer: unattributed
    ]
    layers, by_name = spans.layer_report(tree, (0.0, 10.0), ("serve", "core", "kernels"))
    # [2, 3]: serve and core share; [3, 4]: serve and kernels share.
    assert layers["serve"] == pytest.approx(2.0 + 0.5 + 0.5)
    assert layers["core"] == pytest.approx(0.5 + 1.0)
    assert layers["kernels"] == pytest.approx(0.5 + 1.0)
    assert layers["unattributed"] == pytest.approx(10.0 - 7.0 + 1.0)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert by_name["s4"] == pytest.approx(1.0)


class _Target:
    def outer(self, inner):
        return inner()

    def inner(self):
        return 7

    async def waits(self):
        await asyncio.sleep(0)
        return self.inner()


def test_recorder_links_parents_counts_and_restores():
    originals = dict(_Target.__dict__)
    hooks = [
        Hook(f"{__name__}:_Target.outer", "t.outer", "em",
             count=lambda args, kwargs: {"outer.calls": 1}),
        Hook(f"{__name__}:_Target.inner", "t.inner", "core"),
        Hook(f"{__name__}:_Target.waits", "t.waits", "serve"),
    ]
    recorder = spans.Recorder()
    with recorder.installed(hooks):
        target = _Target()
        assert target.outer(target.inner) == 7
        assert asyncio.run(target.waits()) == 7
    by_name = {s.name: s for s in recorder.spans if s.name != "t.inner"}
    inner = [s for s in recorder.spans if s.name == "t.inner"]
    assert {s.parent for s in inner} == {by_name["t.outer"].id, by_name["t.waits"].id}
    assert by_name["t.outer"].parent is None
    assert recorder.counts == {"outer.calls": 1}
    for name in ("outer", "inner", "waits"):
        assert _Target.__dict__[name] is originals[name]


def test_observe_records_durations_and_results():
    original = _Target.__dict__["inner"]
    before = []
    with spans.observe(
        f"{__name__}:_Target.inner", before=lambda: before.append(len(calls))
    ) as calls:
        _Target().inner()
        _Target().inner()
    assert [result for _, result in calls] == [7, 7]
    assert before == [0, 1]  # ahead of each call, outside its timing
    assert all(seconds >= 0 for seconds, _ in calls)
    assert _Target.__dict__["inner"] is original
