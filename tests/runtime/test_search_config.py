"""One search description: ``SearchConfig``, its plan key and ``/plan``.

The optimizer, the plan cache and the planning service all describe a
search through :class:`repro.core.optimizer.SearchConfig`; these tests
pin that the key covers every field, that ``/plan`` defaults are the
config's, and that a request's key is the one the cached helpers use.
"""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import OptimizationResult, SearchConfig
from repro.core.plan import CarrierPlan
from repro.errors import ConfigurationError
from repro.runtime.cache import (
    optimized_conduction_plan,
    optimized_plan,
    search_key,
)
from repro.serve.service import parse_request

_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def search_configs(draw):
    kind = draw(st.sampled_from(["peak", "conduction"]))
    return SearchConfig(
        n_antennas=draw(st.integers(1, 64)),
        kind=kind,
        alpha=draw(st.floats(0.01, 0.5, **_finite)),
        query_duration_s=draw(st.floats(1e-5, 1e-2, **_finite)),
        center_frequency_hz=draw(st.floats(1e8, 3e9, **_finite)),
        n_draws=draw(st.integers(1, 256)),
        grid_size=draw(st.sampled_from([512, 2048, 8192])),
        seed=draw(st.integers(0, 2**32)),
        n_candidates=draw(st.none() | st.integers(1, 1024)),
        refine_rounds=draw(st.none() | st.integers(0, 8)),
        refine_steps=tuple(draw(st.lists(st.integers(1, 64), max_size=6))),
        islands=draw(st.integers(1, 16)),
        threshold=(
            draw(st.floats(0.0, 64.0, **_finite))
            if kind == "conduction"
            else None
        ),
    )


def _other_kind(config):
    if config.kind == "peak":
        return replace(config, kind="conduction", threshold=0.0)
    return replace(config, kind="peak", threshold=None)


# One single-field change per SearchConfig field (kind carries the
# threshold it needs); None means the field has no value to change to.
_CHANGES = {
    "n_antennas": lambda c: replace(c, n_antennas=c.n_antennas + 1),
    "kind": _other_kind,
    "alpha": lambda c: replace(c, alpha=c.alpha / 2),
    "query_duration_s": lambda c: replace(
        c, query_duration_s=c.query_duration_s * 2
    ),
    "center_frequency_hz": lambda c: replace(
        c, center_frequency_hz=c.center_frequency_hz + 1.0
    ),
    "n_draws": lambda c: replace(c, n_draws=c.n_draws + 1),
    "grid_size": lambda c: replace(c, grid_size=c.grid_size * 2),
    "seed": lambda c: replace(c, seed=c.seed + 1),
    "n_candidates": lambda c: replace(c, n_candidates=c.n_candidates + 1),
    "refine_rounds": lambda c: replace(c, refine_rounds=c.refine_rounds + 1),
    "refine_steps": lambda c: replace(
        c, refine_steps=c.refine_steps + (c.n_antennas,)
    ),
    "islands": lambda c: replace(c, islands=c.islands + 1),
    "threshold": lambda c: (
        None
        if c.threshold is None
        else replace(c, threshold=c.threshold + 0.5)
    ),
}


def test_every_field_has_a_change():
    assert set(_CHANGES) == {field.name for field in fields(SearchConfig)}


@settings(max_examples=60)
@given(search_configs())
def test_changing_any_field_changes_the_key(config):
    base = search_key(config)
    for name, change in _CHANGES.items():
        changed = change(config)
        if changed is None:
            continue
        assert changed != config, name
        assert search_key(changed) != base, name
    assert search_key(config, fault_token="faults:x") != base
    assert search_key(config, adaptive_token="tok") != base


def test_kind_defaults_and_validation():
    peak = SearchConfig(4)
    conduction = SearchConfig(4, "conduction", threshold=1.0)
    assert (peak.n_candidates, peak.refine_rounds) == (120, 2)
    assert (conduction.n_candidates, conduction.refine_rounds) == (60, 1)
    assert peak.refine_steps == conduction.refine_steps == (1, 2, 5, 10, 20)
    for bad in (
        dict(kind="beam"),
        dict(islands=0),
        dict(n_candidates=0),
        dict(threshold=1.0),
        dict(kind="conduction"),
        dict(kind="conduction", threshold=-1.0),
        dict(kind="conduction", threshold=math.nan),
    ):
        with pytest.raises(ConfigurationError):
            SearchConfig(4, **bad)


def _search_fields(request):
    return SearchConfig(
        **{field.name: getattr(request, field.name) for field in fields(SearchConfig)}
    )


def test_plan_defaults_are_search_config_defaults():
    peak = parse_request({"n_antennas": 4})
    assert _search_fields(peak) == SearchConfig(4)
    conduction = parse_request({"n_antennas": 4, "kind": "conduction"})
    assert _search_fields(conduction) == SearchConfig(
        4, "conduction", threshold=0.0
    )
    for request in (peak, conduction):
        assert (request.fault_token, request.adaptive_token) == ("none", "none")
        assert request.key == search_key(_search_fields(request))


class _RecordingCache:
    """Answers every lookup with a stub plan and records the key."""

    def __init__(self):
        self.keys = []

    def lookup(self, key):
        self.keys.append(key)
        return OptimizationResult(CarrierPlan(915e6, (0.0,)), 1.0, 1.0, 0)


@st.composite
def plan_bodies(draw):
    body = {"n_antennas": draw(st.integers(1, 32))}
    kind = draw(st.sampled_from([None, "peak", "conduction"]))
    if kind is not None:
        body["kind"] = kind
    optional = {
        "threshold": st.floats(0.0, 32.0, **_finite),
        "alpha": st.floats(0.01, 0.5, **_finite),
        "query_duration_s": st.floats(1e-5, 1e-2, **_finite),
        "center_frequency_hz": st.floats(1e8, 3e9, **_finite),
        "n_draws": st.integers(1, 256),
        "grid_size": st.sampled_from([512, 2048, 8192]),
        "seed": st.integers(0, 2**32),
        "n_candidates": st.integers(1, 1024),
        "refine_rounds": st.integers(1, 8),
        "refine_steps": st.lists(st.integers(1, 256), max_size=6),
        "islands": st.integers(1, 16),
        "fault_plan": st.just([{"kind": "antenna_dropout", "probability": 0.5}]),
        "adaptive": st.just({"ci_target": 0.1}),
    }
    for name in draw(st.sets(st.sampled_from(sorted(optional)))):
        body[name] = draw(optional[name])
    return body


@settings(max_examples=80)
@given(plan_bodies())
def test_request_key_is_the_cached_helpers_key(body):
    request = parse_request(body)
    cache = _RecordingCache()
    kwargs = dict(
        n_antennas=request.n_antennas,
        constraint=request.constraint(),
        center_frequency_hz=request.center_frequency_hz,
        n_draws=request.n_draws,
        grid_size=request.grid_size,
        seed=request.seed,
        n_candidates=request.n_candidates,
        refine_rounds=request.refine_rounds,
        refine_steps=request.refine_steps,
        islands=request.islands,
        fault_token=request.fault_token,
        adaptive_token=request.adaptive_token,
        cache=cache,
    )
    if request.kind == "conduction":
        optimized_conduction_plan(threshold=request.threshold, **kwargs)
    else:
        optimized_plan(**kwargs)
    assert cache.keys == [request.key]
