"""Property test: a ``/plan`` body either fails validation or builds.

``PlanningServer`` answers 400 for :class:`ServeRequestError` and
:class:`ConfigurationError`, and 500 for anything else. So every body that
:func:`parse_request` accepts must yield a search whose flatness budget and
optimizer build, and, when it asks for a depth, a power answer that strict
JSON can carry for any plan's peak gain; otherwise a client's input
reaches the search or the response and fails there. No search runs here.
"""

import json
import math
from types import SimpleNamespace

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.em.media import MEDIA_LIBRARY
from repro.errors import ConfigurationError
from repro.faults.plan import FAULT_KINDS
from repro.serve.service import (
    ServeRequestError,
    parse_request,
    power_at_depth,
)

# Any JSON value, including the non-finite floats Python's json accepts.
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(-(10**25), 10**25),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def mostly(common, rare, odds=15):
    """``common`` ``odds`` times as often as ``rare``."""
    return st.integers(0, odds).flatmap(lambda i: rare if i == 0 else common)


def either(plausible):
    """Mostly values near the valid range, sometimes any JSON value."""
    return mostly(plausible, junk)


def floats(low, high):
    """Values in ``[low, high]`` or any finite float (extremes included)."""
    return st.one_of(
        st.floats(low, high),
        st.floats(allow_nan=False, allow_infinity=False),
    )


fault_event = st.fixed_dictionaries(
    {"kind": st.sampled_from(FAULT_KINDS + ("bogus",))},
    optional={
        "probability": floats(-0.5, 1.5),
        "severity": floats(-0.5, 1.5),
        "antennas": st.lists(st.integers(-2, 40), max_size=3),
    },
)

adaptive = st.fixed_dictionaries(
    {},
    optional={
        "ci_target": either(floats(-0.1, 1.0)),
        "ci_relative": either(floats(-0.1, 1.0)),
        "confidence_z": either(floats(-1.0, 4.0)),
        "min_trials": either(st.integers(-2, 200)),
        "batch_trials": either(st.integers(-2, 200)),
        "max_trials": either(st.integers(-2, 2000)),
    },
)

# n_antennas and n_draws stay small: a valid body allocates an
# (n_draws, n_antennas) phase table when its optimizer builds.
FIELDS = {
    "kind": either(st.sampled_from(["peak", "conduction"])),
    "threshold": either(floats(-1.0, 20.0)),
    "alpha": either(floats(-0.5, 1.5)),
    "query_duration_s": either(floats(-1e-3, 2e-3)),
    "center_frequency_hz": either(floats(-1e9, 3e9)),
    "n_draws": either(st.integers(0, 64)),
    "grid_size": either(st.sampled_from([3, 64, 256, 2048, 8192, 10**7])),
    "seed": either(st.integers(-1, 2**70)),
    "n_candidates": either(st.integers(0, 32)),
    "refine_rounds": either(st.integers(0, 9)),
    "refine_steps": either(st.lists(st.integers(0, 5000), max_size=5)),
    "islands": either(st.integers(0, 4)),
    "fault_plan": either(st.lists(fault_event, max_size=3)),
    "adaptive": either(adaptive),
    "medium": either(st.sampled_from(sorted(MEDIA_LIBRARY) + ["bogus"])),
    "depth_m": either(floats(-0.1, 0.3)),
    "eirp_watts": either(floats(-1.0, 10.0)),
    "air_distance_m": either(floats(-1.0, 5.0)),
}

well_formed = st.fixed_dictionaries(
    {"n_antennas": either(st.integers(0, 40))}, optional=FIELDS
)

bodies = mostly(
    well_formed,
    st.one_of(
        st.fixed_dictionaries({}, optional=FIELDS),
        well_formed.map(lambda body: {**body, "n_antenna": 4}),
        junk,
    ),
    odds=8,
)


def check(body):
    try:
        request = parse_request(body)
    except (ServeRequestError, ConfigurationError):
        return
    constraint = request.constraint()
    assert 0.0 < constraint.max_rms_offset_hz < math.inf
    optimizer = request.optimizer()
    assert optimizer.n_antennas == request.n_antennas
    if request.depth_m is None:
        return
    # A plan's expected peak gain lies in [0, n_antennas].
    for peak in (0.0, 0.5, float(request.n_antennas)):
        answer = power_at_depth(request, SimpleNamespace(expected_peak=peak))
        json.dumps(answer, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(bodies)
def test_parsed_body_builds_its_search(body):
    check(body)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_any_flatness_budget_parses_or_builds(alpha, query_duration_s):
    """The two Eq. 9 inputs over the whole float range, the rest valid."""
    check({"n_antennas": 4, "alpha": alpha, "query_duration_s": query_duration_s})


@settings(max_examples=200, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
@example(depth_m=0.05, air_distance_m=1e-200, eirp_watts=4.0)
@example(depth_m=1e300, air_distance_m=0.1, eirp_watts=4.0)
def test_any_power_inputs_parse_or_answer(
    depth_m, air_distance_m, eirp_watts
):
    """The three Eq. 2 inputs of the power answer over the whole float
    range, the rest valid."""
    check(
        {
            "n_antennas": 4,
            "medium": "muscle",
            "depth_m": depth_m,
            "air_distance_m": air_distance_m,
            "eirp_watts": eirp_watts,
        }
    )


def test_power_check_refuses_only_what_some_plan_overflows():
    """The closest accepted air distance has a finite power answer at the
    largest peak gain a plan can reach (``n_antennas``), and the next
    closer distances are refused. A check at twice that gain (four times
    the power) would refuse this body, though no plan overflows it."""
    base = {"n_antennas": 4, "medium": "muscle", "depth_m": 0.0}

    def accepted(distance):
        try:
            parse_request({**base, "air_distance_m": distance})
        except ServeRequestError:
            return False
        return True

    lo, hi = 1e-300, 1.0
    assert not accepted(lo) and accepted(hi)
    for _ in range(200):
        mid = math.sqrt(lo) * math.sqrt(hi)
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
    request = parse_request({**base, "air_distance_m": hi})
    answer = power_at_depth(request, SimpleNamespace(expected_peak=4.0))
    json.dumps(answer, allow_nan=False)
    assert answer["harvested_w"] > 0
    assert not accepted(hi * (1 - 1e-6))
    with pytest.raises(OverflowError):
        power_at_depth(request, SimpleNamespace(expected_peak=8.0))
