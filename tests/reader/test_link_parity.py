"""``IvnLink.run_trial`` against its per-call reference, bit for bit.

Every :class:`LinkTrialResult` field must match the reference trial in
``tests/reference/link.py`` exactly (floats by their bytes, the capture by
``np.array_equal`` and its bytes), and both must leave the trial generator
in the same state, across random plans, swine and water-tank placements
with and without multipath, and fault plans whose drift makes the carrier
offsets fractional.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.core import waveform
from repro.core.plan import CarrierPlan, paper_plan
from repro.em import media
from repro.em.multipath import INDOOR_MULTIPATH, NO_MULTIPATH
from repro.em.phantoms import SwinePhantom, WaterTankPhantom
from repro.faults.inject import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    antenna_dropout,
    bit_corruption,
    pll_relock,
    reference_holdover,
    tag_detuning,
)
from repro.reader.link import IvnLink, LinkTrialResult, cib_peak
from repro.sensors.tags import miniature_tag_spec, standard_tag_spec
from tests.reference.link import cib_peak_reference, run_trial_reference

FAULT_PLANS = (
    None,
    reference_holdover(1.0),
    reference_holdover(0.3, probability=0.5),
    pll_relock(0.8),
    antenna_dropout(),
    tag_detuning(0.5),
    bit_corruption(0.6),
    FaultPlan(
        events=reference_holdover(0.5).events + bit_corruption(0.3).events,
        name="holdover+corruption",
    ),
)


def _bits(value):
    return np.float64(value).tobytes()


def assert_same_trial(new: LinkTrialResult, ref: LinkTrialResult) -> None:
    for field in dataclasses.fields(LinkTrialResult):
        got, want = getattr(new, field.name), getattr(ref, field.name)
        if field.name == "capture_waveform":
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()
        elif field.name == "decode":
            assert (got is None) == (want is None)
            if got is not None:
                assert got.success == want.success
                assert _bits(got.correlation) == _bits(want.correlation)
                assert got.bits == want.bits
                assert got.preamble_offset == want.preamble_offset
        elif isinstance(want, float):
            assert type(got) is type(want), field.name
            assert _bits(got) == _bits(want), field.name
        else:
            assert got == want, field.name


def random_plan(rng: np.random.Generator) -> CarrierPlan:
    n_antennas = int(rng.integers(1, 11))
    if rng.random() < 0.3:
        return paper_plan().subset(n_antennas)
    # Wide plans fluctuate over the query window, so their queries can fail.
    span = 200 if rng.random() < 0.7 else 3000
    offsets = np.sort(rng.choice(span, size=n_antennas, replace=False))
    offsets = tuple(float(f - offsets[0]) for f in offsets)
    amplitudes = None
    if rng.random() < 0.5:
        amplitudes = tuple(rng.uniform(0.2, 1.0, n_antennas).tolist())
    return CarrierPlan(
        center_frequency_hz=915e6, offsets_hz=offsets, amplitudes=amplitudes
    )


def random_setup(rng: np.random.Generator):
    """A link, a channel factory and the medium at the tag."""
    plan = random_plan(rng)
    spec = standard_tag_spec() if rng.random() < 0.6 else miniature_tag_spec()
    eirp = None if rng.random() < 0.3 else float(rng.uniform(0.5, 12.0))
    link = IvnLink(
        plan,
        spec,
        eirp_per_branch_w=eirp,
        n_averaging_periods=int(rng.integers(1, 12)),
        reader_distance_m=float(rng.uniform(0.3, 2.0)),
    )
    n = plan.n_antennas
    if rng.random() < 0.5:
        placement = ("gastric", "subcutaneous")[int(rng.integers(2))]
        multipath = None if rng.random() < 0.7 else NO_MULTIPATH
        medium = (
            media.GASTRIC_CONTENT if placement == "gastric" else media.FAT
        )

        def factory(trial_rng):
            return SwinePhantom().channel(
                placement, n, plan.center_frequency_hz, trial_rng,
                multipath=multipath,
            )
    else:
        medium = (media.AIR, media.WATER, media.STEAK)[int(rng.integers(3))]
        tank = WaterTankPhantom(
            medium=medium, standoff_m=float(rng.uniform(0.3, 1.5))
        )
        depth = float(rng.uniform(0.0, 0.08))
        mode = ("random", "perturbed", "geometric")[int(rng.integers(3))]
        multipath = (NO_MULTIPATH, INDOOR_MULTIPATH)[int(rng.integers(2))]

        def factory(trial_rng):
            return tank.channel(
                n, depth, plan.center_frequency_hz, phase_mode=mode,
                multipath=multipath, rng=trial_rng,
            )
    return link, factory, medium


def outcome(result: LinkTrialResult) -> str:
    if not result.powered:
        return "unpowered"
    if not result.query_decoded:
        return "query failed"
    return "success" if result.success else "decode failed"


class TestRunTrialParity:
    def test_random_links_match_reference(self, monkeypatch):
        direct_peaks = []
        direct = waveform.peak_envelope

        def spy(*args, **kwargs):
            direct_peaks.append(1)
            return direct(*args, **kwargs)

        monkeypatch.setattr(waveform, "peak_envelope", spy)
        setup_rng = np.random.default_rng(2024)
        outcomes = Counter()
        for case in range(60):
            link, factory, medium = random_setup(setup_rng)
            plan = FAULT_PLANS[case % len(FAULT_PLANS)]
            faults = None if plan is None else FaultInjector(plan, case)
            for trial in range(4):
                seed = 1000 * case + trial
                new_rng = np.random.default_rng(seed)
                ref_rng = np.random.default_rng(seed)
                new = link.run_trial(
                    factory(new_rng), medium, new_rng,
                    faults=faults, trial_index=trial,
                )
                ref = run_trial_reference(
                    link, factory(ref_rng), medium, ref_rng,
                    faults=faults, trial_index=trial,
                )
                assert_same_trial(new, ref)
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state
                outcomes[outcome(new)] += 1
        # Every exit of the trial is compared, not only the common ones.
        assert set(outcomes) == {
            "unpowered", "query failed", "success", "decode failed"
        }, outcomes
        # Drifted, fractional offsets took the direct envelope peak.
        assert direct_peaks

    @pytest.mark.parametrize("placement", ["gastric", "subcutaneous"])
    @pytest.mark.parametrize("tag", ["standard", "miniature"])
    def test_swine_matrix_cells_match_reference(self, placement, tag):
        plan = paper_plan().subset(8)
        spec = standard_tag_spec() if tag == "standard" else miniature_tag_spec()
        link = IvnLink(plan, spec, eirp_per_branch_w=6.0)
        medium = media.GASTRIC_CONTENT if placement == "gastric" else media.FAT
        phantom = SwinePhantom()
        for seed in range(12):
            new_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            new = link.run_trial(
                phantom.channel(placement, 8, plan.center_frequency_hz, new_rng),
                medium,
                new_rng,
            )
            ref = run_trial_reference(
                link,
                phantom.channel(placement, 8, plan.center_frequency_hz, ref_rng),
                medium,
                ref_rng,
            )
            assert_same_trial(new, ref)
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state


class TestCibPeakParity:
    def test_integer_and_fractional_offsets_match_reference(self):
        rng = np.random.default_rng(77)
        for case in range(200):
            n = int(rng.integers(1, 11))
            offsets = rng.choice(300, size=n, replace=False).astype(float)
            if case % 3 == 0:
                offsets = offsets + rng.normal(0.0, 0.01, n)
            betas = rng.uniform(0.0, 2.0 * np.pi, n)
            amplitudes = rng.uniform(0.0, 5.0, n)
            got = cib_peak(offsets, betas, amplitudes)
            want = cib_peak_reference(offsets, betas, amplitudes)
            assert _bits(got[0]) == _bits(want[0])
            assert _bits(got[1]) == _bits(want[1])
