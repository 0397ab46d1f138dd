"""Tests for repro.fleet.collision.

The load-bearing property is bit-identity: the stacked resolver must
reproduce the per-slot Gen2Tag state-machine walk exactly -- same read
order, same per-slot reply counts, same capture verdicts, same Q
trajectory -- healthy or fault-injected, ideal or capture-arbitrated.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import bit_corruption
from repro.fleet.collision import CaptureModel, run_inventory
from repro.fleet.population import FleetConfig, TagSet, generate_shard
from tests.reference.fleet import run_inventory_reference

FLEET = FleetConfig(n_tags=16, n_shards=1, initial_q=3, seed=7)


def resolver_kwargs(config, **overrides):
    kwargs = dict(
        initial_q=config.initial_q,
        max_rounds=config.max_rounds,
        session=config.session,
        seed_material=config.seed_material(),
        seed=config.seed,
        shard_index=0,
    )
    kwargs.update(overrides)
    return kwargs


def both(config, capture, fault_plan=None, **overrides):
    """(vectorized, reference) results of identically seeded runs."""
    kwargs = resolver_kwargs(config, **overrides)
    if fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    vectorized = run_inventory(generate_shard(config, 0), capture, **kwargs)
    reference = run_inventory_reference(
        generate_shard(config, 0), capture, **kwargs
    )
    return vectorized, reference


class TestCaptureModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CaptureModel(n_periods=0)
        with pytest.raises(ConfigurationError):
            CaptureModel(samples_per_chip=0)
        with pytest.raises(ConfigurationError):
            CaptureModel(min_attempt_sinr=-1.0)
        with pytest.raises(ConfigurationError):
            CaptureModel(amplitude_scale=0.0)
        with pytest.raises(ConfigurationError):
            CaptureModel(stall_rounds=0)

    @pytest.mark.parametrize(
        "field", ["min_attempt_sinr", "amplitude_scale"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigurationError):
            CaptureModel(**{field: value})


class TestIdealModeParity:
    def test_signatures_match(self):
        vectorized, reference = both(FLEET, None)
        assert vectorized.signature() == reference.signature()

    def test_all_tags_read(self):
        vectorized, _ = both(FLEET, None)
        assert vectorized.reads == FLEET.n_tags
        assert sorted(vectorized.read_order) == list(range(FLEET.n_tags))

    def test_read_order_unique(self):
        vectorized, _ = both(FLEET, None)
        assert len(set(vectorized.read_order)) == len(vectorized.read_order)


class TestCaptureModeParity:
    def test_signatures_match(self):
        vectorized, reference = both(FLEET, CaptureModel())
        assert vectorized.signature() == reference.signature()

    def test_captures_happen(self):
        """The point of the resolver: some collided slots must decode."""
        vectorized, _ = both(FLEET, CaptureModel())
        assert vectorized.n_captures > 0
        assert vectorized.reads == FLEET.n_tags

    def test_parity_across_sessions_and_q(self):
        for session in (0, 2):
            for initial_q in (2, 5):
                config = FleetConfig(
                    n_tags=10,
                    n_shards=1,
                    initial_q=initial_q,
                    session=session,
                    seed=31,
                )
                vectorized, reference = both(config, CaptureModel())
                assert vectorized.signature() == reference.signature()

    def test_parity_under_bit_corruption_faults(self):
        vectorized, reference = both(
            FLEET, CaptureModel(), fault_plan=bit_corruption(0.6)
        )
        assert vectorized.signature() == reference.signature()

    def test_parity_for_nonzero_shard_index(self):
        """Shard index keys the decode streams; both paths must agree."""
        vectorized, reference = both(FLEET, CaptureModel(), shard_index=3)
        assert vectorized.signature() == reference.signature()


class TestStall:
    @pytest.fixture()
    def silent_tags(self):
        """Powered tags whose backscatter never clears the noise floor."""
        n = 4
        rng = np.random.default_rng(9)
        return TagSet(
            epc_bits=rng.integers(0, 2, size=(n, 96)),
            reply_amplitude_v=np.full(n, 1e-12),
            powered=np.ones(n, dtype=bool),
            mac_rngs=[np.random.default_rng(100 + i) for i in range(n)],
            global_indices=np.arange(n),
            depths_m=np.full(n, 0.1),
            input_voltage_v=np.zeros(n),
        )

    def test_undecodable_fleet_stalls_out(self, silent_tags):
        capture = CaptureModel(stall_rounds=3)
        result = run_inventory(
            silent_tags, capture, initial_q=2, max_rounds=64
        )
        assert result.reads == 0
        # The stall guard must stop the loop well before the round cap.
        assert len(result.rounds) < 64

    def test_stall_parity_with_reference(self, silent_tags):
        capture = CaptureModel(stall_rounds=3)
        kwargs = dict(initial_q=2, max_rounds=64)
        vectorized = run_inventory(silent_tags, capture, **kwargs)
        # Re-build: the MAC generators are stateful.
        rng = np.random.default_rng(9)
        reference_tags = TagSet(
            epc_bits=rng.integers(0, 2, size=(4, 96)),
            reply_amplitude_v=np.full(4, 1e-12),
            powered=np.ones(4, dtype=bool),
            mac_rngs=[np.random.default_rng(100 + i) for i in range(4)],
            global_indices=np.arange(4),
            depths_m=np.full(4, 0.1),
            input_voltage_v=np.zeros(4),
        )
        reference = run_inventory_reference(
            reference_tags, capture, **kwargs
        )
        assert vectorized.signature() == reference.signature()


class TestUnpoweredTags:
    def test_unpowered_tags_never_read(self):
        config = FleetConfig(n_tags=8, n_shards=1, seed=3)
        tags = generate_shard(config, 0)
        tags.powered[:] = False
        tags.powered[2] = True
        result = run_inventory(tags, None, **resolver_kwargs(config))
        assert result.reads == 1
        assert list(result.read_order) == [2]
