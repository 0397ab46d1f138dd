"""Backend-layer parity: the portable kernel paths vs the NumPy pins.

The ``numpy`` backend executes the pre-port reference code paths
(``np.add.at`` composites, ``maximum.accumulate`` forward-fill, in-place
AGC); ``numpy_portable`` runs the portable array-API-dialect branches on
the same NumPy namespace with every capability flag off.  Because both
sides evaluate on NumPy, the portable branches are pinned **bitwise**
against the references here -- the strongest statement the local
toolchain can make with no other namespace installed.  ``array_api_strict``
conformance (tolerance-checked, different namespace) runs in CI via
``tools/check_backend_parity.py`` and the importorskip-gated class at
the bottom.
"""

import numpy as np
import pytest

from repro.core.optimizer import StackedScoreSpec, evaluate_stacked_specs
from repro.errors import ConfigurationError
from repro.fleet.collision import CaptureModel, run_inventory
from repro.fleet.population import FleetConfig, generate_shard
from repro.kernels import (
    ber_block,
    capture_batch,
    capture_block,
    default_backend,
    fm0_block_errors,
    get_namespace,
    hysteresis_mask_batch,
    rectifier_batch,
    set_default_backend,
    use_backend,
)
from repro.kernels.backend import ENV_VAR, available_backends
from repro.rf.receiver import AnalogToDigitalConverter, ReceiveChain


def _chain():
    return ReceiveChain(915e6, adc=AnalogToDigitalConverter())


class TestRegistry:
    def test_numpy_backends_always_available(self):
        names = available_backends()
        assert "numpy" in names
        assert "numpy_portable" in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            get_namespace("fortran")

    def test_reference_capabilities(self):
        be = get_namespace("numpy")
        assert be.is_reference
        assert be.is_numpy_namespace
        assert be.caps.inplace_out and be.caps.ufunc_at

    def test_portable_capabilities(self):
        be = get_namespace("numpy_portable")
        assert not be.is_reference
        assert be.is_numpy_namespace
        assert not (be.caps.inplace_out or be.caps.ufunc_at)

    def test_use_backend_restores_default_and_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        set_default_backend(None)
        assert default_backend().name == "numpy"
        with use_backend("numpy_portable") as be:
            assert be.name == "numpy_portable"
            assert default_backend() is be
            # Worker processes spawned inside the scope inherit it.
            import os

            assert os.environ[ENV_VAR] == "numpy_portable"
        assert default_backend().name == "numpy"

    def test_get_namespace_infers_from_array(self):
        be = get_namespace(np.zeros(3))
        assert be.is_numpy_namespace


class TestHelperPrimitives:
    def test_scatter_add_rows_matches_add_at(self):
        rng = np.random.default_rng(11)
        segment_ids = rng.integers(0, 6, size=40)
        values = rng.normal(0.0, 1.0, (40, 16))
        reference = np.zeros((6, 16))
        np.add.at(reference, segment_ids, values)
        for name in ("numpy", "numpy_portable"):
            be = get_namespace(name)
            got = be.to_numpy(
                be.scatter_add_rows((6, 16), segment_ids, be.asarray(values))
            )
            if name == "numpy":
                assert np.array_equal(got, reference)
            else:
                # One-hot matmul reorders the additions: tolerance only.
                np.testing.assert_allclose(got, reference, rtol=1e-12)

    def test_cumulative_max_int_matches_accumulate(self):
        rng = np.random.default_rng(12)
        jagged = rng.integers(-100, 100, size=(8, 57))
        reference = np.maximum.accumulate(jagged, axis=-1)
        for name in ("numpy", "numpy_portable"):
            be = get_namespace(name)
            got = be.to_numpy(be.cumulative_max_int(be.asarray(jagged)))
            assert np.array_equal(got, reference)


class TestKernelParity:
    """numpy_portable bitwise-equals numpy for every ported kernel."""

    def test_hysteresis(self):
        rng = np.random.default_rng(21)
        traces = rng.uniform(0.0, 2.5, (9, 500))
        want = hysteresis_mask_batch(traces, 1.8, 1.4, backend="numpy")
        got = hysteresis_mask_batch(
            traces, 1.8, 1.4, backend="numpy_portable"
        )
        assert np.array_equal(want, got)

    def test_hysteresis_one_dimensional(self):
        trace = np.array([0.0, 2.0, 1.5, 1.0])
        got = hysteresis_mask_batch(trace, 1.8, 1.4, backend="numpy_portable")
        assert got.shape == trace.shape
        assert got.tolist() == [False, True, True, False]

    @pytest.mark.parametrize("method", ["step", "scan"])
    def test_rectifier(self, method):
        rng = np.random.default_rng(22)
        envelopes = np.abs(rng.normal(0.8, 0.5, (7, 700)))
        want = rectifier_batch(envelopes, 5e-5, method=method, backend="numpy")
        got = rectifier_batch(
            envelopes, 5e-5, method=method, backend="numpy_portable"
        )
        # "scan" falls back to the NumPy-only recurrence on both (DESIGN
        # section 15), "step" exercises the portable functional loop.
        assert np.array_equal(want, got)

    @pytest.mark.parametrize("jam", [0.0, 0.3])
    def test_capture_batch(self, jam):
        template = np.tile([1.0, -1.0], 25)
        want = capture_batch(
            _chain(),
            template,
            40,
            np.random.default_rng(23),
            jam_amplitude_v=jam,
            backend="numpy",
        )
        got = capture_batch(
            _chain(),
            template,
            40,
            np.random.default_rng(23),
            jam_amplitude_v=jam,
            backend="numpy_portable",
        )
        assert np.array_equal(want, got)

    def test_capture_block(self):
        rng = np.random.default_rng(24)
        signals = rng.normal(0.0, 1.0, (5, 50))
        want = capture_block(
            _chain(),
            signals,
            15,
            [np.random.default_rng(30 + i) for i in range(5)],
            backend="numpy",
        )
        got = capture_block(
            _chain(),
            signals,
            15,
            [np.random.default_rng(30 + i) for i in range(5)],
            backend="numpy_portable",
        )
        assert np.array_equal(want, got)

    def test_ber_block(self):
        kwargs = dict(
            seed=25,
            n_words=12,
            noise_std=1.1,
            samples_per_chip=10,
            miller_orders=(2,),
            averaging_periods=5,
        )
        assert ber_block(0, 12, backend="numpy", **kwargs) == ber_block(
            0, 12, backend="numpy_portable", **kwargs
        )

    def test_fm0_block_errors(self):
        from repro.gen2.fm0 import encode_chips_block

        rng = np.random.default_rng(26)
        tx_bits = rng.integers(0, 2, size=(6, 16))
        waveforms = np.repeat(
            encode_chips_block(tx_bits).astype(np.float64), 8, axis=1
        )
        waveforms = waveforms + rng.normal(0.0, 0.4, waveforms.shape)
        want = fm0_block_errors(tx_bits, waveforms, 8, backend="numpy")
        got = fm0_block_errors(
            tx_bits, waveforms, 8, backend="numpy_portable"
        )
        assert np.array_equal(want, got)


def _specs(single: bool):
    rng = np.random.default_rng(27)
    grid = 256
    scatter = rng.integers(0, grid, size=(4, 3)).astype(np.int64)
    phasors = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(6, 3)))
    if single:
        return [
            StackedScoreSpec(
                scatter, phasors.astype(np.complex64), grid, "peak", 0.0, True
            )
        ]
    return [
        StackedScoreSpec(scatter, phasors, grid, "peak", 0.0, False),
        StackedScoreSpec(scatter, phasors, grid, "conduction", 1.2, False),
    ]


class TestStackedScoring:
    def test_double_precision_bitwise(self):
        want = evaluate_stacked_specs(_specs(False), backend="numpy")
        got = evaluate_stacked_specs(_specs(False), backend="numpy_portable")
        for w, g in zip(want, got):
            assert np.array_equal(np.asarray(w), np.asarray(g))

    def test_single_precision_tolerance(self):
        # The reference runs the scipy complex64 coarse IFFT; portable
        # namespaces use their own FFT, so this path is tolerance-only.
        want = evaluate_stacked_specs(_specs(True), backend="numpy")
        got = evaluate_stacked_specs(_specs(True), backend="numpy_portable")
        for w, g in zip(want, got):
            np.testing.assert_allclose(
                np.asarray(w), np.asarray(g), rtol=1e-5
            )


class TestFleetParity:
    def test_run_inventory_identical_on_portable_backend(self):
        config = FleetConfig(n_tags=12, n_shards=1, initial_q=3, seed=7)
        capture = CaptureModel()
        kwargs = dict(
            initial_q=config.initial_q,
            max_rounds=config.max_rounds,
            session=config.session,
            seed_material=config.seed_material(),
            seed=config.seed,
            shard_index=0,
        )
        want = run_inventory(
            generate_shard(config, 0), capture, backend="numpy", **kwargs
        )
        got = run_inventory(
            generate_shard(config, 0),
            capture,
            backend="numpy_portable",
            **kwargs,
        )
        assert want.read_order == got.read_order


class TestArrayApiStrict:
    """Conformance against the strict standard namespace (CI extra)."""

    @pytest.fixture(autouse=True)
    def _strict(self):
        pytest.importorskip("array_api_strict")

    def test_kernels_within_tolerance(self):
        rng = np.random.default_rng(41)
        traces = rng.uniform(0.0, 2.5, (6, 300))
        envelopes = np.abs(rng.normal(0.8, 0.5, (6, 300)))
        be = get_namespace("array_api_strict")
        mask = be.to_numpy(
            hysteresis_mask_batch(traces, 1.8, 1.4, backend=be)
        )
        assert np.array_equal(
            mask, hysteresis_mask_batch(traces, 1.8, 1.4, backend="numpy")
        )
        voltages = be.to_numpy(rectifier_batch(envelopes, 5e-5, backend=be))
        np.testing.assert_allclose(
            voltages,
            rectifier_batch(envelopes, 5e-5, backend="numpy"),
            rtol=1e-9,
        )

    def test_ber_block_counts_agree(self):
        kwargs = dict(
            seed=42,
            n_words=8,
            noise_std=1.1,
            samples_per_chip=10,
            miller_orders=(2,),
            averaging_periods=4,
        )
        assert ber_block(
            0, 8, backend="array_api_strict", **kwargs
        ) == ber_block(0, 8, backend="numpy", **kwargs)
