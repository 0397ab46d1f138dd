"""Parity tests: batched reader capture vs the per-period receive loop."""

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, bit_corruption
from repro.kernels import capture_batch, capture_block
from repro.kernels.capture import CAPTURE_BLOCK_ELEMENTS
from repro.reader.jamming import JammingEstimate
from repro.reader.out_of_band import OutOfBandReader
from tests.reference.kernels import capture_response_scalar, receive

_TEMPLATE = np.tile([1.0, -1.0], 230)
_JAM = JammingEstimate(
    incident_power_w=1e-6, peak_power_w=4e-9, residual_power_w=1e-12
)


def _pair(seed=99):
    """Two identical readers with identical generators."""
    return (
        OutOfBandReader(),
        OutOfBandReader(),
        np.random.default_rng(seed),
        np.random.default_rng(seed),
    )


class TestCaptureParity:
    @pytest.mark.parametrize("n_periods", [1, 7, 25])
    def test_no_jam_bitwise(self, n_periods):
        kernel_reader, scalar_reader, rng_k, rng_s = _pair()
        kernel = kernel_reader.capture_response(
            _TEMPLATE, 2e-4, n_periods, rng_k
        )
        scalar = capture_response_scalar(
            scalar_reader, _TEMPLATE, 2e-4, n_periods, rng_s
        )
        assert np.array_equal(kernel.waveform, scalar.waveform)
        assert kernel.single_period_snr == scalar.single_period_snr
        assert kernel.n_periods == scalar.n_periods

    @pytest.mark.parametrize("n_periods", [1, 12])
    def test_jammed_bitwise(self, n_periods):
        kernel_reader, scalar_reader, rng_k, rng_s = _pair(7)
        kernel = kernel_reader.capture_response(
            _TEMPLATE, 2e-4, n_periods, rng_k, jamming=_JAM
        )
        scalar = capture_response_scalar(
            scalar_reader, _TEMPLATE, 2e-4, n_periods, rng_s, jamming=_JAM
        )
        assert np.array_equal(kernel.waveform, scalar.waveform)

    def test_agc_disabled_path(self):
        reader = OutOfBandReader()
        rng_k, rng_s = np.random.default_rng(4), np.random.default_rng(4)
        signal = 2e-4 * _TEMPLATE.astype(complex)
        batched = capture_batch(
            reader.chain, signal, 9, rng_k, agc_target=0.0
        )
        periods = [
            np.real(receive(reader.chain, signal, rng_s, agc_target=0.0))
            for _ in range(9)
        ]
        assert np.array_equal(batched, np.mean(np.stack(periods), axis=0))

    def test_zero_signal_gain_of_one(self):
        # A silent chain (zero noise, zero signal) exercises the peak == 0
        # branch: the batched AGC must pass those periods through with a
        # gain of exactly 1.0 instead of dividing by zero.
        reader = OutOfBandReader()

        class _SilentChain:
            saw = reader.chain.saw
            tuned_frequency_hz = reader.chain.tuned_frequency_hz
            adc = reader.chain.adc

            @staticmethod
            def noise_std():
                return 0.0

        signal = np.zeros(64, dtype=complex)
        rng = np.random.default_rng(0)
        batched = capture_batch(_SilentChain(), signal, 3, rng)
        assert np.array_equal(batched, np.zeros(64))

    def test_decode_parity_with_fault_plan(self):
        # The link-plane corruption faults key off the decoded capture, so
        # identical capture waveforms must yield identical faulted decodes.
        plan = FaultPlan(events=bit_corruption(0.8, probability=1.0).events)
        kernel_reader, scalar_reader, rng_k, rng_s = _pair(13)
        kernel = kernel_reader.capture_response(_TEMPLATE, 2e-4, 5, rng_k)
        scalar = capture_response_scalar(
            scalar_reader, _TEMPLATE, 2e-4, 5, rng_s
        )
        from repro.faults.inject import FaultInjector

        injector = FaultInjector(plan, 17)
        decoded_kernel = kernel_reader.decode(
            kernel, 16, 10, faults=injector, trial_index=2
        )
        decoded_scalar = scalar_reader.decode(
            scalar, 16, 10, faults=injector, trial_index=2
        )
        assert decoded_kernel.bits == decoded_scalar.bits
        assert decoded_kernel.success == decoded_scalar.success


class _ChainWithoutAdc:
    """The reader chain minus its ADC: no AGC, no quantization."""

    def __init__(self, chain):
        self.saw = chain.saw
        self.tuned_frequency_hz = chain.tuned_frequency_hz
        self.noise_std = chain.noise_std


class TestCaptureBlockRows:
    """``capture_block`` receives its rows in blocks; every row must equal
    its own un-jammed ``capture_batch`` call, on both sides of each block
    boundary, and leave its generator where that call leaves it."""

    N_PERIODS = 8
    N_SAMPLES = 92
    ROWS = CAPTURE_BLOCK_ELEMENTS // (N_PERIODS * 2 * N_SAMPLES)

    @pytest.mark.parametrize(
        "n_signals",
        [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3],
    )
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("adc", [True, False])
    def test_matches_stacked_capture_batch(self, n_signals, dtype, adc):
        assert self.ROWS > 1
        chain = OutOfBandReader().chain
        if not adc:
            chain = _ChainWithoutAdc(chain)
        rng = np.random.default_rng(n_signals)
        shape = (n_signals, self.N_SAMPLES)
        signals = (
            2e-4 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        ).astype(dtype)
        def generators():
            return [np.random.default_rng(500 + a) for a in range(n_signals)]

        block_rngs, batch_rngs = generators(), generators()

        got = capture_block(chain, signals, self.N_PERIODS, block_rngs)
        want = np.stack(
            [
                capture_batch(chain, signal, self.N_PERIODS, generator)
                for signal, generator in zip(signals, batch_rngs)
            ]
        )
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert [g.bit_generator.state for g in block_rngs] == [
            g.bit_generator.state for g in batch_rngs
        ]


class TestValidation:
    def test_rejects_zero_periods(self):
        reader = OutOfBandReader()
        with pytest.raises(Exception):
            reader.capture_response(
                _TEMPLATE, 2e-4, 0, np.random.default_rng(0)
            )
        with pytest.raises(ValueError):
            capture_batch(
                reader.chain,
                _TEMPLATE.astype(complex),
                0,
                np.random.default_rng(0),
            )

    def test_rejects_empty_signal(self):
        reader = OutOfBandReader()
        with pytest.raises(ValueError):
            capture_batch(
                reader.chain,
                np.empty(0, dtype=complex),
                3,
                np.random.default_rng(0),
            )
