"""Kernel dtype preservation and strided-view tolerance.

Two contracts:

* float32 (and complex64) inputs stay single precision end-to-end --
  no silent promotion to float64 buffers inside a kernel -- while the
  float64 path is bit-for-bit unaffected;
* non-contiguous inputs (transposes, strided slices) produce exactly
  the same output as their contiguous copies.
"""

import numpy as np

from repro.kernels import (
    capture_batch,
    capture_block,
    hysteresis_mask_batch,
    rectifier_batch,
)
from repro.rf.receiver import AnalogToDigitalConverter, ReceiveChain

def _chain():
    return ReceiveChain(915e6, adc=AnalogToDigitalConverter())


class TestDtypePreservation:
    def test_rectifier_float32_stays_float32(self):
        rng = np.random.default_rng(51)
        envelopes = np.abs(rng.normal(0.8, 0.5, (5, 200))).astype(np.float32)
        voltages = rectifier_batch(envelopes, 5e-5)
        assert voltages.dtype == np.float32

    def test_rectifier_float32_close_to_float64(self):
        rng = np.random.default_rng(52)
        envelopes = np.abs(rng.normal(0.8, 0.5, (5, 200)))
        wide = rectifier_batch(envelopes, 5e-5)
        narrow = rectifier_batch(envelopes.astype(np.float32), 5e-5)
        np.testing.assert_allclose(narrow, wide, rtol=2e-4, atol=1e-6)

    def test_capture_complex64_yields_float32(self):
        template = np.tile([1.0, -1.0], 20).astype(np.float32)
        averaged = capture_batch(
            _chain(), template, 30, np.random.default_rng(53)
        )
        assert averaged.dtype == np.float32

    def test_capture_float64_yields_float64(self):
        template = np.tile([1.0, -1.0], 20)
        averaged = capture_batch(
            _chain(), template, 30, np.random.default_rng(53)
        )
        assert averaged.dtype == np.float64

    def test_capture_block_float32(self):
        rng = np.random.default_rng(54)
        signals = rng.normal(0.0, 1.0, (3, 40)).astype(np.float32)
        averaged = capture_block(
            _chain(),
            signals,
            10,
            [np.random.default_rng(60 + i) for i in range(3)],
        )
        assert averaged.dtype == np.float32

    def test_integer_input_promotes_to_float64(self):
        envelopes = np.ones((2, 50), dtype=np.int64)
        voltages = rectifier_batch(envelopes, 5e-5)
        assert voltages.dtype == np.float64
        mask = hysteresis_mask_batch(
            np.ones((2, 50), dtype=np.int32), 1.8, 1.4
        )
        assert mask.dtype == bool

    def test_float64_path_unchanged_by_float32_support(self):
        # The float64 reference output must be identical whether or not
        # a float32 call happened first (no cached-dtype leakage).
        rng = np.random.default_rng(55)
        envelopes = np.abs(rng.normal(0.8, 0.5, (4, 150)))
        before = rectifier_batch(envelopes, 5e-5)
        rectifier_batch(envelopes.astype(np.float32), 5e-5)
        after = rectifier_batch(envelopes, 5e-5)
        assert np.array_equal(before, after)
        assert after.dtype == np.float64


class TestStridedViews:
    def test_hysteresis_strided_rows(self):
        rng = np.random.default_rng(56)
        traces = rng.uniform(0.0, 2.5, (12, 400))
        view = traces[::2]
        assert not view.flags["C_CONTIGUOUS"]
        assert np.array_equal(
            hysteresis_mask_batch(view, 1.8, 1.4),
            hysteresis_mask_batch(view.copy(), 1.8, 1.4),
        )

    def test_rectifier_transposed_input(self):
        rng = np.random.default_rng(57)
        envelopes = np.abs(rng.normal(0.8, 0.5, (300, 6))).T
        assert not envelopes.flags["C_CONTIGUOUS"]
        assert np.array_equal(
            rectifier_batch(envelopes, 5e-5),
            rectifier_batch(np.ascontiguousarray(envelopes), 5e-5),
        )

    def test_capture_block_strided_signals(self):
        rng = np.random.default_rng(58)
        signals = rng.normal(0.0, 1.0, (8, 80))[1::2, ::2]
        assert not signals.flags["C_CONTIGUOUS"]
        rngs = lambda: [np.random.default_rng(70 + i) for i in range(4)]
        assert np.array_equal(
            capture_block(_chain(), signals, 10, rngs()),
            capture_block(
                _chain(), np.ascontiguousarray(signals), 10, rngs()
            ),
        )

    def test_reversed_time_axis_view(self):
        rng = np.random.default_rng(59)
        traces = rng.uniform(0.0, 2.5, (4, 250))
        view = traces[:, ::-1]
        assert view.strides[-1] < 0
        assert np.array_equal(
            hysteresis_mask_batch(view, 1.8, 1.4),
            hysteresis_mask_batch(view.copy(), 1.8, 1.4),
        )
