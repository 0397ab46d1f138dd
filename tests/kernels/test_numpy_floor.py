"""The kernels run on the oldest NumPy the package declares (``>=1.21``).

``np.astype`` (NumPy 2.1), ``np.concat`` (2.0) and ``np.bool`` (absent
from 1.24 until 2.0) are array-API spellings that older releases lack.
Deleting them from the module reproduces such a NumPy; every kernel must
still return exactly what it returns with them present.
"""

import numpy as np

from repro.core.optimizer import StackedScoreSpec, evaluate_stacked_specs
from repro.gen2.fm0 import chips_to_waveform, encode_chips
from repro.kernels import fm0_block_errors

_SPC = 4


def _fm0_inputs():
    rng = np.random.default_rng(7)
    tx_bits = rng.integers(0, 2, (6, 16))
    waveforms = np.vstack(
        [
            chips_to_waveform(encode_chips(tuple(bits)), _SPC)
            for bits in tx_bits
        ]
    )
    waveforms = waveforms + rng.normal(0.0, 0.8, waveforms.shape)
    return tx_bits, waveforms


def _conduction_spec():
    rng = np.random.default_rng(8)
    grid_size = 256
    scatter = np.stack(
        [rng.choice(grid_size, 5, replace=False) for _ in range(3)]
    ).astype(np.int64)
    phasors = np.exp(2j * np.pi * rng.uniform(size=(4, 5)))
    return StackedScoreSpec(
        scatter=scatter,
        phasors=phasors,
        grid_size=grid_size,
        kind="conduction",
        cutoff=2.0,
        single=False,
    )


def _run_kernels():
    tx_bits, waveforms = _fm0_inputs()
    return (
        fm0_block_errors(tx_bits, waveforms, _SPC),
        evaluate_stacked_specs([_conduction_spec()])[0],
    )


def test_kernels_run_without_array_api_aliases(monkeypatch):
    expected = _run_kernels()
    for name in ("astype", "concat", "bool"):
        monkeypatch.delattr(np, name, raising=False)
    for got, want in zip(_run_kernels(), expected):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)
