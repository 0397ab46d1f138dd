"""Bench: the kernel workload per array backend.

One row per backend the interpreter can actually build (``numpy`` and
``numpy_portable`` everywhere; ``array_api_strict`` when installed): the same fixed rectifier + hysteresis + capture + BER-decode
workload runs under ``use_backend(name)`` so ``run_once`` records a
per-backend ``kernel_samples_per_s`` and stamps the row with the backend
that produced it.  NumPy-namespace backends must stay bit-identical to
the pinned ``numpy`` reference; off-namespace backends are held to a
tolerance instead (DESIGN section 15).
"""

import time

import numpy as np
import pytest

from repro.experiments.report import Table
from repro.kernels import (
    available_backends,
    ber_block,
    capture_batch,
    get_namespace,
    hysteresis_mask_batch,
    rectifier_batch,
    use_backend,
)
from repro.rf.receiver import AnalogToDigitalConverter, ReceiveChain
from conftest import run_once

RECTIFIER_SHAPE = (64, 3000)
HYSTERESIS_SHAPE = (48, 6000)
CAPTURE_PERIODS = 800
CAPTURE_SAMPLES = 60
BER_WORDS = 12


def _workload():
    """The fixed kernel mix, evaluated on the current default backend."""
    data_rng = np.random.default_rng(61)
    envelopes = np.abs(data_rng.normal(0.8, 0.5, RECTIFIER_SHAPE))
    traces = data_rng.uniform(0.0, 2.5, HYSTERESIS_SHAPE)
    template = np.tile([1.0, -1.0], CAPTURE_SAMPLES // 2)
    chain = ReceiveChain(915e6, adc=AnalogToDigitalConverter())

    voltages = rectifier_batch(envelopes, 5e-5)
    mask = hysteresis_mask_batch(traces, 1.8, 1.4)
    capture = capture_batch(
        chain, template, CAPTURE_PERIODS, np.random.default_rng(62)
    )
    errors = ber_block(
        0,
        BER_WORDS,
        seed=63,
        n_words=BER_WORDS,
        noise_std=1.1,
        samples_per_chip=10,
        miller_orders=(2,),
        averaging_periods=6,
    )
    return voltages, mask, capture, errors


def _materialize(name, outputs):
    """Ship a workload's array outputs back to host NumPy for comparison."""
    be = get_namespace(name)
    voltages, mask, capture, errors = outputs
    return (
        be.to_numpy(voltages),
        be.to_numpy(mask),
        be.to_numpy(capture),
        errors,
    )


@pytest.mark.parametrize("name", available_backends())
def test_backend_kernel_throughput_and_parity(benchmark, emit, name):
    with use_backend("numpy"):
        reference = _materialize("numpy", _workload())
    _workload()  # warm caches (FM0 templates, backend registry)

    def timed():
        start = time.perf_counter()
        outputs = _workload()
        return outputs, time.perf_counter() - start

    with use_backend(name):
        outputs, wall_s = run_once(benchmark, timed)
    voltages, mask, capture, errors = _materialize(name, outputs)

    samples = (
        np.prod(RECTIFIER_SHAPE)
        + np.prod(HYSTERESIS_SHAPE)
        + CAPTURE_PERIODS * CAPTURE_SAMPLES
    )
    table = Table(
        title=f"Backend -- kernel workload on {name!r}",
        headers=("backend", "wall (s)", "samples/s"),
    )
    table.add_row(name, wall_s, samples / wall_s)
    emit(table)

    be = get_namespace(name)
    if be.is_numpy_namespace:
        # Same namespace, same IEEE-754 op stream: pinned exactly.
        np.testing.assert_array_equal(voltages, reference[0])
        np.testing.assert_array_equal(mask, reference[1])
        np.testing.assert_array_equal(capture, reference[2])
    else:
        np.testing.assert_allclose(voltages, reference[0], rtol=1e-6)
        np.testing.assert_array_equal(mask, reference[1])
        np.testing.assert_allclose(
            capture, reference[2], rtol=1e-5, atol=1e-8
        )
    assert errors == reference[3]
