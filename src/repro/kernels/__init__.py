"""Vectorized time-domain kernels.

The time-domain models behind the wake-up sweep, the reader and the BER
sweep -- rectifier integration, multi-period reader capture, FM0 block
decoding -- each have a per-sample or per-period scalar loop kept as a
test oracle under ``tests/reference/``. The kernels here evaluate the same
recurrences over ``(B, T)`` blocks with the Python loop removed (or
reduced to the time axis alone), and they are **bit-identical** to those
loops: identical IEEE-754 operations applied to identical values in
identical order, so the regression suite can pin ``batched == scalar``
exactly, healthy or fault-injected.

Kernels sit below the domain packages in the import graph (they depend on
``constants``, ``errors``, ``obs``, ``analysis``, and ``gen2`` only), so
``runtime.engine``, ``reader.out_of_band`` and ``fleet.collision`` can call
them without cycles. Each kernel reports its throughput via the
``kernels.*_samples`` observability counters.
"""

from repro.kernels.ber import ber_block, fm0_block_errors
from repro.kernels.capture import capture_batch, capture_block
from repro.kernels.rectifier import rectifier_batch

__all__ = [
    "ber_block",
    "capture_batch",
    "capture_block",
    "fm0_block_errors",
    "rectifier_batch",
]
