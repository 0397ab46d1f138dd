"""Vectorized time-domain kernels.

The time-domain models that decide whether a CIB peak powers a tag and
whether its backscatter decodes -- rectifier integration, power-management
hysteresis, multi-period reader capture, FM0 block decoding -- all have
per-sample or per-period scalar reference loops elsewhere in the package.
The kernels here evaluate the same recurrences over ``(B, T)`` blocks with
the Python loop removed (or reduced to the time axis alone), and they are
**bit-identical** to the scalar references: identical IEEE-754 operations
applied to identical values in identical order, so the regression suite
can pin ``batched == scalar`` exactly, healthy or fault-injected.

Kernels sit below the domain packages in the import graph (they depend on
``constants``, ``errors``, ``obs``, ``analysis``, and ``gen2`` only), so
``harvester.storage`` and ``reader.out_of_band`` can delegate to them
without cycles. Each kernel reports its throughput via the
``kernels.*_samples`` observability counters.
"""

from repro.kernels.ber import ber_block, fm0_block_errors
from repro.kernels.capture import capture_batch, capture_block
from repro.kernels.hysteresis import hysteresis_mask_batch
from repro.kernels.rectifier import rectifier_batch

__all__ = [
    "ber_block",
    "capture_batch",
    "capture_block",
    "fm0_block_errors",
    "hysteresis_mask_batch",
    "rectifier_batch",
]
