"""Closed-form wake/brown-out hysteresis masks.

:func:`hysteresis_mask_batch` computes
:meth:`repro.harvester.storage.PowerManager.powered_mask` without the
per-sample loop. The hysteresis state machine has a closed form because
every sample is one of three kinds:

* ``v >= operate`` -- the chip is on after this sample, regardless of the
  previous state (``operate > brownout``, so the stay-on condition also
  holds);
* ``v < brownout`` -- the chip is off after this sample, regardless of the
  previous state;
* otherwise -- the state holds.

The mask at sample ``t`` is therefore the kind of the most recent
*decisive* sample at or before ``t`` (off when none exists: the chip
starts unpowered). A forward-fill of decisive indices via
``np.maximum.accumulate`` answers that in a handful of vector operations.
"""

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.context import current_obs


def hysteresis_mask_batch(
    voltage_traces: np.ndarray,
    operate_voltage_v: float,
    brownout_voltage_v: float,
) -> np.ndarray:
    """Boolean operating mask(s) for storage-voltage trace(s).

    Args:
        voltage_traces: Shape ``(T,)`` or ``(B, T)`` storage voltages.
            Floating dtypes are preserved (float32 stays float32);
            anything else is promoted to float64.
        operate_voltage_v: Turn-on threshold (inclusive).
        brownout_voltage_v: Stay-on threshold (inclusive); must sit below
            the operate voltage.

    Returns:
        Boolean array of the input shape, bit-identical to running the
        scalar hysteresis loop over each row.
    """
    if operate_voltage_v <= 0:
        raise ConfigurationError("operate voltage must be positive")
    if not 0 <= brownout_voltage_v < operate_voltage_v:
        raise ConfigurationError(
            "brownout voltage must be in [0, operate voltage)"
        )
    staged = np.asarray(voltage_traces)
    if staged.dtype.kind != "f":
        staged = staged.astype(np.float64)
    if staged.ndim == 0:
        staged = staged.reshape(1, 1)
    squeeze = staged.ndim == 1
    if squeeze:
        staged = staged.reshape(1, -1)
    if staged.ndim != 2:
        raise ValueError("voltage traces must be 1-D or 2-D")
    if staged.shape[1] == 0:
        mask = np.zeros(staged.shape, dtype=bool)
        return mask.reshape(-1) if squeeze else mask

    n_samples = staged.shape[1]
    turns_on = staged >= operate_voltage_v
    turns_off = staged < brownout_voltage_v
    decisive = turns_on | turns_off
    indices = np.arange(n_samples)
    last_decisive = np.maximum.accumulate(
        np.where(decisive, indices, -1), axis=1
    )
    mask = np.take_along_axis(
        turns_on, np.maximum(last_decisive, 0), axis=1
    ) & (last_decisive >= 0)
    current_obs().metrics.counter("kernels.hysteresis_samples").inc(
        staged.size
    )
    return mask.reshape(-1) if squeeze else mask
