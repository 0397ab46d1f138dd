"""Batched time-stepped rectifier integration.

:func:`rectifier_batch` integrates the
:class:`repro.harvester.rectifier.MultiStageRectifier` recurrence over a
``(B, T)`` block of envelope traces, looping only over the time axis while
every per-sample operation runs vectorized across the batch. The loop
replicates the scalar reference loop operation for operation, so its
output is bit-identical to calling ``MultiStageRectifier.simulate`` on
each row.

The recurrence per sample (the pinned reference in
``harvester/rectifier.py``)::

    charge = max(0, v_oc[t] - v) / Rs
    load   = v / Rl                      (0 when open circuit)
    dv     = (charge - load) * dt / C
    v      = v_oc[t]  if dt > Rs*C and v + dv > v_oc[t] > v   (coarse clamp)
             max(0, v + dv)  otherwise
"""

from typing import Optional, Union

import numpy as np

from repro.constants import DEFAULT_RECTIFIER_STAGES, DIODE_THRESHOLD_V
from repro.errors import ConfigurationError
from repro.obs.context import current_obs


def _validate(
    dt_s: float,
    n_stages: int,
    threshold_v: float,
    source_resistance_ohms: float,
    storage_capacitance_f: float,
    load_resistance_ohms: Optional[float],
) -> None:
    if dt_s <= 0:
        raise ValueError(f"dt must be positive, got {dt_s}")
    if n_stages < 1:
        raise ConfigurationError(f"need at least one stage, got {n_stages}")
    if threshold_v < 0:
        raise ConfigurationError("threshold must be non-negative")
    if source_resistance_ohms <= 0:
        raise ConfigurationError("source resistance must be positive")
    if storage_capacitance_f <= 0:
        raise ConfigurationError("storage capacitance must be positive")
    if load_resistance_ohms is not None and load_resistance_ohms <= 0:
        raise ConfigurationError("load resistance must be positive")


def rectifier_batch(
    envelopes_v: np.ndarray,
    dt_s: float,
    n_stages: int = DEFAULT_RECTIFIER_STAGES,
    threshold_v: float = DIODE_THRESHOLD_V,
    source_resistance_ohms: float = 5e3,
    storage_capacitance_f: float = 100e-12,
    load_resistance_ohms: Optional[float] = 1e6,
    initial_voltage_v: Union[float, np.ndarray] = 0.0,
) -> np.ndarray:
    """Storage-capacitor voltage traces for a block of envelope traces.

    Args:
        envelopes_v: Envelope amplitudes, shape ``(T,)`` or ``(B, T)``.
            Floating dtypes are preserved (float32 stays float32);
            anything else is promoted to float64.
        dt_s: Sample spacing of the envelopes.
        n_stages / threshold_v: Eq. 1 parameters (``v_oc = N max(0, e - V_th)``).
        source_resistance_ohms / storage_capacitance_f /
            load_resistance_ohms: The rectifier's charging dynamics;
            defaults match :class:`~repro.harvester.rectifier.MultiStageRectifier`.
        initial_voltage_v: Capacitor voltage before the first sample;
            scalar or per-row ``(B,)``.

    Returns:
        Capacitor voltage after each sample, same shape as the input.
    """
    _validate(
        dt_s, n_stages, threshold_v, source_resistance_ohms,
        storage_capacitance_f, load_resistance_ohms,
    )
    env = np.asarray(envelopes_v)
    if env.dtype.kind != "f":
        env = env.astype(np.float64)
    if env.ndim == 0:
        env = env.reshape(1, 1)
    squeeze = env.ndim == 1
    if squeeze:
        env = env.reshape(1, -1)
    if env.ndim != 2 or env.size == 0:
        raise ValueError("envelopes must be non-empty 1-D or 2-D")
    n_rows, n_samples = env.shape
    v0 = np.broadcast_to(
        np.asarray(initial_voltage_v, dtype=env.dtype), (n_rows,)
    ).copy()

    zero = np.asarray(0.0, dtype=env.dtype)
    v_oc = n_stages * np.maximum(zero, env - threshold_v)
    trace = _step(
        v_oc, v0, dt_s, source_resistance_ohms,
        storage_capacitance_f, load_resistance_ohms,
    )
    current_obs().metrics.counter("kernels.rectifier_samples").inc(env.size)
    return trace.reshape(-1) if squeeze else trace


def _step(
    v_oc: np.ndarray,
    v0: np.ndarray,
    dt_s: float,
    rs: float,
    c_store: float,
    rl: Optional[float],
) -> np.ndarray:
    """The reference recurrence, vectorized across rows per time step."""
    n_rows, n_samples = v_oc.shape
    dtype = v_oc.dtype
    # Time-major layout keeps each step's slice contiguous.
    voc_t = np.ascontiguousarray(v_oc.T)
    trace = np.empty((n_samples, n_rows), dtype=dtype)
    v = v0.copy()
    tau_charge = rs * c_store
    coarse = dt_s > tau_charge
    work = np.empty(n_rows, dtype=dtype)
    load = np.empty(n_rows, dtype=dtype)
    vnew = np.empty(n_rows, dtype=dtype)
    for index in range(n_samples):
        voc = voc_t[index]
        np.subtract(voc, v, out=work)
        np.maximum(0.0, work, out=work)
        np.divide(work, rs, out=work)  # charge current
        if rl is not None:
            np.divide(v, rl, out=load)
            np.subtract(work, load, out=work)
        else:
            np.subtract(work, 0.0, out=work)
        np.multiply(work, dt_s, out=work)
        np.divide(work, c_store, out=work)  # dv
        np.add(v, work, out=vnew)
        if coarse:
            clamp = (vnew > voc) & (voc > v)
            np.maximum(0.0, vnew, out=vnew)
            np.copyto(vnew, voc, where=clamp)
        else:
            np.maximum(0.0, vnew, out=vnew)
        v, vnew = vnew, v
        trace[index] = v
    return np.ascontiguousarray(trace.T)
