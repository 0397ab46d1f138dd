"""Storage and power management for battery-free chips.

An RFID-class chip wakes when its storage voltage reaches an operating
threshold and browns out when it sags below a minimum -- a hysteresis that,
combined with CIB's once-per-period peaks, produces the duty-cycled
operation of Sec. 2.3 ("accumulate sufficient energy before communication
or actuation").
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class PowerManager:
    """Wake/brown-out hysteresis over a storage-voltage trace.

    Attributes:
        operate_voltage_v: Storage voltage required to start operating.
        brownout_voltage_v: Voltage below which an operating chip dies.
    """

    operate_voltage_v: float = 1.8
    brownout_voltage_v: float = 1.4

    def __post_init__(self) -> None:
        if self.operate_voltage_v <= 0:
            raise ConfigurationError("operate voltage must be positive")
        if not 0 <= self.brownout_voltage_v < self.operate_voltage_v:
            raise ConfigurationError(
                "brownout voltage must be in [0, operate voltage)"
            )

    def powered_mask(self, voltage_trace: np.ndarray) -> np.ndarray:
        """Boolean mask of samples where the chip is operating.

        Implements the hysteresis: the chip turns on when the trace crosses
        ``operate_voltage_v`` upward and stays on until it falls below
        ``brownout_voltage_v``. Delegates to the closed-form kernel; the
        sample-by-sample recurrence it is pinned to lives in
        ``tests/reference/``.
        """
        from repro.kernels import hysteresis_mask_batch

        trace = np.asarray(voltage_trace, dtype=float)
        return hysteresis_mask_batch(
            trace, self.operate_voltage_v, self.brownout_voltage_v
        )

    def ever_powers_up(self, voltage_trace: np.ndarray) -> bool:
        """Whether the chip reaches its operating voltage at any point."""
        trace = np.asarray(voltage_trace, dtype=float)
        return bool(np.any(trace >= self.operate_voltage_v))

    def time_to_power_up_s(
        self, voltage_trace: np.ndarray, dt_s: float
    ) -> Optional[float]:
        """Seconds until first power-up, or ``None`` if it never happens."""
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        trace = np.asarray(voltage_trace, dtype=float)
        indices = np.nonzero(trace >= self.operate_voltage_v)[0]
        if indices.size == 0:
            return None
        return float(indices[0]) * dt_s

    def duty_cycle(self, voltage_trace: np.ndarray) -> float:
        """Fraction of the trace the chip spends operating."""
        mask = self.powered_mask(voltage_trace)
        if mask.size == 0:
            return 0.0
        return float(np.mean(mask))


def stored_energy_j(capacitance_f: float, voltage_v: float) -> float:
    """Energy in the storage capacitor, ``C V^2 / 2``."""
    if capacitance_f <= 0:
        raise ValueError(f"capacitance must be positive, got {capacitance_f}")
    if voltage_v < 0:
        raise ValueError(f"voltage must be non-negative, got {voltage_v}")
    return 0.5 * capacitance_f * voltage_v**2


def operations_per_wakeup(
    capacitance_f: float,
    operate_voltage_v: float,
    brownout_voltage_v: float,
    energy_per_operation_j: float,
) -> int:
    """How many fixed-cost operations fit in one hysteresis window."""
    if energy_per_operation_j <= 0:
        raise ValueError("energy per operation must be positive")
    budget = stored_energy_j(capacitance_f, operate_voltage_v) - stored_energy_j(
        capacitance_f, brownout_voltage_v
    )
    return max(0, int(budget // energy_per_operation_j))
