"""Time-domain harvester chain: diodes, the stepped rectifier, power-up time.

Every paper path decides power-up from the peak V_s against Eq. 1's bound
(:meth:`repro.harvester.tag_power.TagPowerModel.powers_up_at_peak`), and
the wake-up sweep integrates the rectifier with
:func:`repro.kernels.rectifier_batch`. This module keeps the models those
replaced, as oracles:

* the diode I-V laws of Fig. 2 (:class:`IdealDiode`,
  :class:`ThresholdDiode`, :class:`ShockleyDiode`), which the carrier-level
  pump in ``tests/reference/dickson.py`` drives;
* :class:`MultiStageRectifier`, the per-sample recurrence
  ``rectifier_batch`` reproduces bit for bit;
* :func:`evaluate_envelope`, the storage-capacitor power-up chain the
  per-trial wake-up reference (``tests/reference/wakeup.py``) reads its
  latency from.
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import DEFAULT_RECTIFIER_STAGES, DIODE_THRESHOLD_V
from repro.errors import ConfigurationError
from repro.harvester.rectifier import conduction_angle_rad


class DiodeModel(ABC):
    """Interface: a diode's current response and conduction behaviour."""

    @abstractmethod
    def current(self, voltage: np.ndarray) -> np.ndarray:
        """Diode current (A) as a function of the voltage across it (V)."""

    @abstractmethod
    def conducts(self, voltage: np.ndarray) -> np.ndarray:
        """Boolean mask: where the diode meaningfully conducts."""

    @abstractmethod
    def forward_drop(self) -> float:
        """Effective voltage lost across the diode when conducting."""


class IdealDiode(DiodeModel):
    """Zero-threshold rectifier with a fixed on-conductance."""

    def __init__(self, on_conductance_s: float = 1.0):
        if on_conductance_s <= 0:
            raise ConfigurationError(
                f"conductance must be positive, got {on_conductance_s}"
            )
        self.on_conductance_s = float(on_conductance_s)

    def current(self, voltage: np.ndarray) -> np.ndarray:
        voltage = np.asarray(voltage, dtype=float)
        return np.where(voltage > 0.0, voltage * self.on_conductance_s, 0.0)

    def conducts(self, voltage: np.ndarray) -> np.ndarray:
        return np.asarray(voltage, dtype=float) > 0.0

    def forward_drop(self) -> float:
        return 0.0


class ThresholdDiode(DiodeModel):
    """Hard-threshold diode: off below V_th, linear above (Fig. 2 right).

    This is the model behind Eq. 1, ``V_DC = N (V_s - V_th)``: each
    rectification stage loses one threshold drop.
    """

    def __init__(
        self,
        threshold_v: float = DIODE_THRESHOLD_V,
        on_conductance_s: float = 1.0,
    ):
        if threshold_v < 0:
            raise ConfigurationError(
                f"threshold must be non-negative, got {threshold_v}"
            )
        if on_conductance_s <= 0:
            raise ConfigurationError(
                f"conductance must be positive, got {on_conductance_s}"
            )
        self.threshold_v = float(threshold_v)
        self.on_conductance_s = float(on_conductance_s)

    def current(self, voltage: np.ndarray) -> np.ndarray:
        voltage = np.asarray(voltage, dtype=float)
        excess = voltage - self.threshold_v
        return np.where(excess > 0.0, excess * self.on_conductance_s, 0.0)

    def conducts(self, voltage: np.ndarray) -> np.ndarray:
        return np.asarray(voltage, dtype=float) > self.threshold_v

    def forward_drop(self) -> float:
        return self.threshold_v


class ShockleyDiode(DiodeModel):
    """Exponential diode law ``I = I_s (exp(V / n V_T) - 1)``.

    The smooth physical law, against which the tests check that the
    threshold abstraction is a faithful simplification.

    Args:
        saturation_current_a: Reverse saturation current I_s.
        ideality: Ideality factor n (1-2 for practical junctions).
        thermal_voltage_v: V_T = kT/q, ~25.85 mV at room temperature.
        conduction_current_a: Current level treated as "conducting" when
            mapping the smooth law onto the threshold abstraction.
    """

    def __init__(
        self,
        saturation_current_a: float = 1e-8,
        ideality: float = 1.05,
        thermal_voltage_v: float = 0.02585,
        conduction_current_a: float = 1e-4,
    ):
        if saturation_current_a <= 0:
            raise ConfigurationError("saturation current must be positive")
        if ideality < 1.0:
            raise ConfigurationError(f"ideality must be >= 1, got {ideality}")
        if thermal_voltage_v <= 0:
            raise ConfigurationError("thermal voltage must be positive")
        if conduction_current_a <= 0:
            raise ConfigurationError("conduction current must be positive")
        self.saturation_current_a = float(saturation_current_a)
        self.ideality = float(ideality)
        self.thermal_voltage_v = float(thermal_voltage_v)
        self.conduction_current_a = float(conduction_current_a)

    def current(self, voltage: np.ndarray) -> np.ndarray:
        voltage = np.asarray(voltage, dtype=float)
        exponent = np.clip(
            voltage / (self.ideality * self.thermal_voltage_v), None, 80.0
        )
        return self.saturation_current_a * (np.exp(exponent) - 1.0)

    def conducts(self, voltage: np.ndarray) -> np.ndarray:
        return self.current(voltage) >= self.conduction_current_a

    def forward_drop(self) -> float:
        """Voltage at which the diode reaches the conduction current.

        This is the smooth model's equivalent of V_th; with the defaults it
        lands in the 0.2-0.4 V range the paper cites for IC processes.
        """
        return (
            self.ideality
            * self.thermal_voltage_v
            * math.log(self.conduction_current_a / self.saturation_current_a + 1.0)
        )


class MultiStageRectifier:
    """Time-stepped N-stage rectifier charging a storage capacitor.

    The model treats the cascade as a DC source of open-circuit voltage
    ``N (e(t) - V_th)`` (Eq. 1 evaluated on the instantaneous envelope)
    behind a source resistance, feeding the storage capacitor through the
    stage diodes (which block reverse flow). A load resistance models the
    chip's quiescent draw.

    Args:
        n_stages: Multiplier stages N.
        diode: Diode model supplying the threshold drop.
        source_resistance_ohms: Effective charging resistance.
        storage_capacitance_f: Storage capacitor C.
        load_resistance_ohms: DC load (None = open circuit).
    """

    def __init__(
        self,
        n_stages: int = DEFAULT_RECTIFIER_STAGES,
        diode: Optional[DiodeModel] = None,
        source_resistance_ohms: float = 5e3,
        storage_capacitance_f: float = 100e-12,
        load_resistance_ohms: Optional[float] = 1e6,
    ):
        if n_stages < 1:
            raise ConfigurationError(f"need at least one stage, got {n_stages}")
        if source_resistance_ohms <= 0:
            raise ConfigurationError("source resistance must be positive")
        if storage_capacitance_f <= 0:
            raise ConfigurationError("storage capacitance must be positive")
        if load_resistance_ohms is not None and load_resistance_ohms <= 0:
            raise ConfigurationError("load resistance must be positive")
        self.n_stages = int(n_stages)
        self.diode = diode if diode is not None else ThresholdDiode()
        self.source_resistance_ohms = float(source_resistance_ohms)
        self.storage_capacitance_f = float(storage_capacitance_f)
        self.load_resistance_ohms = load_resistance_ohms
        self.capacitor_voltage_v = 0.0

    @property
    def threshold_v(self) -> float:
        """Per-stage diode drop."""
        return self.diode.forward_drop()

    def reset(self) -> None:
        """Discharge the storage capacitor."""
        self.capacitor_voltage_v = 0.0

    def open_circuit_voltage(self, envelope_v: np.ndarray) -> np.ndarray:
        """Eq. 1 evaluated on an envelope: ``N max(0, e - V_th)``."""
        envelope = np.asarray(envelope_v, dtype=float)
        return self.n_stages * np.maximum(0.0, envelope - self.threshold_v)

    def simulate(self, envelope_v: np.ndarray, dt_s: float) -> np.ndarray:
        """Integrate the capacitor voltage over an envelope trace.

        Args:
            envelope_v: RF envelope amplitude at the rectifier input (V).
            dt_s: Sample spacing of the envelope.

        Returns:
            Capacitor voltage after each sample (same length as input).
            The rectifier keeps its state across calls, so consecutive
            envelope blocks integrate seamlessly.
        """
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        envelope = np.asarray(envelope_v, dtype=float)
        if envelope.ndim != 1:
            raise ValueError("envelope must be 1-D")
        v_oc = self.open_circuit_voltage(envelope)
        trace = np.empty(envelope.size)
        v_cap = self.capacitor_voltage_v
        tau_charge = self.source_resistance_ohms * self.storage_capacitance_f
        for index in range(envelope.size):
            charge_current = max(0.0, v_oc[index] - v_cap) / (
                self.source_resistance_ohms
            )
            load_current = (
                v_cap / self.load_resistance_ohms
                if self.load_resistance_ohms is not None
                else 0.0
            )
            dv = (charge_current - load_current) * dt_s / (
                self.storage_capacitance_f
            )
            # Stability clamp for coarse steps: never overshoot the source.
            if dt_s > tau_charge and v_cap + dv > v_oc[index] > v_cap:
                v_cap = v_oc[index]
            else:
                v_cap = max(0.0, v_cap + dv)
            trace[index] = v_cap
        self.capacitor_voltage_v = v_cap
        return trace

    def steady_state_voltage(self, envelope_amplitude_v: float) -> float:
        """DC operating point for a constant envelope and the DC load."""
        v_oc = float(self.open_circuit_voltage(np.array([envelope_amplitude_v]))[0])
        if self.load_resistance_ohms is None:
            return v_oc
        divider = self.load_resistance_ohms / (
            self.load_resistance_ohms + self.source_resistance_ohms
        )
        return v_oc * divider


@dataclass
class PowerManager:
    """First power-up of a chip over a storage-voltage trace.

    Attributes:
        operate_voltage_v: Storage voltage required to start operating.
    """

    operate_voltage_v: float = 1.8

    def __post_init__(self) -> None:
        if self.operate_voltage_v <= 0:
            raise ConfigurationError("operate voltage must be positive")

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


@dataclass
class PowerUpResult:
    """Outcome of a time-domain power-up evaluation.

    Attributes:
        powered: Whether the chip reached its operating point.
        peak_input_voltage_v: Largest rectifier input amplitude seen.
        peak_storage_voltage_v: Largest storage voltage reached.
        conduction_angle_rad: Conduction angle at the envelope peak.
        time_to_power_up_s: Latency to first power-up (None if never).
    """

    powered: bool
    peak_input_voltage_v: float
    peak_storage_voltage_v: float
    conduction_angle_rad: float
    time_to_power_up_s: Optional[float]


def evaluate_envelope(
    model, input_voltage_envelope_v: np.ndarray, dt_s: float
) -> PowerUpResult:
    """Run the rectifier over a V_s(t) trace and apply power management.

    Args:
        model: A :class:`repro.harvester.tag_power.TagPowerModel` (its
            ``n_stages``, ``threshold_v`` and ``operate_voltage_v``).
        input_voltage_envelope_v: Rectifier input amplitude over time.
        dt_s: Envelope sample spacing.
    """
    envelope = np.asarray(input_voltage_envelope_v, dtype=float)
    if envelope.ndim != 1 or envelope.size == 0:
        raise ValueError("envelope must be a non-empty 1-D array")
    rectifier = MultiStageRectifier(
        n_stages=model.n_stages, diode=ThresholdDiode(model.threshold_v)
    )
    manager = PowerManager(model.operate_voltage_v)
    trace = rectifier.simulate(envelope, dt_s)
    peak_input = float(np.max(envelope))
    return PowerUpResult(
        powered=manager.ever_powers_up(trace),
        peak_input_voltage_v=peak_input,
        peak_storage_voltage_v=float(np.max(trace)),
        conduction_angle_rad=conduction_angle_rad(peak_input, model.threshold_v),
        time_to_power_up_s=manager.time_to_power_up_s(trace, dt_s),
    )
