"""Diode models (Section 2.1 and Fig. 2).

Three I-V characteristics with increasing realism:

* :class:`IdealDiode` -- conducts for any positive voltage (the left curve
  of Fig. 2).
* :class:`ThresholdDiode` -- conducts only above V_th (the right curve of
  Fig. 2 and the model behind Eq. 1); this is the abstraction the paper's
  threshold-effect analysis uses.
* :class:`ShockleyDiode` -- the exponential physical law, for validating
  that the threshold abstraction is a faithful simplification.
"""

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.constants import DIODE_THRESHOLD_V
from repro.errors import ConfigurationError


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
