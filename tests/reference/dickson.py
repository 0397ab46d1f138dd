"""Carrier-level Dickson charge-pump simulation: the Eq. 1 oracle.

The library reasons about the rectifier through the Eq. 1
abstraction ``V_DC = N (V_s - V_th)`` evaluated on the RF *envelope*. This
module simulates the actual circuit of Fig. 1 at carrier resolution --
coupling capacitors, stage diodes, the storage capacitor -- so the
abstraction can be validated: the pump's steady-state output should
approach Eq. 1, the negative/positive half-cycle mechanics should behave
as Sec. 2.1 describes, and below-threshold drive should harvest nothing.

It is intentionally slow (tens of carrier samples per cycle): a
per-sample loop over explicit diode currents, independent of the envelope
abstraction it checks.

Stage counting: one :class:`DicksonPump` cell is the two-diode Fig. 1
doubler. The simulated steady state converges to ``(n_cells + 1) *
(V_s - V_th)`` -- i.e. Eq. 1 with N equal to the number of rectifying
diode stages -- which the tests assert against
:func:`repro.harvester.rectifier.ideal_output_voltage`.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import DIODE_THRESHOLD_V
from repro.errors import ConfigurationError
from tests.reference.rectifier import DiodeModel, IdealDiode, ThresholdDiode


def _scalar_current(diode: DiodeModel):
    """Pure-float ``I(V)`` of a piecewise-linear diode.

    The inner loop runs once per sample and stage, so it avoids numpy
    round-trips; the arithmetic is the one :meth:`ThresholdDiode.current`
    applies (an ideal diode is the zero-threshold case).
    """
    if not isinstance(diode, (IdealDiode, ThresholdDiode)):
        raise ConfigurationError(
            f"the pump simulates ideal or threshold diodes, got {diode!r}"
        )
    threshold = diode.forward_drop()
    conductance = diode.on_conductance_s

    def current(voltage: float) -> float:
        excess = voltage - threshold
        return excess * conductance if excess > 0.0 else 0.0

    return current


@dataclass
class PumpState:
    """Internal voltages of the pump after a simulation run.

    Attributes:
        coupling_v: Voltage across each stage's coupling capacitor (C1 of
            Fig. 1 and its per-stage analogues).
        output_v: Voltage across the storage capacitor (C2 / V_DC).
    """

    coupling_v: np.ndarray
    output_v: float


class DicksonPump:
    """An N-stage voltage multiplier simulated at carrier resolution.

    Each stage is the Fig. 1 cell: during the input's negative half-cycle
    diode D1 charges the coupling capacitor; during the positive half-cycle
    diode D2 forwards the boosted voltage toward the output. The model
    integrates the diode currents explicitly, so threshold drops, partial
    conduction angles, and charging transients all emerge rather than
    being assumed.

    Args:
        n_stages: Multiplier stages N.
        diode: Ideal or threshold diode (defaults to the 0.3 V hard
            threshold).
        coupling_capacitance_f: Per-stage coupling capacitor.
        storage_capacitance_f: Output storage capacitor.
        load_resistance_ohms: DC load; ``None`` for open circuit.
    """

    def __init__(
        self,
        n_stages: int = 1,
        diode: Optional[DiodeModel] = None,
        coupling_capacitance_f: float = 10e-12,
        storage_capacitance_f: float = 50e-12,
        load_resistance_ohms: Optional[float] = None,
    ):
        if n_stages < 1:
            raise ConfigurationError(f"need >= 1 stage, got {n_stages}")
        if coupling_capacitance_f <= 0 or storage_capacitance_f <= 0:
            raise ConfigurationError("capacitances must be positive")
        if load_resistance_ohms is not None and load_resistance_ohms <= 0:
            raise ConfigurationError("load resistance must be positive")
        self.n_stages = int(n_stages)
        self.diode = diode if diode is not None else ThresholdDiode(
            DIODE_THRESHOLD_V, on_conductance_s=5e-3
        )
        self._current = _scalar_current(self.diode)
        self.coupling_capacitance_f = float(coupling_capacitance_f)
        self.storage_capacitance_f = float(storage_capacitance_f)
        self.load_resistance_ohms = load_resistance_ohms
        self.reset()

    def reset(self) -> None:
        self._coupling = np.zeros(self.n_stages)
        self._output = 0.0

    @property
    def state(self) -> PumpState:
        return PumpState(coupling_v=self._coupling.copy(), output_v=self._output)

    def simulate(self, v_in: np.ndarray, dt_s: float) -> np.ndarray:
        """Integrate the pump over an RF voltage waveform.

        Args:
            v_in: Instantaneous (carrier-resolution) input voltage.
            dt_s: Sample spacing; must resolve the carrier (>= ~20
                samples per cycle for stable integration).

        Returns:
            Storage-capacitor voltage after each sample.
        """
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        waveform = np.asarray(v_in, dtype=float)
        if waveform.ndim != 1 or waveform.size == 0:
            raise ValueError("v_in must be a non-empty 1-D array")

        coupling = self._coupling
        output = self._output
        trace = np.empty(waveform.size)
        c_couple = self.coupling_capacitance_f
        c_store = self.storage_capacitance_f

        for index, vin in enumerate(waveform):
            # Stage cascade: stage k's internal node swings with the input
            # polarity plus the charge stored on its coupling capacitor
            # and the DC level established by the previous stages.
            previous_dc = 0.0
            for stage in range(self.n_stages):
                node = vin + coupling[stage] + previous_dc
                # D1: charges the coupling cap while the node is below the
                # previous stage's DC level (the negative half-cycle path).
                d1_current = self._current(previous_dc - node)
                coupling[stage] += d1_current * dt_s / c_couple
                node = vin + coupling[stage] + previous_dc
                # D2: forwards charge to the output when the boosted node
                # exceeds it (positive half-cycle path). Intermediate
                # stages feed the next stage's DC reference instead.
                target = output if stage == self.n_stages - 1 else (
                    previous_dc + coupling[stage]
                )
                d2_current = self._current(node - target)
                if stage == self.n_stages - 1:
                    output += d2_current * dt_s / c_store
                    coupling[stage] -= d2_current * dt_s / c_couple
                previous_dc += max(coupling[stage], 0.0)
            if self.load_resistance_ohms is not None and output > 0:
                output -= (
                    output / self.load_resistance_ohms * dt_s / c_store
                )
            output = max(0.0, output)
            trace[index] = output

        self._coupling = coupling
        self._output = output
        return trace

    def steady_state_output(
        self,
        amplitude_v: float,
        carrier_hz: float = 10e6,
        n_cycles: int = 400,
        samples_per_cycle: int = 40,
    ) -> float:
        """Drive the pump with a CW tone until it settles; return V_DC.

        The carrier frequency only sets the integration scale -- a 10 MHz
        tone keeps the run short while the capacitor ratios stay realistic.
        """
        if amplitude_v < 0:
            raise ValueError("amplitude must be non-negative")
        self.reset()
        dt = 1.0 / (carrier_hz * samples_per_cycle)
        t = np.arange(n_cycles * samples_per_cycle) * dt
        waveform = amplitude_v * np.sin(2.0 * np.pi * carrier_hz * t)
        trace = self.simulate(waveform, dt)
        return float(trace[-1])
