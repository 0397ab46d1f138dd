"""Sensor discovery: how IVN learns a sensor exists and how strong it is.

Section 3.7's two-stage design needs a *discovery* procedure: the system
cannot ask an unpowered sensor anything, so it transmits peak-optimized
CIB periods with embedded queries and watches the out-of-band reader for a
response. Once responses arrive, the reader-side correlation quality over
repeated periods estimates the link margin, which feeds the
:class:`~repro.core.scheduler.TwoStageController`'s switch to the
conduction-angle stage.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.plan import CarrierPlan
from repro.core.scheduler import TwoStageController
from repro.errors import ConfigurationError


@dataclass
class DiscoveryObservation:
    """One CIB period's outcome during discovery.

    Attributes:
        responded: Did the reader decode the sensor this period?
        correlation: Reader preamble correlation (0 when silent).
        peak_input_voltage_v: Sensor-side peak V_s when available (a
            simulation convenience; a real system infers margin from the
            response statistics instead).
    """

    responded: bool
    correlation: float = 0.0
    peak_input_voltage_v: Optional[float] = None


@dataclass
class DiscoveryOutcome:
    """Result of a discovery scan.

    Attributes:
        found: Whether the sensor ever responded.
        periods_to_first_response: 1-based period index of first contact.
        response_rate: Fraction of periods with decoded responses.
        estimated_margin: Link margin estimate (>= 1) when found.
        observations: The raw per-period record.
    """

    found: bool
    periods_to_first_response: Optional[int]
    response_rate: float
    estimated_margin: Optional[float]
    observations: List[DiscoveryObservation] = field(default_factory=list)


class DiscoveryProcedure:
    """Scans for a sensor and estimates the link margin.

    The margin estimator uses the response *rate*: a sensor exactly at
    threshold responds only on the periods whose envelope peak happens to
    be tallest (the peak varies across periods as oscillators re-lock),
    while a sensor with margin responds every period. Mapping response
    rate r to margin ``1 / (1 - 0.8 r)`` reproduces the right ordering --
    rate 0 -> margin 1 (barely), rate 1 -> margin 5 (comfortable) --
    without needing sensor-side telemetry. When simulation-side V_s
    observations are available they refine the estimate directly.

    Args:
        plan: The discovery (peak-optimized) carrier plan.
        threshold_voltage_v: The target sensor's minimum V_s, when known
            (used only for the refined estimate).
        max_periods: Scan budget before giving up.
    """

    def __init__(
        self,
        plan: CarrierPlan,
        threshold_voltage_v: Optional[float] = None,
        max_periods: int = 30,
    ):
        if max_periods < 1:
            raise ConfigurationError("max_periods must be >= 1")
        if threshold_voltage_v is not None and threshold_voltage_v <= 0:
            raise ConfigurationError("threshold voltage must be positive")
        self.plan = plan
        self.threshold_voltage_v = threshold_voltage_v
        self.max_periods = int(max_periods)

    def scan(
        self,
        trial: Callable[[int], DiscoveryObservation],
        stop_after_responses: int = 5,
    ) -> DiscoveryOutcome:
        """Run discovery periods until enough responses (or the budget).

        Args:
            trial: Called with the period index; returns that period's
                observation (in simulation, typically wrapping
                ``IvnLink.run_trial``).
            stop_after_responses: Stop early once this many responses
                have been collected (enough to estimate the margin).
        """
        if stop_after_responses < 1:
            raise ValueError("need at least one response to stop on")
        observations: List[DiscoveryObservation] = []
        first: Optional[int] = None
        responses = 0
        for period in range(1, self.max_periods + 1):
            observation = trial(period)
            observations.append(observation)
            if observation.responded:
                responses += 1
                if first is None:
                    first = period
                if responses >= stop_after_responses:
                    break
        rate = responses / len(observations)
        return DiscoveryOutcome(
            found=responses > 0,
            periods_to_first_response=first,
            response_rate=rate,
            estimated_margin=self._estimate_margin(observations, rate),
            observations=observations,
        )

    def _estimate_margin(
        self, observations: List[DiscoveryObservation], rate: float
    ) -> Optional[float]:
        if rate == 0.0:
            return None
        voltages = [
            o.peak_input_voltage_v
            for o in observations
            if o.responded and o.peak_input_voltage_v is not None
        ]
        if voltages and self.threshold_voltage_v:
            mean_voltage = sum(voltages) / len(voltages)
            return max(1.0, mean_voltage / self.threshold_voltage_v)
        # Blind estimate from the response rate alone.
        return max(1.0, 1.0 / (1.0 - 0.8 * min(rate, 1.0)))

    def drive_two_stage(
        self,
        controller: TwoStageController,
        trial: Callable[[int], DiscoveryObservation],
        stop_after_responses: int = 5,
    ) -> DiscoveryOutcome:
        """Scan, then hand the margin to a two-stage controller.

        On success the controller transitions to its steady
        (conduction-angle) stage; on failure it stays in discovery.
        """
        outcome = self.scan(trial, stop_after_responses)
        if outcome.found and outcome.estimated_margin is not None:
            controller.observe_response(
                peak_amplitude=outcome.estimated_margin, threshold=1.0
            )
        return outcome
