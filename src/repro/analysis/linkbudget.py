"""Itemized link budgets for the IVN downlink power path.

Answers the question every deployment starts with: *where do the dB go*
between the power amplifier and the rectifier output? The budget chains
the same models the simulation uses -- EIRP, free-space spreading, the
air-tissue boundary, exponential tissue loss, aperture capture, matching,
rectification -- and reports each stage so that design changes (more
antennas, a different band, a bigger tag) can be attributed precisely.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis.stats import to_db, watts_to_dbm
from repro.constants import DIODE_THRESHOLD_V
from repro.em.layers import LayeredPath
from repro.em.media import AIR, Medium
from repro.em.propagation import free_space_field_amplitude
from repro.errors import ConfigurationError
from repro.harvester.tag_power import HarvesterFrontEnd
from repro.sensors.tags import TagSpec


@dataclass(frozen=True)
class BudgetLine:
    """One stage of the budget.

    Attributes:
        stage: Human-readable stage name.
        delta_db: Gain (+) or loss (-) contributed by this stage.
        running_dbm: Power level after the stage (dBm), when meaningful.
        note: Optional explanatory detail.
    """

    stage: str
    delta_db: float
    running_dbm: Optional[float] = None
    note: str = ""


@dataclass
class LinkBudget:
    """A complete downlink budget to one sensor.

    Attributes:
        lines: The per-stage breakdown.
        available_power_dbm: RF power available to the rectifier.
        input_voltage_v: Rectifier input amplitude V_s.
        threshold_voltage_v: The tag's minimum V_s for power-up.
        margin_db: Voltage margin over the power-up minimum, in dB
            (power basis); negative means the sensor stays dark.
    """

    lines: List[BudgetLine]
    available_power_dbm: float
    input_voltage_v: float
    threshold_voltage_v: float

    @property
    def margin_db(self) -> float:
        if self.input_voltage_v <= 0:
            return -math.inf
        return 20.0 * math.log10(
            self.input_voltage_v / self.threshold_voltage_v
        )

    @property
    def powers_up(self) -> bool:
        return self.input_voltage_v >= self.threshold_voltage_v

    def render(self) -> str:
        width = max(len(line.stage) for line in self.lines) + 2
        rows = ["Link budget (downlink power path)"]
        for line in self.lines:
            level = (
                f"{line.running_dbm:8.1f} dBm"
                if line.running_dbm is not None
                else " " * 12
            )
            note = f"  {line.note}" if line.note else ""
            rows.append(
                f"  {line.stage:<{width}s} {line.delta_db:+7.1f} dB  {level}{note}"
            )
        rows.append(
            f"  => V_s = {self.input_voltage_v:.3f} V vs minimum "
            f"{self.threshold_voltage_v:.3f} V  (margin {self.margin_db:+.1f} dB, "
            f"{'POWERS UP' if self.powers_up else 'dark'})"
        )
        return "\n".join(rows)


def downlink_budget(
    tag: TagSpec,
    eirp_per_branch_w: float,
    n_antennas: int,
    air_distance_m: float,
    tissue_path: LayeredPath,
    medium_at_tag: Medium,
    frequency_hz: float = 915e6,
    peak_alignment: float = 0.8,
    orientation_gain: float = 1.0,
) -> LinkBudget:
    """Build the itemized budget for one deployment geometry.

    Args:
        tag: The sensor's tag model.
        eirp_per_branch_w: Radiated EIRP per beamformer branch.
        n_antennas: Beamformer size; CIB's peak contributes
            ``(n * peak_alignment)^2`` of power gain.
        air_distance_m: Antenna-to-body distance.
        tissue_path: Layered tissue stack to the sensor.
        medium_at_tag: Medium surrounding the tag (Eq. 3's impedance).
        peak_alignment: Expected envelope-peak fraction of the ideal N
            (the E[max Y]/N of the frequency plan; ~0.8 for good sets).
        orientation_gain: Amplitude factor for tag orientation.
    """
    if not 0 < eirp_per_branch_w < math.inf:
        raise ConfigurationError(
            f"EIRP must be positive and finite, got {eirp_per_branch_w}"
        )
    if n_antennas < 1:
        raise ConfigurationError("need at least one antenna")
    if not 0 < peak_alignment <= 1:
        raise ConfigurationError("peak alignment must be in (0, 1]")
    if not 0 < orientation_gain <= 1:
        raise ConfigurationError("orientation gain must be in (0, 1]")

    lines: List[BudgetLine] = []
    eirp_dbm = watts_to_dbm(eirp_per_branch_w)
    lines.append(
        BudgetLine("EIRP per branch", 0.0, eirp_dbm, "PA + antenna gain")
    )

    cib_gain = (n_antennas * peak_alignment) ** 2
    cib_db = to_db(cib_gain)
    running = eirp_dbm + cib_db
    lines.append(
        BudgetLine(
            f"CIB peak gain ({n_antennas} antennas)",
            cib_db,
            running,
            f"(N x {peak_alignment:.2f})^2 at the envelope peak",
        )
    )

    # Free-space spreading to the body surface, expressed as the change in
    # equivalent isotropic power density captured by a fixed aperture.
    wavelength = 299792458.0 / frequency_hz
    spreading_db = to_db((wavelength / (4 * math.pi * air_distance_m)) ** 2)
    running += spreading_db
    lines.append(
        BudgetLine(
            f"free-space path ({air_distance_m:.2f} m)",
            spreading_db,
            running,
            "1/r^2 spreading (isotropic-aperture basis)",
        )
    )

    tissue_amplitude = tissue_path.amplitude_factor(frequency_hz)
    tissue_db = (
        to_db(tissue_amplitude**2) if tissue_amplitude > 0 else -math.inf
    )
    running += tissue_db
    depth_cm = tissue_path.total_depth_m * 100
    lines.append(
        BudgetLine(
            f"tissue stack ({depth_cm:.1f} cm)",
            tissue_db,
            running,
            "boundary transmittance + exponential loss",
        )
    )

    front_end = HarvesterFrontEnd(
        antenna=tag.antenna,
        chip_resistance_ohms=tag.chip_resistance_ohms,
        liquid_aperture_factor=tag.liquid_aperture_factor,
    )
    ideal_aperture = tag.antenna.effective_aperture_m2(frequency_hz) / (
        tag.antenna.aperture_efficiency
    )
    actual_aperture = front_end.effective_aperture_in(
        medium_at_tag, frequency_hz
    )
    isotropic_aperture = wavelength**2 / (4 * math.pi)
    aperture_db = to_db(actual_aperture / isotropic_aperture)
    running += aperture_db
    lines.append(
        BudgetLine(
            "tag aperture (gain, efficiency, detuning)",
            aperture_db,
            running,
            f"A_eff = {actual_aperture * 1e4:.2f} cm^2",
        )
    )
    del ideal_aperture

    orientation_db = to_db(orientation_gain**2) if orientation_gain < 1 else 0.0
    running += orientation_db
    lines.append(
        BudgetLine("orientation/polarization", orientation_db, running)
    )

    # Convert the final power level into the rectifier input voltage.
    # Reconstruct the physical field at the sensor to stay consistent with
    # the simulation's exact propagation math.
    field = (
        free_space_field_amplitude(
            eirp_per_branch_w, air_distance_m
        )
        * n_antennas
        * peak_alignment
        * tissue_amplitude
        * orientation_gain
    )
    available_w = front_end.available_power_w(
        field, medium_at_tag, frequency_hz
    )
    voltage = front_end.voltage_from_power(available_w)
    available_dbm = (
        watts_to_dbm(available_w) if available_w > 0 else -math.inf
    )
    lines.append(
        BudgetLine(
            "available at rectifier",
            available_dbm - running,
            available_dbm,
            "medium impedance + matching",
        )
    )
    return LinkBudget(
        lines=lines,
        available_power_dbm=available_dbm,
        input_voltage_v=voltage,
        threshold_voltage_v=tag.minimum_input_voltage_v(),
    )


def antennas_required(
    tag: TagSpec,
    eirp_per_branch_w: float,
    air_distance_m: float,
    tissue_path: LayeredPath,
    medium_at_tag: Medium,
    frequency_hz: float = 915e6,
    peak_alignment: float = 0.8,
    max_antennas: int = 64,
) -> Optional[int]:
    """Smallest array that powers the tag in this geometry (None if > max)."""
    for n_antennas in range(1, max_antennas + 1):
        budget = downlink_budget(
            tag,
            eirp_per_branch_w,
            n_antennas,
            air_distance_m,
            tissue_path,
            medium_at_tag,
            frequency_hz,
            peak_alignment,
        )
        if budget.powers_up:
            return n_antennas
    return None
