"""The full IVN link: beamformer -> tissue -> sensor -> out-of-band reader.

One :meth:`IvnLink.run_trial` call simulates a complete interaction:

1. The CIB beamformer radiates its carrier plan; the blind channel
   delivers a time-varying field envelope to the sensor (Sec. 3).
2. The sensor's harvester decides power-up against its diode threshold
   (Sec. 2); a powered sensor envelope-detects the query that rides the
   envelope peak, enforcing the Eq. 7 flatness tolerance.
3. The Gen2 FSM replies with an RN16, backscattered at the sensor's BLF.
4. The out-of-band reader captures the response at 880 MHz behind its SAW
   filter, coherently averages one capture per CIB period, and applies the
   Sec. 6.2 correlation rule (success above 0.8).
"""

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.analysis.stats import dbm_to_watts
from repro.core import waveform as waveform_mod
from repro.core.optimizer import fft_grid, sparse_envelope
from repro.core.plan import CarrierPlan
from repro.em.channel import BlindChannel
from repro.em.media import Medium
from repro.em.propagation import field_scale
from repro.errors import ConfigurationError
from repro.gen2.commands import Query
from repro.gen2.decoder import DecodeResult
from repro.gen2.pie import PIEEncoder, PIETiming
from repro.reader.jamming import JammingEstimate, jamming_at_reader
from repro.reader.out_of_band import OutOfBandReader
from repro.rf.amplifier import PowerAmplifier
from repro.rf.antenna import MT242025_PANEL, Antenna
from repro.sensors.sensor import BatteryFreeSensor
from repro.sensors.tags import TagSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.inject import FaultInjector

DEFAULT_EPC_BITS: Tuple[int, ...] = tuple(
    int(b) for b in np.tile((1, 0, 1, 1, 0, 0, 1, 0), 12)
)
"""Sensor identity used when a trial is given no EPC (96 bits)."""


def branch_eirp_w(
    tx_power_dbm: float = 30.0,
    antenna: Antenna = MT242025_PANEL,
    amplifier: Optional[PowerAmplifier] = None,
) -> float:
    """EIRP of one beamformer branch, including PA compression."""
    pa = amplifier if amplifier is not None else PowerAmplifier()
    requested_w = dbm_to_watts(tx_power_dbm)
    drive = math.sqrt(2.0 * requested_w * pa.load_ohms) / 10.0 ** (
        pa.gain_db / 20.0
    )
    out = pa.amplify(np.array([complex(drive, 0.0)]))
    power_w = float(np.abs(out[0])) ** 2 / (2.0 * pa.load_ohms)
    return power_w * antenna.gain_linear


@functools.lru_cache(maxsize=64)
def pie_command_envelope(
    bits: Tuple[int, ...], sample_rate_hz: float
) -> np.ndarray:
    """PIE envelope of one downlink frame at the reader's sample rate.

    Cached and read-only: every link sending the same command at the same
    rate shares one array instead of re-encoding it.
    """
    encoder = PIEEncoder(timing=PIETiming(), sample_rate_hz=sample_rate_hz)
    envelope = encoder.encode(bits)
    envelope.setflags(write=False)
    return envelope


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def cib_peak(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    amplitudes: np.ndarray,
) -> Tuple[float, float]:
    """Peak field envelope over one CIB period and the time it occurs.

    Same grid and ``argmax`` as :func:`repro.core.waveform.peak_envelope`.
    When every carrier sits on an integer bin of that grid the envelope is
    one row of :func:`repro.core.optimizer.sparse_envelope` (agreeing with
    the direct sum to about 1e-13 relative); the grid and the validated
    bins come from :func:`repro.core.optimizer.fft_grid`, the cache the
    runtime engine's tier decision reads too, so a trial pays only for
    the envelope row and the ``argmax``. Otherwise -- fault-perturbed,
    fractional offsets -- it falls back to the direct sum, as
    :func:`repro.runtime.engine.peak_amplitudes` does. The two pick the
    same grid sample unless the envelope repeats within the period
    (offsets sharing a common step), where either may pick another,
    equally high repeat.

    Returns:
        ``(peak_value, t_peak)``.
    """
    grid = fft_grid(
        tuple(np.asarray(offsets_hz, dtype=float).tolist()),
        1.0,
        waveform_mod.DEFAULT_OVERSAMPLE,
    )
    if grid is None:
        return waveform_mod.peak_envelope(
            offsets_hz, betas, duration_s=1.0, amplitudes=amplitudes
        )
    y = sparse_envelope(
        grid.bins,
        np.atleast_2d(np.asarray(betas, dtype=float)),
        np.asarray(amplitudes, dtype=float),
        grid.times.size,
    )[0]
    index = int(np.argmax(y))
    return float(y[index]), float(grid.times[index])


@dataclass
class LinkTrialResult:
    """Everything one link trial produced.

    Attributes:
        powered: Did the sensor's harvester reach its operating point?
        peak_field_v_per_m: Peak field amplitude at the sensor.
        peak_input_voltage_v: Peak rectifier input amplitude V_s.
        query_decoded: Did the sensor recover the downlink query?
        query_fluctuation: Envelope fluctuation over the query window.
        reply_sent: Did the Gen2 FSM emit an RN16?
        decode: Reader-side decode result (None if nothing was sent).
        correlation: Preamble correlation at the reader (0 when unsent).
        success: End-to-end success per the Sec. 6.2 rule.
        notes: Human-readable failure explanation.
        capture_waveform: The averaged reader capture (for Fig. 15-style
            traces); ``None`` when no response was captured.
    """

    powered: bool
    peak_field_v_per_m: float
    peak_input_voltage_v: float
    query_decoded: bool = False
    query_fluctuation: float = 0.0
    reply_sent: bool = False
    decode: Optional[DecodeResult] = None
    correlation: float = 0.0
    success: bool = False
    notes: str = ""
    capture_waveform: Optional[np.ndarray] = None


class IvnLink:
    """End-to-end simulation of the IVN system for one sensor.

    Args:
        plan: CIB carrier plan.
        tag_spec: The sensor's tag model.
        tx_power_dbm: Per-branch transmit power.
        reader: Out-of-band reader (defaults to the 880 MHz prototype).
        n_averaging_periods: CIB periods the reader averages.
        reader_distance_m: Beamformer-to-reader-antenna spacing (sets the
            self-jamming level).
        query: Downlink command evaluated at the envelope peak.
        eirp_per_branch_w: When given, bypass the PA model and radiate
            exactly this EIRP per branch (used by calibrated experiments).
    """

    def __init__(
        self,
        plan: CarrierPlan,
        tag_spec: TagSpec,
        tx_power_dbm: float = 30.0,
        reader: Optional[OutOfBandReader] = None,
        n_averaging_periods: int = 10,
        reader_distance_m: float = 0.7,
        query: Optional[Query] = None,
        eirp_per_branch_w: Optional[float] = None,
    ):
        if n_averaging_periods < 1:
            raise ConfigurationError("need at least one averaging period")
        if reader_distance_m <= 0:
            raise ConfigurationError("reader distance must be positive")
        self.plan = plan
        self.tag_spec = tag_spec
        self.tx_power_dbm = float(tx_power_dbm)
        self.reader = reader if reader is not None else OutOfBandReader()
        self.n_averaging_periods = int(n_averaging_periods)
        self.reader_distance_m = float(reader_distance_m)
        self.query = query if query is not None else Query(q=0)
        self._eirp_override_w = eirp_per_branch_w
        # Per-link constants: the plan, query, reader and tag are fixed
        # after construction, so every trial reuses these. The field scale
        # comes first: it rejects a bad EIRP.
        self._field_scale = field_scale(self.eirp_per_branch_w())
        self._command_envelope = pie_command_envelope(
            self.query.to_bits(), self.reader.sample_rate_hz
        )
        self._jamming = self.jamming_estimate()
        self._tag_aperture_m2 = self.tag_spec.antenna.effective_aperture_m2(
            self.reader.carrier_frequency_hz
        )
        self._offsets = _read_only(self.plan.offsets_array())
        self._amplitudes = _read_only(self.plan.amplitudes_array())
        # Query window relative to the envelope peak; a trial adds t_peak.
        n_samples = self._command_envelope.size
        dt = 1.0 / self.reader.sample_rate_hz
        self._window_offsets = _read_only(
            (np.arange(n_samples) - n_samples / 2.0) * dt
        )

    # -- budgets ------------------------------------------------------------------

    def eirp_per_branch_w(self) -> float:
        if self._eirp_override_w is not None:
            return self._eirp_override_w
        return branch_eirp_w(self.tx_power_dbm)

    def jamming_estimate(self) -> JammingEstimate:
        eirp = self.eirp_per_branch_w()
        distances = np.full(self.plan.n_antennas, self.reader_distance_m)
        return jamming_at_reader(
            eirp_per_branch_w=np.full(self.plan.n_antennas, eirp),
            beamformer_frequency_hz=self.plan.center_frequency_hz,
            distances_m=distances,
            reader_rx_gain_linear=self.reader.rx_gain_linear,
            saw=self.reader.chain.saw,
        )

    # -- the trial ------------------------------------------------------------------

    def run_trial(
        self,
        channel: BlindChannel,
        medium_at_tag: Medium,
        rng: np.random.Generator,
        epc_bits: Optional[Tuple[int, ...]] = None,
        faults: Optional["FaultInjector"] = None,
        trial_index: int = 0,
    ) -> LinkTrialResult:
        """Simulate one complete interaction over one channel realization.

        Args:
            channel: Beamformer-to-sensor channel (built by a phantom).
            medium_at_tag: Medium immediately surrounding the tag (sets
                the wave impedance in Eq. 3).
            rng: Randomness for this trial.
            epc_bits: Sensor identity; a fixed default is used when absent.
            faults: Optional fault injector; applies carrier-plane faults
                to the CIB envelope, tag detuning to the harvested
                voltage, and link-plane corruption to the reader capture.
                ``None`` (or an empty plan) is bit-identical to the
                un-hooked trial.
            trial_index: Absolute trial index keying the fault streams.
        """
        if epc_bits is None:
            epc_bits = DEFAULT_EPC_BITS
        sensor = BatteryFreeSensor(self.tag_spec, epc_bits, rng)

        # 1. CIB envelope at the sensor. --------------------------------------
        realization = channel.realize(rng, self.plan.center_frequency_hz)
        gains = realization.gains[: self.plan.n_antennas]
        if gains.size < self.plan.n_antennas:
            raise ConfigurationError(
                f"channel provides {gains.size} antennas, plan needs "
                f"{self.plan.n_antennas}"
            )
        oscillator_phases = rng.uniform(0.0, 2.0 * math.pi, size=gains.size)
        betas = oscillator_phases + np.angle(gains)
        amplitudes = self._field_scale * np.abs(gains) * self._amplitudes

        offsets = self._offsets
        voltage_scale = 1.0
        if faults is not None and faults.active:
            perturbed = faults.perturb_trial(
                trial_index, offsets, betas, amplitudes
            )
            offsets = perturbed.offsets_hz
            betas = perturbed.betas
            amplitudes = perturbed.amplitudes
            voltage_scale = perturbed.voltage_scale
        peak_field, t_peak = cib_peak(offsets, betas, amplitudes)
        peak_vs = voltage_scale * sensor.input_voltage_from_field(
            peak_field, medium_at_tag, self.plan.center_frequency_hz
        )

        # 2. Power-up decision. -------------------------------------------------
        powered = sensor.try_power_up(peak_vs)
        if not powered:
            return LinkTrialResult(
                powered=False,
                peak_field_v_per_m=peak_field,
                peak_input_voltage_v=peak_vs,
                notes=(
                    f"peak V_s {peak_vs:.3f} V below minimum "
                    f"{self.tag_spec.minimum_input_voltage_v():.3f} V"
                ),
            )

        # 3. Query decode at the envelope peak. ---------------------------------
        command_envelope = self._command_envelope
        window = t_peak + self._window_offsets
        carrier_envelope = waveform_mod.envelope(
            offsets, betas, window, amplitudes
        )
        if faults is not None and faults.active:
            # Downlink corruption: the field the sensor envelope-detects,
            # not the reference command it correlates against.
            carrier_envelope = faults.corrupt_envelope(
                trial_index, carrier_envelope
            )
        outcome = sensor.decode_query_envelope(
            carrier_envelope, command_envelope, self.reader.sample_rate_hz
        )
        if not outcome.decoded:
            return LinkTrialResult(
                powered=True,
                peak_field_v_per_m=peak_field,
                peak_input_voltage_v=peak_vs,
                query_decoded=False,
                query_fluctuation=outcome.fluctuation,
                notes=f"query decode failed: {outcome.reason}",
            )

        # 4. Gen2 reply. -----------------------------------------------------------
        reply = sensor.respond_to_query(self.query)
        if reply is None:
            return LinkTrialResult(
                powered=True,
                peak_field_v_per_m=peak_field,
                peak_input_voltage_v=peak_vs,
                query_decoded=True,
                query_fluctuation=outcome.fluctuation,
                reply_sent=False,
                notes="tag FSM produced no reply (slot != 0?)",
            )

        # 5. Backscatter capture and decode at the reader. ---------------------------
        samples_per_chip = sensor.samples_per_chip(self.reader.sample_rate_hz)
        response = sensor.backscatter_waveform(reply, samples_per_chip)
        amplitude = self.reader.backscatter_amplitude_v(
            tag_channel=channel,
            tag_aperture_m2=self._tag_aperture_m2,
            modulation_depth=self.tag_spec.modulation_depth,
            rng=rng,
        )
        capture = self.reader.capture_response(
            response_waveform=response,
            amplitude_v=amplitude,
            n_periods=self.n_averaging_periods,
            rng=rng,
            jamming=self._jamming,
            beamformer_frequency_hz=self.plan.center_frequency_hz,
        )
        decode = self.reader.decode(
            capture,
            n_bits=len(reply.bits),
            samples_per_chip=samples_per_chip,
            faults=faults,
            trial_index=trial_index,
        )
        return LinkTrialResult(
            powered=True,
            peak_field_v_per_m=peak_field,
            peak_input_voltage_v=peak_vs,
            query_decoded=True,
            query_fluctuation=outcome.fluctuation,
            reply_sent=True,
            decode=decode,
            correlation=decode.correlation,
            success=decode.success and decode.bits == tuple(reply.bits),
            notes="" if decode.success else "reader correlation below threshold",
            capture_waveform=capture.waveform,
        )
