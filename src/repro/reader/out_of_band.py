"""The out-of-band reader (Section 4).

Backscatter modulation is frequency-agnostic: once the beamformer powers a
tag up, the tag's switching antenna modulates *any* carrier illuminating
it. The reader therefore transmits and receives at 880 MHz -- far enough
from the 915 MHz beamformer that a SAW filter removes the self-jamming --
and coherently averages one capture per CIB period.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.constants import (
    PREAMBLE_CORRELATION_THRESHOLD,
    READER_CARRIER_FREQUENCY_HZ,
)
from repro.em.channel import BlindChannel
from repro.em.propagation import field_scale
from repro.errors import ConfigurationError
from repro.gen2.decoder import DecodeResult, decode_fm0_response
from repro.reader.jamming import JammingEstimate
from repro.rf.receiver import AnalogToDigitalConverter, ReceiveChain, SawFilter


@dataclass
class ReaderCapture:
    """One averaged backscatter capture ready for decoding.

    Attributes:
        waveform: Real-valued averaged baseband samples.
        n_periods: How many CIB periods were averaged.
        single_period_snr: Amplitude-domain SNR of one period.
    """

    waveform: np.ndarray
    n_periods: int
    single_period_snr: float


def backscatter_amplitude_v(
    forward_gain: float,
    tag_aperture_m2: float,
    reader_eirp_w: float = 2.0,
    reader_frequency_hz: float = READER_CARRIER_FREQUENCY_HZ,
    rx_gain_linear: float = 10.0 ** 0.7,
    modulation_depth: float = 0.5,
    reference_ohms: float = 50.0,
) -> float:
    """Two-way backscatter budget (volts at the reader) for a known gain.

    Reader EIRP -> field at the tag through the one-way field gain
    ``forward_gain`` -> power captured by the tag aperture -> the
    modulated fraction re-radiates -> back through the reciprocal path to
    the reader's aperture. The squared dependence on ``forward_gain`` is
    the physics the fleet's capture effect feeds on: a tag 4 cm deeper
    loses twice the one-way dB on the uplink. Defaults are the prototype
    reader's.
    """
    field_at_tag = field_scale(reader_eirp_w) * forward_gain
    # Captured power through the tag aperture (free-space eta is close
    # enough here; medium-specific eta enters the harvesting path).
    eta = 376.73
    captured_w = field_at_tag**2 / (2.0 * eta) * tag_aperture_m2
    # The switching antenna re-radiates the modulated sideband.
    reradiated_w = (modulation_depth**2 / 4.0) * captured_w
    # Tag-as-transmitter back to the reader: reciprocal channel.
    wavelength = 299792458.0 / reader_frequency_hz
    back_power_gain = rx_gain_linear * (
        wavelength * forward_gain / (4.0 * math.pi)
    ) ** 2
    received_w = reradiated_w * back_power_gain
    return math.sqrt(2.0 * received_w * reference_ohms)


class OutOfBandReader:
    """Transmit/receive pair at a carrier offset from the beamformer.

    Args:
        carrier_frequency_hz: Reader carrier (880 MHz in the prototype).
        eirp_w: Reader transmit EIRP (it must illuminate the tag, but
            does not need to power it -- the beamformer does that).
        sample_rate_hz: Receiver baseband rate.
        noise_figure_db: Receive noise figure.
        saw: Front-end filter; ``None`` disables rejection (in-band
            ablation).
        rx_gain_dbi: Receive antenna gain.
    """

    def __init__(
        self,
        carrier_frequency_hz: float = READER_CARRIER_FREQUENCY_HZ,
        eirp_w: float = 2.0,
        sample_rate_hz: float = 800e3,
        noise_figure_db: float = 7.0,
        saw: Optional[SawFilter] = None,
        rx_gain_dbi: float = 7.0,
    ):
        if not 0 < eirp_w < math.inf:
            raise ConfigurationError(
                f"EIRP must be positive and finite, got {eirp_w}"
            )
        self.carrier_frequency_hz = float(carrier_frequency_hz)
        self.eirp_w = float(eirp_w)
        self.sample_rate_hz = float(sample_rate_hz)
        self.rx_gain_dbi = float(rx_gain_dbi)
        if saw is None:
            saw = SawFilter(center_hz=carrier_frequency_hz)
        self.chain = ReceiveChain(
            tuned_frequency_hz=carrier_frequency_hz,
            sample_rate_hz=sample_rate_hz,
            noise_figure_db=noise_figure_db,
            saw=saw,
            adc=AnalogToDigitalConverter(n_bits=14, full_scale=1.0),
        )

    @property
    def rx_gain_linear(self) -> float:
        return 10.0 ** (self.rx_gain_dbi / 10.0)

    # -- link budget -------------------------------------------------------------

    def backscatter_amplitude_v(
        self,
        tag_channel: BlindChannel,
        tag_aperture_m2: float,
        modulation_depth: float,
        rng: np.random.Generator,
    ) -> float:
        """Received backscatter amplitude (volts across 50 ohms).

        Budget: reader EIRP -> field at the tag through the (tissue)
        channel -> power captured by the tag aperture -> the modulated
        fraction re-radiates -> back through the reciprocal channel to the
        reader's aperture.
        """
        if not 0 < modulation_depth <= 1:
            raise ConfigurationError("modulation depth must be in (0, 1]")
        if tag_aperture_m2 <= 0:
            raise ConfigurationError("tag aperture must be positive")
        realization = tag_channel.realize(rng, self.carrier_frequency_hz)
        # Field gain of the reader->tag path (single reader antenna: use
        # the strongest element as the reader's mount point).
        forward_gain = float(np.max(np.abs(realization.gains)))
        return backscatter_amplitude_v(
            forward_gain,
            tag_aperture_m2,
            self.eirp_w,
            self.carrier_frequency_hz,
            self.rx_gain_linear,
            modulation_depth,
            self.chain.reference_ohms,
        )

    # -- capture -------------------------------------------------------------------

    def capture_response(
        self,
        response_waveform: np.ndarray,
        amplitude_v: float,
        n_periods: int,
        rng: np.random.Generator,
        jamming: Optional[JammingEstimate] = None,
        beamformer_frequency_hz: float = 915e6,
    ) -> ReaderCapture:
        """Receive ``n_periods`` repetitions of a backscatter response.

        Each period's capture passes through the receive chain (SAW, noise,
        ADC) with the residual jam injected out-of-band; the periods are
        then coherently averaged. The per-period math runs through the
        batched kernel, pinned bit for bit to the original per-period loop
        in ``tests/reference/``.
        """
        from repro.kernels import capture_batch

        signal, jam_amplitude = self._capture_inputs(
            response_waveform, amplitude_v, n_periods, jamming
        )
        averaged = capture_batch(
            self.chain,
            signal,
            n_periods,
            rng,
            jam_amplitude_v=jam_amplitude,
            beamformer_frequency_hz=beamformer_frequency_hz,
        )
        return self._finish_capture(averaged, amplitude_v, n_periods)

    def _capture_inputs(
        self,
        response_waveform: np.ndarray,
        amplitude_v: float,
        n_periods: int,
        jamming: Optional[JammingEstimate],
    ) -> Tuple[np.ndarray, float]:
        """Validate a capture request; return (complex signal, jam amplitude)."""
        if n_periods < 1:
            raise ConfigurationError(f"need >= 1 period, got {n_periods}")
        template = np.asarray(response_waveform, dtype=float)
        if template.ndim != 1 or template.size == 0:
            raise ConfigurationError("response waveform must be non-empty 1-D")
        signal = amplitude_v * template.astype(complex)
        jam_amplitude = 0.0
        if jamming is not None:
            # Inject the *pre-filter* jam; the chain's SAW applies the
            # rejection itself based on the carrier offset.
            jam_amplitude = math.sqrt(
                2.0 * jamming.peak_power_w * self.chain.reference_ohms
            )
        return signal, jam_amplitude

    def _finish_capture(
        self, averaged: np.ndarray, amplitude_v: float, n_periods: int
    ) -> ReaderCapture:
        # DC block: the residual jam and carrier leak are CW within the
        # response window; removing the mean strips them while the bipolar
        # FM0 payload is unaffected.
        averaged = averaged - float(np.mean(averaged))
        noise_std = self.chain.noise_std() / math.sqrt(2.0)
        single_snr = (
            amplitude_v / noise_std if noise_std > 0 else float("inf")
        )
        return ReaderCapture(
            waveform=averaged,
            n_periods=n_periods,
            single_period_snr=single_snr,
        )

    def decode(
        self,
        capture: ReaderCapture,
        n_bits: int,
        samples_per_chip: int,
        threshold: float = PREAMBLE_CORRELATION_THRESHOLD,
        faults=None,
        trial_index: int = 0,
    ) -> DecodeResult:
        """Correlation decode of an averaged capture (Sec. 6.2 rule).

        ``faults`` / ``trial_index`` forward to
        :func:`repro.gen2.decoder.decode_fm0_response` for link-plane
        corruption injection; ``None`` decodes the capture untouched.
        """
        return decode_fm0_response(
            capture.waveform,
            n_bits=n_bits,
            samples_per_chip=samples_per_chip,
            threshold=threshold,
            faults=faults,
            trial_index=trial_index,
        )
