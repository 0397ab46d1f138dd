"""Pulse-interval encoding (PIE): the Gen2 downlink line code.

The reader talks to tags by gating its carrier: a data-0 is a short high
interval followed by a low pulse, a data-1 a longer high interval followed
by the same low pulse. Tags decode by measuring the interval between
falling edges -- which is why the *envelope* of the CIB transmission must
stay flat during a command (Eq. 7).

Frame structure (Gen2 6.3.1.2.3):

* preamble  = delimiter + data-0 + RTcal + TRcal  (starts inventory rounds)
* frame-sync = delimiter + data-0 + RTcal          (starts other commands)

where RTcal = len(data-0) + len(data-1) calibrates the slicer threshold and
TRcal sets the tag's backscatter link frequency.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import DecodingError, ProtocolError


@dataclass(frozen=True)
class PIETiming:
    """Timing parameters of the PIE line code.

    Attributes:
        tari_s: Reference interval (length of data-0), 6.25-25 us in Gen2.
        data1_factor: data-1 length as a multiple of Tari (1.5-2.0).
        pw_fraction: Low-pulse width as a fraction of Tari.
        delimiter_s: Fixed 12.5 us delimiter that opens every frame.
        trcal_factor: TRcal as a multiple of RTcal (1.1-3 allowed).
    """

    tari_s: float = 12.5e-6
    data1_factor: float = 2.0
    pw_fraction: float = 0.5
    delimiter_s: float = 12.5e-6
    trcal_factor: float = 1.5

    def __post_init__(self) -> None:
        if self.tari_s <= 0:
            raise ProtocolError(f"Tari must be positive, got {self.tari_s}")
        if not 1.5 <= self.data1_factor <= 2.0:
            raise ProtocolError(
                f"data-1 factor must be in [1.5, 2], got {self.data1_factor}"
            )
        if not 0.0 < self.pw_fraction < 1.0:
            raise ProtocolError(
                f"PW fraction must be in (0, 1), got {self.pw_fraction}"
            )
        if not 1.1 <= self.trcal_factor <= 3.0:
            raise ProtocolError(
                f"TRcal factor must be in [1.1, 3], got {self.trcal_factor}"
            )

    @property
    def data0_s(self) -> float:
        return self.tari_s

    @property
    def data1_s(self) -> float:
        return self.tari_s * self.data1_factor

    @property
    def pw_s(self) -> float:
        return self.tari_s * self.pw_fraction

    @property
    def rtcal_s(self) -> float:
        """Reader-to-tag calibration symbol: data-0 + data-1."""
        return self.data0_s + self.data1_s

    @property
    def trcal_s(self) -> float:
        """Tag-to-reader calibration symbol."""
        return self.rtcal_s * self.trcal_factor

    def backscatter_link_frequency_hz(self, divide_ratio: float = 8.0) -> float:
        """BLF the tag derives from TRcal: ``DR / TRcal``."""
        if divide_ratio <= 0:
            raise ValueError(f"divide ratio must be positive, got {divide_ratio}")
        return divide_ratio / self.trcal_s

    def command_duration_s(self, bits: Sequence[int], preamble: bool = True) -> float:
        """Airtime of an encoded command (for the Eq. 9 delta-t)."""
        duration = self.delimiter_s + self.data0_s + self.rtcal_s
        if preamble:
            duration += self.trcal_s
        for bit in bits:
            duration += self.data1_s if bit else self.data0_s
        return duration


class PIEEncoder:
    """Encodes bit sequences into envelope samples in [0, 1]."""

    def __init__(self, timing: PIETiming = PIETiming(), sample_rate_hz: float = 1e6):
        if sample_rate_hz <= 0:
            raise ProtocolError(
                f"sample rate must be positive, got {sample_rate_hz}"
            )
        min_feature = min(timing.pw_s, timing.delimiter_s)
        if sample_rate_hz * min_feature < 2:
            raise ProtocolError(
                "sample rate too low to represent the PIE pulse width"
            )
        self.timing = timing
        self.sample_rate_hz = float(sample_rate_hz)

    def _samples(self, duration_s: float) -> int:
        return max(1, int(round(duration_s * self.sample_rate_hz)))

    def _symbol(self, high_s: float) -> np.ndarray:
        """One PIE symbol: high then the low pulse."""
        high = np.ones(self._samples(high_s - self.timing.pw_s))
        low = np.zeros(self._samples(self.timing.pw_s))
        return np.concatenate([high, low])

    def encode(self, bits: Sequence[int], preamble: bool = True) -> np.ndarray:
        """Envelope of a full frame (delimiter, calibration, data bits).

        Args:
            bits: Command bits (e.g. a Query with CRC).
            preamble: True for the Query preamble (includes TRcal), False
                for a frame-sync (all other commands).
        """
        pieces: List[np.ndarray] = [
            np.zeros(self._samples(self.timing.delimiter_s)),  # delimiter
            self._symbol(self.timing.data0_s),                 # data-0
            self._symbol(self.timing.rtcal_s),                 # RTcal
        ]
        if preamble:
            pieces.append(self._symbol(self.timing.trcal_s))   # TRcal
        for bit in bits:
            if bit not in (0, 1):
                raise ProtocolError(f"bits must be 0/1, got {bit!r}")
            pieces.append(
                self._symbol(self.timing.data1_s if bit else self.timing.data0_s)
            )
        # Carrier returns high after the frame.
        pieces.append(np.ones(self._samples(self.timing.tari_s)))
        return np.concatenate(pieces)


class PIEDecoder:
    """Decodes PIE envelopes by measuring falling-edge intervals.

    This mirrors what a tag's envelope detector does: slice the envelope at
    a threshold, find falling edges, and classify each inter-edge interval
    against the RTcal-derived pivot (intervals shorter than RTcal/2 are
    data-0, longer are data-1).
    """

    def __init__(self, sample_rate_hz: float = 1e6, threshold: float = 0.5):
        if sample_rate_hz <= 0:
            raise ProtocolError(
                f"sample rate must be positive, got {sample_rate_hz}"
            )
        if not 0.0 < threshold < 1.0:
            raise ProtocolError(f"threshold must be in (0,1), got {threshold}")
        self.sample_rate_hz = float(sample_rate_hz)
        self.threshold = float(threshold)

    def _falling_edges(self, envelope: np.ndarray) -> np.ndarray:
        digital = (np.asarray(envelope, dtype=float) > self.threshold).astype(int)
        return np.nonzero(np.diff(digital) == -1)[0]

    def decode(
        self, envelope: np.ndarray, has_trcal: bool = True
    ) -> Tuple[Tuple[int, ...], float]:
        """Decode a frame.

        Args:
            envelope: Received envelope samples.
            has_trcal: Whether the frame used the full Query preamble.

        Returns:
            ``(bits, rtcal_s)``.

        Raises:
            DecodingError: when the frame structure cannot be recovered.
        """
        edges = self._falling_edges(envelope)
        min_edges = 3 if has_trcal else 2
        if edges.size < min_edges + 1:
            raise DecodingError(
                f"too few falling edges ({edges.size}) for a PIE frame"
            )
        intervals = np.diff(edges) / self.sample_rate_hz
        # intervals[0] = data-0 to RTcal edge -> RTcal length.
        rtcal_s = float(intervals[0])
        data_start = 1
        if has_trcal:
            trcal_s = float(intervals[1])
            if trcal_s <= rtcal_s:
                raise DecodingError(
                    f"TRcal ({trcal_s}) not longer than RTcal ({rtcal_s})"
                )
            data_start = 2
        pivot = rtcal_s / 2.0
        bits = tuple(
            1 if interval > pivot else 0 for interval in intervals[data_start:]
        )
        if not bits:
            raise DecodingError("frame contained no data bits")
        return bits, rtcal_s
