"""CIB waveform synthesis and envelope analysis (Sections 3.3-3.4).

The received CIB signal is ``y(t) = sum_i a_i exp(j(2 pi df_i t + beta_i))``
where ``beta_i`` combines the oscillator's random initial phase with the
channel phase, both unknown. Everything the paper measures -- peak power,
conduction angle, envelope fluctuation -- derives from the envelope
``Y(t) = |y(t)|``, computed here with vectorized numpy.
"""

from typing import Optional, Tuple

import numpy as np

DEFAULT_OVERSAMPLE = 16
"""Time-grid oversampling relative to the envelope bandwidth."""

MIN_TIME_SAMPLES = 2048
"""Floor on the grid size so tiny offset sets are still well resolved."""


def time_grid(
    offsets_hz: np.ndarray,
    duration_s: float = 1.0,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> np.ndarray:
    """Uniform time grid resolving the envelope of an offset set.

    The envelope bandwidth is the largest offset spread, so sampling at
    ``oversample`` times that rate captures the peaks.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if oversample < 2:
        raise ValueError(f"oversample must be >= 2, got {oversample}")
    offsets = np.asarray(offsets_hz, dtype=float)
    bandwidth = float(np.max(offsets) - np.min(offsets)) if offsets.size else 0.0
    n_samples = max(MIN_TIME_SAMPLES, int(oversample * bandwidth * duration_s))
    return np.linspace(0.0, duration_s, n_samples, endpoint=False)


def complex_baseband(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    t: np.ndarray,
    amplitudes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Complex baseband sum ``y(t)`` of the carriers.

    Args:
        offsets_hz: Frequency offsets, shape (N,).
        betas: Unknown phases, shape (N,) or (D, N) for D channel draws.
        t: Time samples, shape (T,).
        amplitudes: Optional per-antenna amplitudes, shape (N,), or one
            amplitude vector per draw, shape (D, N) matching ``betas``.

    Returns:
        Array of shape (T,) for 1-D betas or (D, T) for 2-D betas.
    """
    offsets = np.asarray(offsets_hz, dtype=float)
    betas = np.asarray(betas, dtype=float)
    t = np.asarray(t, dtype=float)
    if offsets.ndim != 1:
        raise ValueError("offsets_hz must be 1-D")
    if betas.shape[-1] != offsets.size:
        raise ValueError(
            f"betas last axis ({betas.shape[-1]}) must match number of "
            f"offsets ({offsets.size})"
        )
    weights = (
        np.ones(offsets.size) if amplitudes is None else np.asarray(amplitudes, float)
    )
    if weights.shape != offsets.shape and weights.shape != betas.shape:
        raise ValueError(
            "amplitudes must have the same shape as offsets_hz or betas"
        )

    # phase[..., i, k] = 2 pi df_i t_k + beta[..., i]
    phase = (
        2.0 * np.pi * offsets[..., :, None] * t[None, :] + betas[..., :, None]
    )
    return np.sum(weights[..., :, None] * np.exp(1j * phase), axis=-2)


def envelope(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    t: np.ndarray,
    amplitudes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Envelope ``Y(t) = |y(t)|``."""
    return np.abs(complex_baseband(offsets_hz, betas, t, amplitudes))


def peak_envelope(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    duration_s: float = 1.0,
    amplitudes: Optional[np.ndarray] = None,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> Tuple[float, float]:
    """Peak envelope value and the time it occurs within one period.

    Returns:
        ``(peak_value, t_peak)``.
    """
    t = time_grid(offsets_hz, duration_s, oversample)
    y = envelope(offsets_hz, betas, t, amplitudes)
    index = int(np.argmax(y))
    return float(y[index]), float(t[index])


def peak_power_gain(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    duration_s: float = 1.0,
    amplitudes: Optional[np.ndarray] = None,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> float:
    """Peak power relative to a unit single carrier, ``max_t Y(t)^2``.

    For an N-antenna unit-amplitude plan the theoretical maximum is N^2
    (all carriers aligned, Sec. 3.4).
    """
    peak, _ = peak_envelope(offsets_hz, betas, duration_s, amplitudes, oversample)
    return peak**2


def batch_peak_envelope(
    offsets_hz: np.ndarray,
    betas_matrix: np.ndarray,
    t: np.ndarray,
    amplitudes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Peak envelope for a batch of channel draws.

    Args:
        betas_matrix: Shape (D, N) -- D independent draws of the phases.

    Returns:
        Shape (D,) array of ``max_t Y_d(t)``.
    """
    y = envelope(offsets_hz, betas_matrix, t, amplitudes)
    return np.max(y, axis=-1)


def expected_peak(
    offsets_hz: np.ndarray,
    rng: np.random.Generator,
    n_draws: int = 64,
    duration_s: float = 1.0,
    amplitudes: Optional[np.ndarray] = None,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> float:
    """Monte-carlo estimate of Eq. 6: E_beta[max_t Y(t)].

    Phases are drawn uniformly from [0, 2 pi) to model blind channels.
    """
    if n_draws <= 0:
        raise ValueError(f"n_draws must be positive, got {n_draws}")
    offsets = np.asarray(offsets_hz, dtype=float)
    betas = rng.uniform(0.0, 2.0 * np.pi, size=(n_draws, offsets.size))
    t = time_grid(offsets, duration_s, oversample)
    peaks = batch_peak_envelope(offsets, betas, t, amplitudes)
    return float(np.mean(peaks))


def average_power(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    duration_s: float = 1.0,
    amplitudes: Optional[np.ndarray] = None,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> float:
    """Time-averaged power of the envelope, ``mean_t Y(t)^2``.

    For distinct offsets this converges to ``sum_i a_i^2`` regardless of
    the phases: CIB redistributes energy in time, it does not create it
    (Sec. 3.4, "the average received energy is the same").
    """
    t = time_grid(offsets_hz, duration_s, oversample)
    y = envelope(offsets_hz, betas, t, amplitudes)
    return float(np.mean(y**2))


def conduction_fraction(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    threshold: float,
    duration_s: float = 1.0,
    amplitudes: Optional[np.ndarray] = None,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> float:
    """Fraction of the period the envelope exceeds ``threshold``.

    This is the envelope-level analogue of the diode conduction angle
    (Fig. 4): the harvester only collects energy while the input beats the
    threshold voltage.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    t = time_grid(offsets_hz, duration_s, oversample)
    y = envelope(offsets_hz, betas, t, amplitudes)
    return float(np.mean(y > threshold))


def fluctuation_over_window(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    window_s: float,
    start_s: float,
    n_samples: int = 256,
    amplitudes: Optional[np.ndarray] = None,
) -> float:
    """Envelope fluctuation ``(Amax - Amin) / Amax`` over one command window.

    This is the quantity bounded by Eq. 7: a backscatter sensor decodes the
    downlink by envelope detection, so the carrier envelope must stay
    nearly flat for the duration of a query.
    """
    if window_s <= 0:
        raise ValueError(f"window must be positive, got {window_s}")
    t = np.linspace(start_s, start_s + window_s, n_samples)
    y = envelope(offsets_hz, betas, t, amplitudes)
    y_max = float(np.max(y))
    if y_max == 0.0:
        return 1.0
    return (y_max - float(np.min(y))) / y_max


def worst_case_peak_fluctuation(
    offsets_hz: np.ndarray,
    window_s: float,
    n_samples: int = 256,
    amplitudes: Optional[np.ndarray] = None,
) -> float:
    """Fluctuation over a window starting at a perfectly-aligned peak.

    Sec. 3.6 analyzes the case where all carriers align at t0 (the highest
    peak, Y = N); the envelope can only decay from there, so this is the
    worst case the flatness constraint has to cover.
    """
    offsets = np.asarray(offsets_hz, dtype=float)
    aligned = np.zeros(offsets.size)
    return fluctuation_over_window(
        offsets, aligned, window_s, start_s=0.0, n_samples=n_samples,
        amplitudes=amplitudes,
    )
