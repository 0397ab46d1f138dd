"""Batched Monte-Carlo evaluation kernels.

The kernels here stack all of a chunk's channel draws into ``(D, N)``
arrays and evaluate the CIB envelope peaks in a handful of numpy calls.
The offset set alone picks one of two numerically characterized tiers;
no caller selects one:

* ``"fft"`` -- when :func:`fft_compatible` holds (every
  ``offset * duration`` is a distinct integer bin below the capture
  grid's Nyquist bin), the envelope over the grid is an inverse DFT of a
  sparse spectrum (:func:`repro.core.optimizer.sparse_envelope`).
  Batch evaluation is bitwise identical to row-by-row evaluation, and it
  agrees with the direct sum to ~1e-13 relative (the summation order
  differs).
* ``"direct"`` -- every other offset set: chunked
  :func:`repro.core.waveform.batch_peak_envelope` over the same time
  grid, bitwise identical to one :func:`repro.core.waveform.peak_envelope`
  call per draw.

Fault-active chunks evaluate trial by trial instead (each trial's offsets
drift, so no shared grid exists) and are counted as the ``"scalar"``
tier in the ``engine.tier.*`` counters.

Working-set control matters more than raw vectorization here: a full
``(D, N, T)`` direct evaluation can be slower than the per-draw loop once
the temporaries fall out of cache, so both tiers process draws in
bounded-size chunks.

The ``*_chunk`` functions at the bottom are the units of work the
process-pool :class:`repro.runtime.runner.TrialRunner` fans out. Each one
re-derives only its own per-trial generators, children ``start .. start +
count - 1`` of ``seed`` (:func:`repro.analysis.mc.spawn_rngs`: child ``i``
depends on ``i`` alone, not on the trial count), and replicates the
legacy per-trial draw order exactly, which is what makes results
bit-identical across chunk sizes and worker counts.

The gain, power-up and wake-up chunks draw their trials through one front
end, :func:`realize_trials`, whose docstring states the per-trial draw
contract and which factories take its array path. Fault plans stay per
trial, keyed by the absolute trial index.
"""

import math
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis.mc import spawn_rngs
from repro.core import waveform
from repro.core.baselines import (
    BlindSameFrequencyTransmitter,
    CIBTransmitter,
    TransmitterStrategy,
)
from repro.core.optimizer import (
    FftGrid,
    envelope_series_fft,
    fft_grid,
    sparse_envelope,
)
from repro.core.plan import CarrierPlan
from repro.em.channel import BlindChannel, arc_trial_gains
from repro.em.media import Medium
from repro.em.propagation import field_scale
from repro.kernels import rectifier_batch
from repro.obs.context import current_obs
from repro.sensors.tags import TagSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.plan import FaultPlan

PEAK_HIST_EDGES = (
    0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0,
)
"""Fixed bucket edges of the ``envelope.peak`` histogram.

Gain-style peaks are relative amplitudes in roughly ``[0, N]`` (N <= 10
antennas); power-up peaks are field amplitudes scaled by
``sqrt(60 * EIRP)``, hence the wide geometric span.
"""

CHUNK_TRIALS_EDGES = (1.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0)
"""Bucket edges of the opt-in ``engine.chunk_trials`` profile histogram."""

DIRECT_CHUNK_ELEMENTS = 1_000_000
"""Cap on the ``(rows, N, T)`` complex working set of one direct chunk."""

FFT_CHUNK_ELEMENTS = 8_000_000
"""Cap on the ``(rows, grid)`` complex spectrum of one FFT chunk."""

_TWO_PI = 2.0 * math.pi

_SINGLE_SAMPLE_T = np.zeros(1)
"""One-sample grid for strategies whose envelope is constant in time."""


def fft_compatible(
    offsets_hz: np.ndarray,
    duration_s: float,
    oversample: int = waveform.DEFAULT_OVERSAMPLE,
) -> Optional[FftGrid]:
    """Whether the FFT tier can evaluate this offset set exactly.

    Requires every ``offset * duration`` to be a distinct non-negative
    integer below half the capture grid size, so each carrier lands on its
    own DFT bin -- the same rule the optimizer's shared sparse-spectrum
    builder enforces, so the decision is delegated to its validator,
    through the grid cache :func:`repro.core.optimizer.fft_grid`.

    Returns:
        The grid and validated bins when it can (a truthy tuple the tier
        then evaluates on), else None.
    """
    if duration_s <= 0:
        return None
    offsets = np.asarray(offsets_hz, dtype=float)
    if offsets.ndim != 1 or offsets.size == 0:
        return None
    return fft_grid(tuple(offsets.tolist()), duration_s, oversample)


def peak_amplitudes(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    duration_s: float = 1.0,
    amplitudes: Optional[np.ndarray] = None,
    oversample: int = waveform.DEFAULT_OVERSAMPLE,
) -> np.ndarray:
    """Peak envelope of each draw over the capture window.

    Evaluated on the FFT tier when :func:`fft_compatible` holds for the
    offsets, else on the chunked direct sum (see the module docstring).

    Args:
        offsets_hz: Frequency offsets, shape (N,).
        betas: Phase draws, shape (D, N) (a 1-D vector is promoted).
        duration_s: Capture window; the grid matches
            :func:`repro.core.waveform.time_grid`.
        amplitudes: Optional amplitudes, shape (N,) or per-draw (D, N).

    Returns:
        Shape (D,) array of ``max_t |y_d(t)|``.
    """
    offsets = np.asarray(offsets_hz, dtype=float)
    grid = fft_compatible(offsets, duration_s, oversample) or None
    return _tier_peaks(
        grid, offsets, betas, duration_s, amplitudes, oversample
    )


def _tier_peaks(
    grid: Optional[FftGrid],
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    duration_s: float,
    amplitudes: Optional[np.ndarray],
    oversample: int = waveform.DEFAULT_OVERSAMPLE,
) -> np.ndarray:
    """:func:`peak_amplitudes` on the tier the caller already picked with
    :func:`fft_compatible` (FFT on its ``grid``, direct when it is None), so
    a chunk builds its grid and validates its bins once. Draws go through
    the tier in row chunks of a bounded working set."""
    offsets = np.asarray(offsets_hz, dtype=float)
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    amps = None if amplitudes is None else np.asarray(amplitudes, dtype=float)
    if grid is None:
        t = waveform.time_grid(offsets, duration_s, oversample)
        rows = DIRECT_CHUNK_ELEMENTS // max(1, offsets.size * t.size)

        def peaks(chunk_betas, chunk_amps):
            return waveform.batch_peak_envelope(
                offsets, chunk_betas, t, chunk_amps
            )

    else:
        rows = FFT_CHUNK_ELEMENTS // max(1, grid.times.size)
        if amps is None:
            amps = np.ones(grid.bins.size)

        def peaks(chunk_betas, chunk_amps):
            envelope = sparse_envelope(
                grid.bins, chunk_betas, chunk_amps, grid.times.size
            )
            return np.max(envelope, axis=1)

    rows = max(1, rows)
    per_draw = amps is not None and amps.ndim == 2
    out = np.empty(betas.shape[0])
    for start in range(0, betas.shape[0], rows):
        sl = slice(start, start + rows)
        out[sl] = peaks(betas[sl], amps[sl] if per_draw else amps)
    return out


def _blind_peaks(
    gains: np.ndarray,
    phases: np.ndarray,
    residuals: np.ndarray,
    scale: float,
    duration_s: float,
) -> np.ndarray:
    """Batched :class:`BlindSameFrequencyTransmitter` peak amplitudes.

    The per-draw residual frequencies rule out the FFT tier (they are not
    integer bins), so this is a chunked direct evaluation on the fixed
    ``MIN_TIME_SAMPLES`` grid the strategy uses.
    """
    t = np.linspace(0.0, duration_s, waveform.MIN_TIME_SAMPLES, endpoint=False)
    n_draws, n_antennas = gains.shape
    per_row = max(1, n_antennas * t.size)
    rows = max(1, DIRECT_CHUNK_ELEMENTS // per_row)
    out = np.empty(n_draws)
    for start in range(0, n_draws, rows):
        sl = slice(start, start + rows)
        phase = (
            _TWO_PI * residuals[sl][:, :, None] * t[None, None, :]
            + phases[sl][:, :, None]
        )
        combined = np.sum(
            gains[sl][:, :, None] * scale * np.exp(1j * phase), axis=1
        )
        out[sl] = np.max(np.abs(combined), axis=-1)
    return out


def _profile_chunk(obs, count: int, *arrays: np.ndarray) -> None:
    """Record one chunk's trial count and working-set bytes (opt-in).

    Only called when ``obs.profile`` is set (the CLI's ``--profile``), so
    the default path pays a single boolean check.  The byte counter sums
    the chunk's realized batch arrays, making the engine's memory traffic
    visible next to the runner's serialization overhead.
    """
    obs.metrics.histogram(
        "engine.chunk_trials", CHUNK_TRIALS_EDGES
    ).observe(count)
    obs.metrics.counter("engine.batch_bytes").inc(
        float(sum(int(array.nbytes) for array in arrays))
    )


def _fault_injector(fault_plan: Optional["FaultPlan"], seed: int):
    """A live injector for ``fault_plan``, or None when nothing injects.

    The lazy import keeps :mod:`repro.faults` entirely off the healthy
    path (and out of this module's import graph).
    """
    if fault_plan is None or fault_plan.is_empty:
        return None
    from repro.faults.inject import FaultInjector

    return FaultInjector(fault_plan, seed)


def _chunk_tier(
    obs, injector, offsets: np.ndarray, duration_s: float, count: int
) -> Tuple[str, Optional[FftGrid]]:
    """Count a chunk's trials and pick its tier once: ``"scalar"`` under
    faults (per-trial offset drift breaks the shared grids), else
    ``"fft"`` on the offsets' grid or ``"direct"``."""
    grid = None if injector is not None else fft_compatible(offsets, duration_s)
    tier = "scalar" if injector is not None else "fft" if grid else "direct"
    obs.metrics.counter("trials.processed").inc(count)
    obs.metrics.counter(f"engine.tier.{tier}").inc()
    return tier, grid or None


def _chunk_peaks(
    obs,
    injector,
    grid: Optional[FftGrid],
    start: int,
    offsets: np.ndarray,
    betas: np.ndarray,
    amplitudes: np.ndarray,
    duration_s: float,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """A chunk's CIB envelope peaks (recorded in ``envelope.peak``), plus
    per-trial voltage scales under faults (None when healthy).

    Healthy chunks evaluate on their tier. Fault-active chunks evaluate
    trial by trial on the direct sum: reference-holdover drift perturbs
    each trial's *offsets*, so the batched tiers' shared frequency grid
    no longer exists. The absolute trial index ``start + i`` keys each
    trial's fault realization, keeping results independent of chunking
    and worker count.
    """
    if injector is None:
        peaks = _tier_peaks(grid, offsets, betas, duration_s, amplitudes)
        voltage_scales = None
    else:
        count = betas.shape[0]
        peaks = np.empty(count)
        voltage_scales = np.ones(count)
        for index in range(count):
            perturbed = injector.perturb_trial(
                start + index, offsets, betas[index], amplitudes[index]
            )
            peaks[index], _ = waveform.peak_envelope(
                perturbed.offsets_hz,
                perturbed.betas,
                duration_s,
                perturbed.amplitudes,
            )
            voltage_scales[index] = perturbed.voltage_scale
        obs.metrics.counter("faults.fault_trials").inc(count)
    obs.metrics.histogram("envelope.peak", PEAK_HIST_EDGES).observe_many(peaks)
    return peaks, voltage_scales


# -- the CIB trial front end ----------------------------------------------------


class TrialDraws(NamedTuple):
    """A chunk's trials, row ``i`` drawn from ``rngs[i]``: ``(D, N)`` gains
    of the plan's antennas, carrier phases (oscillator plus channel) and
    amplitudes (``field_scale * |h| * plan amplitudes``), and the ``(D,)``
    largest ``|h|`` over all the channel's antennas (the single-antenna
    reference peak)."""

    gains: np.ndarray
    betas: np.ndarray
    amplitudes: np.ndarray
    references: np.ndarray


def _check_antennas(channel_antennas: int, plan_antennas: int) -> None:
    if channel_antennas < plan_antennas:
        raise ValueError(
            f"channel produced {channel_antennas} antennas but the plan "
            f"has {plan_antennas}; the batched runtime needs one per carrier"
        )


def realize_trials(
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    plan: CarrierPlan,
    rngs: Sequence[np.random.Generator],
    field_scale: float,
    frequency_hz: Optional[float] = None,
) -> TrialDraws:
    """The paper's Sec. 3 trial per generator: a channel draw, then random
    oscillator phases.

    Each trial draws, from its own generator and in this order,
    ``channel_factory(rng)``, ``channel.realize(rng, frequency_hz)``
    (None: the channel's carrier) and ``rng.uniform(0, 2 pi, N)``, and
    leaves the generator where that per-trial loop
    (``tests/reference/trials.py``) leaves it. When the factory's
    ``arc_channel()`` is not None a trial draws only ``[0, 1)`` doubles --
    ``M`` arc jitters, ``M`` channel phases, ``N`` oscillators -- so one
    ``rng.random(out=row)`` per trial fills a ``(D, 2 M + N)`` table and
    the rest is array math over the chunk
    (:func:`repro.em.channel.arc_trial_gains`), bit for bit. Any other
    factory (multipath taps, fixed or perturbed phases, a linear tank, the
    head and swine phantoms) draws other distributions or draw-dependent
    counts and runs the loop itself.
    """
    n_antennas = plan.n_antennas
    arc_channel = getattr(channel_factory, "arc_channel", None)
    arc = arc_channel() if arc_channel is not None else None
    if arc is None:
        gains = np.empty((len(rngs), n_antennas), dtype=complex)
        references = np.empty(len(rngs))
        oscillators = np.empty((len(rngs), n_antennas))
        for index, rng in enumerate(rngs):
            realization = channel_factory(rng).realize(rng, frequency_hz)
            _check_antennas(realization.gains.size, n_antennas)
            gains[index] = realization.gains[:n_antennas]
            references[index] = np.max(np.abs(realization.gains))
            oscillators[index] = rng.uniform(0.0, _TWO_PI, size=n_antennas)
        magnitudes = np.abs(gains)
    else:
        m = arc.n_antennas
        _check_antennas(m, n_antennas)
        uniforms = np.empty((len(rngs), 2 * m + n_antennas))
        for row, rng in zip(uniforms, rngs):
            rng.random(out=row)
        full = arc_trial_gains(arc, uniforms[:, : 2 * m], frequency_hz)
        all_magnitudes = np.abs(full)
        references = np.max(all_magnitudes, axis=1)
        gains = full[:, :n_antennas]
        magnitudes = all_magnitudes[:, :n_antennas]
        oscillators = _TWO_PI * uniforms[:, 2 * m :]  # 0.0 + 2 pi * random()
    return TrialDraws(
        gains,
        oscillators + np.angle(gains),
        field_scale * magnitudes * plan.amplitudes_array(),
        references,
    )


# -- trial-chunk work units ----------------------------------------------------
#
# Signature convention: (start, count) first so the pool runner can call
# ``fn(start, count)`` on a functools.partial that binds everything else.


def measure_gain_chunk(
    start: int,
    count: int,
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    plan: CarrierPlan,
    seed: int,
    duration_s: float,
    include_baseline: bool,
    fault_plan: Optional["FaultPlan"] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gains of trials ``[start, start + count)`` of a Sec. 6.1.1 sweep.

    Returns ``(cib_gains, baseline_gains)`` arrays matching what the legacy
    scalar loop stores in its :class:`~repro.experiments.common.GainSample`
    list for the same trial indices. A non-empty ``fault_plan`` perturbs
    the CIB side of each trial (the single-antenna reference and blind
    baseline stay healthy, so the gains show pure CIB degradation) and
    forces the scalar tier; an empty plan is bit-identical to omitting it.
    """
    obs = current_obs()
    offsets = plan.offsets_array()
    injector = _fault_injector(fault_plan, seed)
    tier, grid = _chunk_tier(obs, injector, offsets, duration_s, count)
    n_antennas = plan.n_antennas
    # Per-antenna power: power_scale is 1.0, so the front end's
    # 1.0 * |h| * a equals the transmitter's |h| * a * 1.0 bit for bit.
    cib = CIBTransmitter(plan)
    baseline = BlindSameFrequencyTransmitter(n_antennas)
    residual_std = baseline.residual_offset_std_hz

    blind_phases = np.empty((count, n_antennas))
    blind_residuals = np.zeros((count, n_antennas))

    with obs.stage_span("gain_trials.realize", trials=count, start=start):
        rngs = spawn_rngs(seed, count, start)
        draws = realize_trials(channel_factory, plan, rngs, cib.power_scale)
        if include_baseline:
            for index, rng in enumerate(rngs):
                blind_phases[index] = rng.uniform(0.0, _TWO_PI, size=n_antennas)
                if residual_std > 0:
                    blind_residuals[index] = rng.normal(
                        0.0, residual_std, size=n_antennas
                    )
    gains_rows, cib_betas, cib_amps, reference_peaks = draws

    if obs.profile:
        _profile_chunk(
            obs, count, gains_rows, cib_betas, cib_amps,
            blind_phases, blind_residuals,
        )
    with obs.stage_span("gain_trials.evaluate", trials=count, tier=tier):
        cib_peaks, _ = _chunk_peaks(
            obs, injector, grid, start, offsets, cib_betas, cib_amps, duration_s
        )
        if include_baseline:
            baseline_peaks = _blind_peaks(
                gains_rows,
                blind_phases,
                blind_residuals,
                baseline.power_scale,
                duration_s,
            )
        else:
            baseline_peaks = reference_peaks

    cib_gains = (cib_peaks / reference_peaks) ** 2
    baseline_gains = (baseline_peaks / reference_peaks) ** 2
    return cib_gains, baseline_gains


def power_up_chunk(
    start: int,
    count: int,
    plan: CarrierPlan,
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    medium_at_tag: Medium,
    eirp_per_branch_w: float,
    tag_spec: TagSpec,
    seed: int,
    fault_plan: Optional["FaultPlan"] = None,
) -> int:
    """Power-up successes among trials ``[start, start + count)``.

    Per trial: realize the channel and take the CIB envelope peak; then
    turn the chunk's peaks into V_s in one front-end call and count the
    voltages that clear the tag threshold. The per-trial oracle is
    ``power_up_probability_scalar`` in ``tests/reference/measurement.py``
    (bit for bit on the direct tier). A non-empty ``fault_plan`` perturbs each trial's carriers and
    scales the harvested voltage (tag detuning); an empty plan is
    bit-identical to omitting it.
    """
    obs = current_obs()
    scale = field_scale(eirp_per_branch_w)
    offsets = plan.offsets_array()
    injector = _fault_injector(fault_plan, seed)
    tier, grid = _chunk_tier(obs, injector, offsets, 1.0, count)
    threshold = tag_spec.minimum_input_voltage_v()

    with obs.stage_span("power_up.realize", trials=count, start=start):
        draws = realize_trials(
            channel_factory,
            plan,
            spawn_rngs(seed, count, start),
            scale,
            plan.center_frequency_hz,
        )
    betas, amplitudes = draws.betas, draws.amplitudes

    if obs.profile:
        _profile_chunk(obs, count, betas, amplitudes)
    with obs.stage_span("power_up.evaluate", trials=count, tier=tier):
        peak_fields, voltage_scales = _chunk_peaks(
            obs, injector, grid, start, offsets, betas, amplitudes, 1.0
        )

    voltages = tag_spec.front_end().input_voltage_amplitude_v(
        peak_fields, medium_at_tag, plan.center_frequency_hz
    )
    if voltage_scales is not None:
        voltages = voltages * voltage_scales
    return int(np.count_nonzero(voltages >= threshold))


def _envelope_block(
    offsets: np.ndarray,
    betas: np.ndarray,
    n_samples: int,
    dt_s: float,
    amplitudes: np.ndarray,
) -> np.ndarray:
    """Multi-period field envelopes, shape ``(rows, n_samples)``.

    Sparse-spectrum FFT when every carrier lands on an integer bin of the
    ``n_samples`` grid (one inverse FFT for the whole block, bitwise equal
    to evaluating rows one at a time), else the direct evaluation row by
    row -- mirroring the scalar experiment's fallback exactly.
    """
    betas = np.atleast_2d(betas)
    amplitudes = np.atleast_2d(amplitudes)
    duration_s = n_samples * dt_s
    try:
        return envelope_series_fft(
            offsets, betas, n_samples, duration_s, amplitudes
        )
    except ValueError:
        t = np.arange(n_samples) * dt_s
        return np.vstack(
            [
                waveform.envelope(offsets, betas[row], t, amplitudes[row])
                for row in range(betas.shape[0])
            ]
        )


def wakeup_latency_chunk(
    start: int,
    count: int,
    plan: CarrierPlan,
    depths_m: Tuple[float, ...],
    n_trials_per_depth: int,
    channel_factory: Callable[
        [float], Callable[[np.random.Generator], BlindChannel]
    ],
    eirp_per_branch_w: float,
    tag_spec: TagSpec,
    medium_at_tag: Medium,
    envelope_rate_hz: float,
    max_periods: int,
    seed: int,
    fault_plan: Optional["FaultPlan"] = None,
) -> np.ndarray:
    """Wake-up latencies of global trials ``[start, start + count)``.

    The global trial index enumerates the depth sweep row-major: trial
    ``i`` is depth ``depths_m[i // n_trials_per_depth]``, draw
    ``i % n_trials_per_depth``. Each depth re-derives its generators from
    ``spawn_rngs(seed + int(depth * 1e4), n_trials_per_depth)`` -- the
    exact seeding of the legacy per-depth loop -- so results are
    bit-identical across chunk sizes and worker counts.
    ``channel_factory(depth)`` is the channel factory of one depth; its
    trials go through :func:`realize_trials`.

    Returns a ``(count,)`` float array of latencies in seconds, with NaN
    marking trials that never reach the operating voltage. A non-empty
    ``fault_plan`` perturbs each trial's carriers and scales the harvested
    voltage (keyed by the absolute trial index); an empty plan is
    bit-identical to omitting it.
    """
    obs = current_obs()
    scale = field_scale(eirp_per_branch_w)
    if n_trials_per_depth < 1:
        raise ValueError("need >= 1 trial per depth")
    total = len(depths_m) * n_trials_per_depth
    if not 0 <= start <= start + count <= total:
        raise ValueError(
            f"trials [{start}, {start + count}) outside [0, {total})"
        )
    injector = _fault_injector(fault_plan, seed)
    obs.metrics.counter("trials.processed").inc(count)
    offsets = plan.offsets_array()
    n_antennas = plan.n_antennas
    dt_s = 1.0 / envelope_rate_hz
    n_samples = int(max_periods * envelope_rate_hz)

    betas = np.empty((count, n_antennas))
    amplitudes = np.empty((count, n_antennas))
    with obs.stage_span("wakeup.realize", trials=count, start=start):
        for depth_index, depth in enumerate(depths_m):
            lo = max(start, depth_index * n_trials_per_depth)
            hi = min(start + count, (depth_index + 1) * n_trials_per_depth)
            if lo >= hi:
                continue
            rngs = spawn_rngs(
                seed + int(depth * 1e4),
                hi - lo,
                lo - depth_index * n_trials_per_depth,
            )
            draws = realize_trials(channel_factory(depth), plan, rngs, scale)
            rows = slice(lo - start, hi - start)
            betas[rows] = draws.betas
            amplitudes[rows] = draws.amplitudes

    if obs.profile:
        _profile_chunk(obs, count, betas, amplitudes)
    with obs.stage_span("wakeup.evaluate", trials=count):
        voltage_scales = None
        if injector is not None:
            # Reference-holdover drift perturbs each trial's offsets, so
            # the shared-bin FFT block no longer exists: evaluate row by
            # row on the perturbed carriers, keyed by absolute index.
            fields = np.empty((count, n_samples))
            voltage_scales = np.ones(count)
            for row in range(count):
                perturbed = injector.perturb_trial(
                    start + row, offsets, betas[row], amplitudes[row]
                )
                fields[row] = _envelope_block(
                    perturbed.offsets_hz,
                    perturbed.betas,
                    n_samples,
                    dt_s,
                    perturbed.amplitudes,
                )[0]
                voltage_scales[row] = perturbed.voltage_scale
            obs.metrics.counter("faults.fault_trials").inc(count)
        else:
            fields = _envelope_block(
                offsets, betas, n_samples, dt_s, amplitudes
            )
        input_scale = tag_spec.front_end().input_voltage_amplitude_v(
            1.0, medium_at_tag, plan.center_frequency_hz
        )
        voltages = input_scale * fields
        if voltage_scales is not None:
            voltages = voltages * voltage_scales[:, None]
        traces = rectifier_batch(
            voltages,
            dt_s,
            n_stages=tag_spec.n_stages,
            threshold_v=tag_spec.threshold_v,
        )
    reached = traces >= tag_spec.operate_voltage_v
    first_index = reached.argmax(axis=1).astype(float)
    return np.where(reached.any(axis=1), first_index * dt_s, np.nan)


def strategy_gain_chunk(
    start: int,
    count: int,
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    strategy_factory: Callable[[BlindChannel], TransmitterStrategy],
    seed: int,
    duration_s: float,
) -> np.ndarray:
    """Strategy-vs-reference gains for trials ``[start, start + count)``.

    Strategies are dispatched by type: CIB and blind-same-frequency trials
    are accumulated into batches (grouped by plan / configuration in case
    the factory varies them per channel), time-invariant strategies are
    evaluated on a single sample, and anything unrecognized falls back to
    the legacy per-trial call with the same generator -- so the returned
    gains match :func:`repro.experiments.common.measure_strategy_gains`
    exactly.
    """
    obs = current_obs()
    obs.metrics.counter("trials.processed").inc(count)
    out = np.empty(count)
    reference_peaks = np.empty(count)
    cib_groups: Dict[tuple, Dict[str, list]] = {}
    blind_groups: Dict[tuple, Dict[str, list]] = {}

    with obs.stage_span("strategy_gains.realize", trials=count, start=start):
        rngs = spawn_rngs(seed, count, start)
        for index, rng in enumerate(rngs):
            channel = channel_factory(rng)
            strategy = strategy_factory(channel)
            realization = channel.realize(rng)
            reference = float(np.max(np.abs(realization.gains)))
            reference_peaks[index] = reference
            if isinstance(strategy, CIBTransmitter):
                gains = realization.gains[: strategy.n_antennas]
                oscillator = rng.uniform(0.0, _TWO_PI, size=gains.size)
                offsets_used = strategy.plan.offsets_array()[: gains.size]
                key = ("cib", tuple(offsets_used.tolist()))
                group = cib_groups.setdefault(
                    key,
                    {"offsets": offsets_used, "idx": [], "betas": [], "amps": []},
                )
                group["idx"].append(index)
                group["betas"].append(oscillator + np.angle(gains))
                group["amps"].append(
                    np.abs(gains)
                    * strategy.plan.amplitudes_array()[: gains.size]
                    * strategy.power_scale
                )
            elif isinstance(strategy, BlindSameFrequencyTransmitter):
                gains = realization.gains[: strategy.n_antennas]
                phases = rng.uniform(0.0, _TWO_PI, size=gains.size)
                std = strategy.residual_offset_std_hz
                residual = (
                    rng.normal(0.0, std, size=gains.size)
                    if std > 0
                    else np.zeros(gains.size)
                )
                key = ("blind", gains.size, strategy.power_scale)
                group = blind_groups.setdefault(
                    key,
                    {
                        "scale": strategy.power_scale,
                        "idx": [],
                        "gains": [],
                        "phases": [],
                        "residuals": [],
                    },
                )
                group["idx"].append(index)
                group["gains"].append(gains)
                group["phases"].append(phases)
                group["residuals"].append(residual)
            elif getattr(strategy, "TIME_INVARIANT", False):
                peak = float(
                    np.max(
                        strategy.received_envelope(
                            realization, _SINGLE_SAMPLE_T, rng
                        )
                    )
                )
                out[index] = (peak / reference) ** 2
            else:
                peak = strategy.peak_amplitude(realization, rng, duration_s)
                out[index] = (peak / reference) ** 2

    with obs.stage_span("strategy_gains.evaluate", trials=count) as span:
        for group in cib_groups.values():
            idx = np.asarray(group["idx"], dtype=int)
            grid = fft_compatible(group["offsets"], duration_s) or None
            tier = "fft" if grid else "direct"
            span.attrs["tier"] = tier
            obs.metrics.counter(f"engine.tier.{tier}").inc()
            peaks = _tier_peaks(
                grid,
                group["offsets"],
                np.vstack(group["betas"]),
                duration_s,
                np.vstack(group["amps"]),
            )
            obs.metrics.histogram(
                "envelope.peak", PEAK_HIST_EDGES
            ).observe_many(peaks)
            out[idx] = (peaks / reference_peaks[idx]) ** 2
        for group in blind_groups.values():
            idx = np.asarray(group["idx"], dtype=int)
            peaks = _blind_peaks(
                np.vstack(group["gains"]),
                np.vstack(group["phases"]),
                np.vstack(group["residuals"]),
                group["scale"],
                duration_s,
            )
            out[idx] = (peaks / reference_peaks[idx]) ** 2
    return out
