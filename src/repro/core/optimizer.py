"""Monte-carlo frequency selection (Sections 3.5-3.6, Eq. 10).

The optimizer searches integer frequency-offset sets that maximize the
expected envelope peak over blind channels,

    max_{df_2..df_N}  E_beta[ max_{0<=t<=1} |1 + sum_i e^{j(2 pi df_i t + beta_i)}| ]
    s.t.              (1/N) sum df_i^2 <= alpha / (2 pi^2 dt^2)

Because the cyclic-operation constraint restricts offsets to integers and
the period to one second, the envelope on a uniform M-point grid is an
inverse DFT of a spectrum with N non-zero bins. The search is built as a
batched pipeline on top of that fact:

* **Stacked scoring** -- C candidate sets x D phase draws become one
  ``(C*D, M)`` spectrum evaluated in chunked inverse FFTs instead of C
  sequential ``objective()`` calls. One envelope primitive
  (:func:`sparse_envelope`) backs the peak objective, the conduction
  objective, the envelope-series helper and the link's per-trial peak.
* **Coarse-to-fine grids** -- candidates are shortlisted on a small
  power-of-two grid and only survivors are rescored on the full
  ``grid_size`` grid. Two properties make the coarse stage sound: the
  envelope modulus is invariant under a frequency shift (so every
  candidate's spectrum is re-centred around zero, halving the bandwidth
  the coarse grid must cover), and a coarse grid whose size divides
  ``grid_size`` samples a subset of the fine time grid, so every coarse
  peak is an exact lower bound of the corresponding fine peak.
* **Batched refinement** -- coordinate descent scores the entire feasible
  index x step x direction neighborhood of the incumbent in one stacked
  call per move (steepest ascent), instead of one FFT per perturbation.
* **Search islands** -- ``islands > 1`` runs independent candidate streams
  (deterministic ``SeedSequence`` spawns, shared phase draws) through
  :class:`repro.runtime.runner.TrialRunner` and merges the best result
  reproducibly, bit-identical for any worker count.

The FFT kernel is row-stable: scoring candidates one row at a time selects
bit-identical plans, the equivalence the batched-search tests pin down.
"""

import math
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# scipy's pocketfft accepts complex64 without an upcast; numpy's won't.
from scipy.fft import ifft as _coarse_ifft

from repro.constants import (
    CIB_CENTER_FREQUENCY_HZ,
    FLATNESS_ALPHA,
    QUERY_DURATION_S,
)
from repro.core import waveform
from repro.core.constraints import FlatnessConstraint
from repro.core.plan import CarrierPlan
from repro.errors import ConfigurationError
from repro.obs.context import current_obs

DEFAULT_GRID_SIZE = 8192
"""FFT grid size over the 1-second period (Hz resolution: 1/M s per bin)."""

SEARCH_REV = 2
"""Search-algorithm revision, part of plan-cache keys.

Bumped whenever the search pipeline changes the plans it selects for a
given seed (rev 2: batched coarse-to-fine search), so stored plans from
an older algorithm are never served as current results.
"""

DEFAULT_SHORTLIST = 8
"""Coarse-stage survivors rescored on the full grid per search."""

MIN_COARSE_GRID_SIZE = 256
"""Floor on the coarse grid so tiny offset spans stay well resolved."""

FFT_ROW_CHUNK_ELEMENTS = 1_500_000
"""Cap on the ``(rows, grid)`` complex working set of one stacked IFFT.

Measured on the stacked spectra this module builds: per-row IFFT cost is
flat up to roughly this working set and degrades well before the runtime
engine's 8M-element streaming cap, so the search uses a tighter chunk.
"""


@dataclass(frozen=True)
class StackedScoreSpec:
    """One stacked scoring call, reduced to scatter-ready arrays.

    What :meth:`FrequencyOptimizer._score_matrix` hands the kernel for
    its candidate rows, with the shift/re-centring and precision decisions
    already baked in. Each row's inverse FFT is independent of whatever
    rows share its chunk (the row-stability the batched-search equivalence
    tests pin down), so scoring a spec's rows one at a time through
    :func:`evaluate_stacked_specs` gives bit-identical values.

    Attributes:
        scatter: (C, N) int64 bin indices per candidate row, already
            re-centred (mod ``grid_size``) when the coarse shift applies.
        phasors: (D, N) complex phase factors shared by every candidate
            (``complex64`` on the single-precision coarse path).
        grid_size: IFFT length.
        kind: ``"peak"`` or ``"conduction"`` reduction.
        cutoff: Conduction threshold on the evaluated scale (already
            divided by ``grid_size`` on the unscaled coarse path).
        single: Single-precision ranking-only path (skips the
            ``* grid_size`` rescale, uses the complex64 IFFT).
    """

    scatter: np.ndarray
    phasors: np.ndarray
    grid_size: int
    kind: str
    cutoff: float
    single: bool

    @property
    def n_candidates(self) -> int:
        return int(self.scatter.shape[0])

    @property
    def n_draws(self) -> int:
        return int(self.phasors.shape[0])


def _reduce_stacked_magnitude(
    spec: StackedScoreSpec, magnitude: np.ndarray
) -> np.ndarray:
    """Candidate objectives from ``(..., draws, grid)`` envelope blocks.

    Reduces the last two axes, so a ``(C, D, M)`` chunk gives ``(C,)``
    values; each value is the same float a lone ``(D, M)`` block gives.
    """
    if spec.kind == "peak":
        return np.mean(np.max(magnitude, axis=-1), axis=-1)
    # The cutoff is cast to the block's dtype. One past float32 range
    # becomes inf (nothing is above it) with an overflow warning; silence
    # only that, so every cutoff compares exactly as the cast gives it.
    with np.errstate(over="ignore"):
        above = np.sum(magnitude > spec.cutoff, axis=(-2, -1))
    return above / (spec.n_draws * spec.grid_size)


def evaluate_stacked_specs(
    specs: Sequence[StackedScoreSpec],
) -> List[np.ndarray]:
    """Score each spec's candidate rows through chunked stacked IFFTs.

    A spec's rows are chunked by the :data:`FFT_ROW_CHUNK_ELEMENTS` row
    budget (whole candidates per chunk, at least one), each chunk runs one
    inverse FFT, and every candidate is reduced from its own
    ``(draws, grid)`` block, so a value never depends on which rows shared
    its chunk.

    Returns:
        One ``(C_i,)`` float array per input spec, in input order.
    """
    return [_evaluate_spec(spec) for spec in specs]


def _evaluate_spec(spec: StackedScoreSpec) -> np.ndarray:
    """One spec's candidate values, chunk by chunk.

    Each chunk is one scatter into a ``(C, D, M)`` spectrum, one IFFT
    over its ``C * D`` rows and one reduction of the last two axes.
    """
    if spec.kind not in ("peak", "conduction"):
        raise ValueError(f"unknown spec kind {spec.kind!r}")
    grid_size, draws = spec.grid_size, spec.n_draws
    dtype = np.complex64 if spec.single else complex
    values = np.empty(spec.n_candidates)
    per_chunk = max(1, FFT_ROW_CHUNK_ELEMENTS // grid_size // draws)
    draw_index = np.arange(draws)[None, :, None]
    for lo in range(0, spec.n_candidates, per_chunk):
        chunk = spec.scatter[lo : lo + per_chunk]
        rows = chunk.shape[0]
        spectrum = np.zeros((rows, draws, grid_size), dtype=dtype)
        spectrum[
            np.arange(rows)[:, None, None], draw_index, chunk[:, None, :]
        ] = spec.phasors
        flat = spectrum.reshape(rows * draws, grid_size)
        if spec.single:
            signal = _coarse_ifft(flat, axis=1)
        else:
            signal = np.fft.ifft(flat, axis=1)
            signal *= grid_size
        values[lo : lo + rows] = _reduce_stacked_magnitude(
            spec, np.abs(signal).reshape(rows, draws, grid_size)
        )
    return values


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a frequency search.

    Attributes:
        plan: The selected carrier plan.
        expected_peak: Monte-carlo estimate of E[max_t Y(t)] (amplitude).
        normalized_peak: ``expected_peak / N`` -- 1.0 would be a perfect,
            always-aligned beamformer.
        n_evaluations: Candidate evaluations *this search* performed
            (coarse and fine scorings both count; islands sum). The
            optimizer's ``n_evaluations`` attribute keeps the lifetime
            total across searches.
        history: Best objective value after each accepted improvement.
    """

    plan: CarrierPlan
    expected_peak: float
    normalized_peak: float
    n_evaluations: int
    history: Tuple[float, ...] = ()

    @property
    def expected_peak_power_gain(self) -> float:
        """Expected peak power relative to one antenna, E[max Y]^2."""
        return self.expected_peak**2


def validate_offset_bins(
    offsets_hz: Sequence[float],
    grid_size: int,
    duration_s: float = 1.0,
) -> np.ndarray:
    """Map offsets to validated integer DFT bins.

    Every sparse-spectrum evaluation in this module funnels through this
    check: offsets times the window must be distinct non-negative integers
    below the grid's Nyquist bin, otherwise scattering them into a
    spectrum would silently alias or overwrite bins.

    Returns:
        Shape (N,) int array of bin indices.

    Raises:
        ValueError: On fractional, negative, out-of-range, or duplicate
            bins, or a non-positive duration.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    bins = np.asarray(offsets_hz, dtype=float) * duration_s
    if np.any(bins != np.round(bins)):
        raise ValueError(
            "FFT evaluation requires offsets_hz * duration_s to be integers"
        )
    offsets = np.round(bins).astype(int)
    if np.any(offsets < 0) or np.any(offsets >= grid_size // 2):
        raise ValueError(
            f"offset bins must lie in [0, {grid_size // 2}), got max "
            f"{offsets.max()}"
        )
    if np.unique(offsets).size != offsets.size:
        raise ValueError(
            "offsets_hz * duration_s must map to distinct FFT bins"
        )
    return offsets


class FftGrid(NamedTuple):
    """One offset set's capture grid and its carriers' DFT bins."""

    times: np.ndarray
    bins: np.ndarray


@lru_cache(maxsize=64)
def fft_grid(
    offsets_hz: Tuple[float, ...], duration_s: float, oversample: int
) -> Optional[FftGrid]:
    """An offset set's :func:`repro.core.waveform.time_grid` and its
    carriers' bins on it (None when :func:`validate_offset_bins` rejects
    them), cached with read-only arrays. Callers pass every argument, so
    equal requests share one entry."""
    offsets = np.asarray(offsets_hz, dtype=float)
    times = waveform.time_grid(offsets, duration_s, oversample)
    try:
        bins = validate_offset_bins(offsets, times.size, duration_s)
    except ValueError:
        return None
    times.setflags(write=False)
    bins.setflags(write=False)
    return FftGrid(times, bins)


def sparse_envelope(
    bins: np.ndarray,
    phases: np.ndarray,
    amplitudes: np.ndarray,
    grid_size: int,
) -> np.ndarray:
    """Envelope rows ``|y|`` of the N-sparse carrier spectrum.

    The one envelope primitive: every peak, series, conduction and
    per-trial envelope in the package reduces these rows. Each carrier
    sits on its DFT bin with weight ``amplitude * exp(j * phase)``, so
    ``ifft(spectrum) * grid_size`` is the carrier sum on the grid.

    Args:
        bins: Shape (N,) distinct bin indices, already checked by
            :func:`validate_offset_bins`.
        phases: Phase draws, shape (D, N).
        amplitudes: Carrier amplitudes, shape (N,) or per draw (D, N).
        grid_size: Number of spectrum bins / time samples.

    Returns:
        Shape (D, grid_size) envelope samples.
    """
    spectrum = np.zeros((phases.shape[0], grid_size), dtype=complex)
    spectrum[:, bins] = amplitudes * np.exp(1j * phases)
    # ifft includes a 1/M factor; scale back so bins sum like carriers.
    return np.abs(np.fft.ifft(spectrum, axis=1) * grid_size)


def envelope_series_fft(
    offsets_hz: Sequence[float],
    betas: np.ndarray,
    n_samples: int,
    duration_s: float = 1.0,
    amplitudes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Envelope time series on a uniform grid via the sparse spectrum.

    FFT fast path for :func:`repro.core.waveform.envelope` when the time
    grid is ``k * duration_s / n_samples`` and every carrier lands on an
    integer bin -- the situation in the wake-up latency experiment, where
    the rectifier simulation needs the whole multi-period envelope rather
    than just its peak. The offsets are validated here, once, so no
    caller can scatter duplicate or aliased bins.

    Args:
        offsets_hz: Offsets whose products with ``duration_s`` are distinct
            integers (cycles per observation window).
        betas: Phase draws, shape (D, N) (a 1-D vector is promoted).
        n_samples: Number of spectrum bins / time samples.
        duration_s: Observation window length in seconds.
        amplitudes: Optional per-antenna amplitudes, shape (N,), or one
            vector per draw, shape (D, N).

    Returns:
        Shape (D, n_samples) envelope samples.
    """
    bins = validate_offset_bins(offsets_hz, n_samples, duration_s)
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    weights = (
        np.ones(bins.size)
        if amplitudes is None
        else np.asarray(amplitudes, dtype=float)
    )
    if weights.ndim == 2 and weights.shape != betas.shape:
        raise ValueError("2-D amplitudes must match the betas shape")
    return sparse_envelope(bins, betas, weights, n_samples)


def peak_amplitudes_fft(
    offsets_hz: Sequence[int],
    betas: np.ndarray,
    grid_size: int = DEFAULT_GRID_SIZE,
    amplitudes: Optional[np.ndarray] = None,
    duration_s: float = 1.0,
) -> np.ndarray:
    """Peak envelope per channel draw via inverse FFT.

    On a uniform ``grid_size``-point grid over ``duration_s`` seconds, each
    carrier at ``df_i`` lands exactly on DFT bin ``df_i * duration_s`` when
    that product is an integer, so the envelope is an inverse DFT of a
    sparse spectrum — identical samples to the direct evaluation, computed
    in O(M log M) per draw. Arguments as :func:`envelope_series_fft`.

    Returns:
        Shape (D,) array of ``max_t |y_d(t)|``.
    """
    return np.max(
        envelope_series_fft(
            offsets_hz, betas, grid_size, duration_s, amplitudes
        ),
        axis=1,
    )


DEFAULT_N_DRAWS = 48
"""Common-random-number phase draws per objective evaluation."""

DEFAULT_REFINE_STEPS = (1, 2, 5, 10, 20)
"""Offset perturbations the refinement tries per coordinate."""

_KIND_DEFAULTS = {"peak": (120, 2), "conduction": (60, 1)}
"""Per-kind ``(n_candidates, refine_rounds)`` defaults."""


@dataclass(frozen=True)
class SearchConfig:
    """One Eq. 10 search, described completely.

    Every field decides which plan the search selects, so the plan cache
    keys on exactly these fields (plus the fault and adaptive tokens).
    ``shortlist`` and ``workers`` stay call arguments, out of the key:
    cached searches always use the default shortlist, and results are
    bit-identical for any worker count. ``n_candidates`` /
    ``refine_rounds`` left as ``None`` take the kind's defaults.
    ``threshold`` is the conduction objective's level and must be ``None``
    for a peak search. Picklable: island workers rebuild their optimizer
    from it.
    """

    n_antennas: int
    kind: str = "peak"
    alpha: float = FLATNESS_ALPHA
    query_duration_s: float = QUERY_DURATION_S
    center_frequency_hz: float = CIB_CENTER_FREQUENCY_HZ
    n_draws: int = DEFAULT_N_DRAWS
    grid_size: int = DEFAULT_GRID_SIZE
    seed: int = 0
    n_candidates: Optional[int] = None
    refine_rounds: Optional[int] = None
    refine_steps: Tuple[int, ...] = DEFAULT_REFINE_STEPS
    islands: int = 1
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_DEFAULTS:
            raise ConfigurationError(
                f"kind must be 'peak' or 'conduction', got {self.kind!r}"
            )
        candidates, rounds = _KIND_DEFAULTS[self.kind]
        if self.n_candidates is None:
            object.__setattr__(self, "n_candidates", candidates)
        if self.refine_rounds is None:
            object.__setattr__(self, "refine_rounds", rounds)
        object.__setattr__(self, "refine_steps", tuple(self.refine_steps))
        if self.islands < 1:
            raise ConfigurationError(
                f"islands must be >= 1, got {self.islands}"
            )
        if self.n_candidates < 1:
            raise ConfigurationError(
                f"n_candidates must be positive, got {self.n_candidates}"
            )
        if self.kind == "peak":
            if self.threshold is not None:
                raise ConfigurationError(
                    "threshold applies only to conduction searches"
                )
        elif self.threshold is None or not self.threshold >= 0:
            raise ConfigurationError(
                f"threshold must be >= 0, got {self.threshold}"
            )

    def constraint(self) -> FlatnessConstraint:
        """The Eq. 9 budget this search respects."""
        return FlatnessConstraint(self.alpha, self.query_duration_s)

    def optimizer(self) -> "FrequencyOptimizer":
        """A fresh optimizer for this search (generator at ``seed``)."""
        return FrequencyOptimizer(
            self.n_antennas,
            self.constraint(),
            center_frequency_hz=self.center_frequency_hz,
            n_draws=self.n_draws,
            grid_size=self.grid_size,
            seed=self.seed,
        )

    def run(
        self, *, shortlist: int = DEFAULT_SHORTLIST, workers: int = 1
    ) -> "OptimizationResult":
        """This search on a fresh optimizer: what ``optimize`` (or
        ``optimize_conduction``) returns on a new instance."""
        return self.optimizer()._run(self, shortlist, workers)


@dataclass(frozen=True)
class _SearchOutcome:
    """One search's selected offsets plus bookkeeping (picklable)."""

    offsets: Tuple[int, ...]
    value: float
    history: Tuple[float, ...]
    n_evaluations: int
    coarse_evaluations: int
    fine_evaluations: int


def _search_island_chunk(
    config: SearchConfig, shortlist: int, start: int, count: int
) -> List[Tuple[int, _SearchOutcome]]:
    """Run islands ``[start, start + count)`` of a search.

    Rebuilds the optimizer from ``config`` (same seed, hence the same
    common random numbers / phase draws as the parent), then runs each
    island with its own ``SeedSequence(seed).spawn(islands)[i]`` candidate
    stream so results do not depend on chunking or worker placement.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.islands)
    optimizer = config.optimizer()
    return [
        (
            island,
            optimizer._search(
                config, shortlist, np.random.default_rng(seeds[island])
            ),
        )
        for island in range(start, start + count)
    ]


class FrequencyOptimizer:
    """Solves Eq. 10 by batched randomized search plus coordinate ascent.

    The same monte-carlo phase draws (common random numbers) score every
    candidate, so candidate comparisons have far lower variance than the
    objective estimates themselves. Scoring is a coarse-to-fine batched
    pipeline (see the module docstring).
    """

    def __init__(
        self,
        n_antennas: int,
        constraint: Optional[FlatnessConstraint] = None,
        center_frequency_hz: float = CIB_CENTER_FREQUENCY_HZ,
        n_draws: int = DEFAULT_N_DRAWS,
        grid_size: int = DEFAULT_GRID_SIZE,
        seed: int = 0,
    ):
        if n_antennas < 1:
            raise ConfigurationError(
                f"need at least one antenna, got {n_antennas}"
            )
        if n_draws < 1:
            raise ConfigurationError(f"n_draws must be positive, got {n_draws}")
        self.n_antennas = int(n_antennas)
        self.constraint = constraint if constraint is not None else FlatnessConstraint()
        self.center_frequency_hz = float(center_frequency_hz)
        self.grid_size = int(grid_size)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._betas = self._rng.uniform(
            0.0, 2.0 * math.pi, size=(n_draws, self.n_antennas)
        )
        # The reference antenna's phase can be rotated out (Sec. 3.6 notes
        # only offsets matter), so pin it to zero for a slightly tighter
        # estimator.
        self._betas[:, 0] = 0.0
        self._phasors = np.exp(1j * self._betas)
        self._phasors_single = self._phasors.astype(np.complex64)
        self.n_evaluations = 0
        self._coarse_grid_size = self._pick_coarse_grid()

    @property
    def n_draws(self) -> int:
        """Number of common-random-number phase draws per evaluation."""
        return self._betas.shape[0]

    @property
    def coarse_grid_size(self) -> Optional[int]:
        """Coarse-stage grid size, or None when coarse scoring is disabled."""
        return self._coarse_grid_size

    def _pick_coarse_grid(self) -> Optional[int]:
        """Smallest usable power-of-two coarse grid, or None.

        After re-centring a candidate's bins around zero, the largest
        shifted bin magnitude is at most ``ceil(span / 2)`` where ``span``
        is bounded by :meth:`max_single_offset` for every feasible set, so
        any grid larger than ``span`` resolves all shifted bins. The grid
        must also divide ``grid_size`` so coarse time samples are a subset
        of the fine grid (the exact-lower-bound property); if no such grid
        is smaller than ``grid_size``, coarse scoring is disabled and all
        stages run on the fine grid.
        """
        span = self.max_single_offset()
        coarse = MIN_COARSE_GRID_SIZE
        while coarse < span + 2:
            coarse *= 2
        if coarse >= self.grid_size or self.grid_size % coarse != 0:
            return None
        return coarse

    # -- candidate generation -------------------------------------------------

    def max_single_offset(self) -> int:
        """Largest offset that can appear in any feasible N-antenna set."""
        budget = self.n_antennas * self.constraint.max_mean_square_offset_hz2
        return min(int(math.floor(math.sqrt(budget))), self.grid_size // 2 - 1)

    def is_feasible(self, offsets: Sequence[int]) -> bool:
        """Distinctness, bin range, plus the flatness budget."""
        values = tuple(int(v) for v in offsets)
        if len(values) != self.n_antennas or values[0] != 0:
            return False
        if len(set(values)) != len(values):
            return False
        if any(v < 0 or v >= self.grid_size // 2 for v in values):
            return False
        return self.constraint.satisfied_by(values)

    def _feasible_rows(self, candidates: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_feasible` over rows of an int matrix.

        Offsets are integers and their squares sum well below 2**53, so
        the float mean-square test here decides exactly like the scalar
        ``FlatnessConstraint.satisfied_by``.
        """
        rows = np.asarray(candidates, dtype=np.int64)
        ok = rows[:, 0] == 0
        ok &= np.all(rows >= 0, axis=1)
        ok &= np.all(rows < self.grid_size // 2, axis=1)
        ordered = np.sort(rows, axis=1)
        if rows.shape[1] > 1:
            ok &= np.all(np.diff(ordered, axis=1) > 0, axis=1)
        ok &= self.constraint.satisfied_by_rows(rows)
        return ok

    def random_candidate(self, max_attempts: int = 200) -> Tuple[int, ...]:
        """Draw a feasible random offset set (first offset pinned to zero)."""
        if self.n_antennas == 1:
            return (0,)
        upper_bound = self.max_single_offset()
        for _ in range(max_attempts):
            # Randomize the spread so both tight and wide sets are explored.
            f_max = int(self._rng.integers(self.n_antennas, upper_bound + 1))
            draws = self._rng.choice(
                np.arange(1, f_max + 1),
                size=min(self.n_antennas - 1, f_max),
                replace=False,
            )
            if draws.size < self.n_antennas - 1:
                continue
            candidate = (0,) + tuple(sorted(int(v) for v in draws))
            if self.is_feasible(candidate):
                return candidate
        raise ConfigurationError(
            "could not draw a feasible candidate; the flatness budget is too "
            f"tight for {self.n_antennas} antennas"
        )

    def random_candidates(
        self,
        count: int,
        rng: Optional[np.random.Generator] = None,
        max_rounds: int = 200,
    ) -> np.ndarray:
        """Batch-draw ``count`` feasible offset sets as a (count, N) matrix.

        The vectorized counterpart of :meth:`random_candidate` with the
        same sampling law per set (a random spread ``f_max``, then a
        uniform (N-1)-subset of ``[1, f_max]`` via per-row uniform keys and
        an argpartition, which avoids ``count`` sequential ``choice``
        calls). Draws come from ``rng`` (default: the instance generator),
        so island searches can supply independent deterministic streams.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        rng = self._rng if rng is None else rng
        if self.n_antennas == 1:
            return np.zeros((count, 1), dtype=np.int64)
        upper_bound = self.max_single_offset()
        if upper_bound < self.n_antennas:
            raise ConfigurationError(
                "could not draw a feasible candidate; the flatness budget is "
                f"too tight for {self.n_antennas} antennas"
            )
        keep_rows: List[np.ndarray] = []
        have = 0
        offsets_row = np.arange(1, upper_bound + 1)[None, :]
        for _ in range(max_rounds):
            need = count - have
            if need <= 0:
                break
            f_max = rng.integers(self.n_antennas, upper_bound + 1, size=need)
            keys = rng.random((need, upper_bound))
            # Column j encodes offset j + 1; offsets above each row's
            # spread are masked out of the subset draw.
            keys[offsets_row > f_max[:, None]] = np.inf
            chosen = (
                np.argpartition(keys, self.n_antennas - 2, axis=1)[
                    :, : self.n_antennas - 1
                ]
                + 1
            )
            candidates = np.concatenate(
                [
                    np.zeros((need, 1), dtype=np.int64),
                    np.sort(chosen.astype(np.int64), axis=1),
                ],
                axis=1,
            )
            feasible = candidates[self._feasible_rows(candidates)]
            if feasible.shape[0]:
                keep_rows.append(feasible)
                have += feasible.shape[0]
        if have < count:
            raise ConfigurationError(
                "could not draw enough feasible candidates; the flatness "
                f"budget is too tight for {self.n_antennas} antennas"
            )
        return np.concatenate(keep_rows, axis=0)[:count]

    # -- objective -------------------------------------------------------------

    def objective(self, offsets: Sequence[int]) -> float:
        """Common-random-number estimate of E[max_t Y(t)]."""
        self.n_evaluations += 1
        peaks = peak_amplitudes_fft(offsets, self._betas, self.grid_size)
        return float(np.mean(peaks))

    def conduction_objective(
        self, offsets: Sequence[int], threshold: float
    ) -> float:
        """E over draws of the fraction of the period above ``threshold``.

        The Section 3.7 steady-stage objective: once the link margin is
        known, spend as much of the period as possible above the (now
        lower) required level instead of chasing the highest peak. Offsets
        go through the same validated builder as the peak objective, so
        duplicate or out-of-range bins raise instead of silently
        overwriting or aliasing spectrum bins.
        """
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.n_evaluations += 1
        envelope = envelope_series_fft(offsets, self._betas, self.grid_size)
        return float(np.mean(envelope > threshold))

    def score_candidates(
        self, candidates: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Batched :meth:`objective` over many candidate sets.

        Returns the (C,) array of fine-grid objective values, bit-identical
        per row to calling :meth:`objective` on each set (the stacked FFT
        kernel is row-stable), in one chunked pipeline.
        """
        rows = np.asarray(candidates, dtype=np.int64)
        if rows.ndim == 1:
            rows = rows[None, :]
        for row in rows:
            validate_offset_bins(row, self.grid_size)
        self.n_evaluations += rows.shape[0]
        current_obs().metrics.counter("search.candidates_scored").inc(
            rows.shape[0]
        )
        return self._score_matrix(rows, "fine", "peak", 0.0)

    # -- batched scoring kernel -------------------------------------------------

    def _score_matrix(
        self,
        candidates: np.ndarray,
        level: str,
        kind: str,
        threshold: float,
    ) -> np.ndarray:
        """Score candidate rows on the coarse or the fine grid.

        The coarse level re-centres each candidate's bins around zero
        first (the envelope modulus is invariant under the shift), which
        is what lets the coarse grid stay small; it also runs in single
        precision and leaves the IFFT's 1/M normalization in place (its
        values only rank candidates against each other -- selections are
        always re-ranked by float64 fine scores on the true scale), which
        roughly halves the memory traffic of the hottest loop. The
        ranking-only path skips the ``* grid_size`` rescale (a full-size
        complex multiply); the conduction threshold is divided down
        instead so the comparison is unchanged. Scoring itself is
        :func:`evaluate_stacked_specs`.
        """
        rows = np.asarray(candidates, dtype=np.int64)
        if rows.ndim == 1:
            rows = rows[None, :]
        grid_size, scatter = self.grid_size, rows
        coarse = level == "coarse" and self._coarse_grid_size is not None
        if coarse:
            grid_size = self._coarse_grid_size
            centers = (rows.min(axis=1) + rows.max(axis=1)) // 2
            scatter = (rows - centers[:, None]) % grid_size
        spec = StackedScoreSpec(
            scatter=scatter,
            phasors=self._phasors_single if coarse else self._phasors,
            grid_size=grid_size,
            kind=kind,
            cutoff=threshold / grid_size if coarse else threshold,
            single=coarse,
        )
        return evaluate_stacked_specs([spec])[0]

    # -- search ------------------------------------------------------------------

    def _neighborhood(
        self, incumbent: np.ndarray, refine_steps: Tuple[int, ...]
    ) -> np.ndarray:
        """Feasible, deduplicated index x step x direction perturbations.

        Ordered by (index, step, +/-) with first occurrences kept, so the
        steepest-ascent argmax tie-breaks deterministically.
        """
        base = np.asarray(incumbent, dtype=np.int64)
        steps = np.asarray(refine_steps, dtype=np.int64)
        # (step, -step) per step, the whole run once per moved index.
        deltas = np.stack([steps, -steps], axis=1).reshape(-1)
        moved = np.repeat(np.arange(1, self.n_antennas), deltas.size)
        trials = np.tile(base, (moved.size, 1))
        trials[np.arange(moved.size), moved] += np.tile(
            deltas, self.n_antennas - 1
        )
        if trials.shape[0] == 0:
            return trials
        trials[:, 1:] = np.sort(trials[:, 1:], axis=1)
        _, first = np.unique(trials, axis=0, return_index=True)
        trials = trials[np.sort(first)]
        trials = trials[np.any(trials != base, axis=1)]
        return trials[self._feasible_rows(trials)]

    def _search(
        self,
        config: SearchConfig,
        shortlist: int,
        rng: np.random.Generator,
    ) -> _SearchOutcome:
        """One coarse-to-fine search over a candidate stream.

        Stages: batch-draw candidates, coarse-score all of them, fine-score
        the top-``shortlist`` (coarse peaks are exact lower bounds, so the
        shortlist rule only risks dropping candidates whose fine advantage
        hides between coarse samples), steepest-ascent refinement in the
        coarse domain, then fine-rescore the refinement trajectory and keep
        the best fine value seen.
        """
        kind, refine_steps = config.kind, config.refine_steps
        threshold = 0.0 if config.threshold is None else config.threshold
        coarse_evals = 0
        fine_evals = 0

        def score(rows: np.ndarray, level: str) -> np.ndarray:
            nonlocal coarse_evals, fine_evals
            matrix = np.asarray(rows, dtype=np.int64)
            if matrix.ndim == 1:
                matrix = matrix[None, :]
            if level == "coarse" and self._coarse_grid_size is not None:
                coarse_evals += matrix.shape[0]
            else:
                fine_evals += matrix.shape[0]
            return self._score_matrix(matrix, level, kind, threshold)

        candidates = self.random_candidates(config.n_candidates, rng=rng)
        coarse_values = score(candidates, "coarse")

        keep = min(candidates.shape[0], max(1, shortlist))
        order = np.argsort(-coarse_values, kind="stable")[:keep]
        elites = candidates[order]
        if self._coarse_grid_size is None:
            elite_fine = coarse_values[order]
        else:
            elite_fine = score(elites, "fine")

        # Walk elites in draw order so the history reads like the legacy
        # accept-improvement log and ties resolve to the earliest draw.
        history: List[float] = []
        best_value = -math.inf
        best_position = 0
        for position in np.argsort(order, kind="stable"):
            value = float(elite_fine[position])
            if value > best_value:
                best_value = value
                best_position = int(position)
                history.append(value)
        best_offsets = elites[best_position]

        incumbent = best_offsets
        incumbent_level = float(coarse_values[order[best_position]])
        trajectory: List[np.ndarray] = []
        trajectory_level_values: List[float] = []
        budget = max(0, config.refine_rounds) * max(1, self.n_antennas - 1)
        moves = 0
        while moves < budget and len(refine_steps) > 0:
            neighborhood = self._neighborhood(incumbent, refine_steps)
            if neighborhood.shape[0] == 0:
                break
            neighbor_values = score(neighborhood, "coarse")
            pick = int(np.argmax(neighbor_values))
            if not neighbor_values[pick] > incumbent_level:
                break
            incumbent = neighborhood[pick]
            incumbent_level = float(neighbor_values[pick])
            trajectory.append(incumbent)
            trajectory_level_values.append(incumbent_level)
            moves += 1

        if trajectory:
            if self._coarse_grid_size is None:
                trajectory_fine = np.asarray(trajectory_level_values)
            else:
                trajectory_fine = score(np.stack(trajectory), "fine")
            for offsets, value in zip(trajectory, trajectory_fine):
                if value > best_value:
                    best_offsets = offsets
                    best_value = float(value)
                    history.append(best_value)

        return _SearchOutcome(
            offsets=tuple(int(v) for v in best_offsets),
            value=float(best_value),
            history=tuple(history),
            n_evaluations=coarse_evals + fine_evals,
            coarse_evaluations=coarse_evals,
            fine_evaluations=fine_evals,
        )

    def _island_search(
        self, config: SearchConfig, shortlist: int, workers: int
    ) -> _SearchOutcome:
        """Merge independent island searches, best value wins (ties: lowest
        island index). Dispatched through :class:`TrialRunner`, so results
        are bit-identical for any ``workers`` / chunking."""
        # Imported lazily: repro.runtime imports this module at package
        # init, so a module-scope import here would be circular.
        from repro.runtime.runner import TrialRunner

        with TrialRunner(workers=workers) as runner:
            chunks = runner.map_chunks(
                partial(_search_island_chunk, config, shortlist),
                config.islands,
                label="search.island_chunk",
            )
        outcomes = [pair for chunk in chunks for pair in chunk]
        best_island, best = outcomes[0]
        for island, outcome in outcomes[1:]:
            if outcome.value > best.value:
                best_island, best = island, outcome
        current_obs().metrics.counter("search.islands").inc(config.islands)
        return _SearchOutcome(
            offsets=best.offsets,
            value=best.value,
            history=best.history,
            n_evaluations=sum(o.n_evaluations for _, o in outcomes),
            coarse_evaluations=sum(o.coarse_evaluations for _, o in outcomes),
            fine_evaluations=sum(o.fine_evaluations for _, o in outcomes),
        )

    def _dispatch_search(
        self, config: SearchConfig, shortlist: int, workers: int
    ) -> _SearchOutcome:
        """Run one search (in-process or islands) with obs bookkeeping."""
        obs = current_obs()
        began = time.perf_counter()
        with obs.stage_span(
            f"search.{config.kind}",
            kind=config.kind,
            islands=config.islands,
            n_antennas=self.n_antennas,
            candidates=config.n_candidates,
        ) as span:
            if config.islands == 1:
                outcome = self._search(config, shortlist, self._rng)
            else:
                outcome = self._island_search(config, shortlist, workers)
            wall_s = time.perf_counter() - began
            rate = outcome.n_evaluations / wall_s if wall_s > 0 else 0.0
            span.attrs["trials"] = outcome.n_evaluations
            span.attrs["evaluations"] = outcome.n_evaluations
            span.attrs["candidates_per_s"] = round(rate, 1)
        obs.metrics.counter("search.candidates_scored").inc(
            outcome.n_evaluations
        )
        obs.metrics.counter("search.coarse_evals").inc(
            outcome.coarse_evaluations
        )
        obs.metrics.counter("search.fine_evals").inc(outcome.fine_evaluations)
        obs.metrics.gauge("search.candidates_per_s").set(rate)
        self.n_evaluations += outcome.n_evaluations
        return outcome

    def _run(
        self, config: SearchConfig, shortlist: int, workers: int
    ) -> OptimizationResult:
        """The one search path behind :meth:`optimize`,
        :meth:`optimize_conduction` and :meth:`SearchConfig.run`.

        A single antenna needs no search: its plan is the bare carrier,
        whose peak is 1 and whose conduction fraction is 1 below a
        threshold of 1. ``expected_peak`` holds the conduction fraction
        for a conduction search, which is also its normalized value.
        """
        if self.n_antennas == 1:
            value = 1.0
            if config.kind == "conduction" and config.threshold >= 1.0:
                value = 0.0
            plan = CarrierPlan(self.center_frequency_hz, (0.0,))
            return OptimizationResult(plan, value, value, 0, (value,))
        outcome = self._dispatch_search(config, shortlist, workers)
        plan = CarrierPlan(
            center_frequency_hz=self.center_frequency_hz,
            offsets_hz=tuple(float(v) for v in outcome.offsets),
        )
        scale = self.n_antennas if config.kind == "peak" else 1
        return OptimizationResult(
            plan=plan,
            expected_peak=outcome.value,
            normalized_peak=outcome.value / scale,
            n_evaluations=outcome.n_evaluations,
            history=outcome.history,
        )

    def _config(self, **search) -> SearchConfig:
        """This optimizer's search with the given search fields."""
        return SearchConfig(
            n_antennas=self.n_antennas,
            alpha=self.constraint.alpha,
            query_duration_s=self.constraint.query_duration_s,
            center_frequency_hz=self.center_frequency_hz,
            n_draws=self.n_draws,
            grid_size=self.grid_size,
            seed=self.seed,
            **search,
        )

    def optimize(
        self,
        n_candidates: Optional[int] = None,
        refine_rounds: Optional[int] = None,
        refine_steps: Tuple[int, ...] = DEFAULT_REFINE_STEPS,
        *,
        shortlist: int = DEFAULT_SHORTLIST,
        islands: int = 1,
        workers: int = 1,
    ) -> OptimizationResult:
        """Batched random search followed by batched coordinate ascent.

        Args:
            n_candidates: Number of random feasible sets to score
                (per island).
            refine_rounds: Scales the steepest-ascent move budget
                (``refine_rounds * (N - 1)`` moves; each move scores the
                whole perturbation neighborhood in one batch).
            refine_steps: Offset perturbations tried per coordinate.
            shortlist: Coarse-stage survivors rescored on the fine grid.
            islands: Independent candidate streams searched in parallel;
                ``1`` uses the instance generator in-process.
            workers: Worker processes for ``islands > 1``.

        ``None`` counts take the peak defaults of :class:`SearchConfig`.
        """
        config = self._config(
            n_candidates=n_candidates,
            refine_rounds=refine_rounds,
            refine_steps=refine_steps,
            islands=islands,
        )
        return self._run(config, shortlist, workers)

    def optimize_conduction(
        self,
        threshold: float,
        n_candidates: Optional[int] = None,
        refine_rounds: Optional[int] = None,
        refine_steps: Tuple[int, ...] = DEFAULT_REFINE_STEPS,
        *,
        shortlist: int = DEFAULT_SHORTLIST,
        islands: int = 1,
        workers: int = 1,
    ) -> OptimizationResult:
        """Batched search on the conduction-fraction objective.

        Same pipeline and arguments as :meth:`optimize` (``None`` counts
        take the conduction defaults) with the
        Sec. 3.7 objective; the coarse stage estimates the above-threshold
        fraction on the subsampled grid (an unbiased subset estimate
        rather than a bound) and survivors are re-ranked with exact
        fine-grid fractions. Returns an :class:`OptimizationResult` whose
        ``expected_peak`` field holds the conduction fraction (in [0, 1])
        instead of a peak amplitude.
        """
        config = self._config(
            kind="conduction",
            threshold=threshold,
            n_candidates=n_candidates,
            refine_rounds=refine_rounds,
            refine_steps=refine_steps,
            islands=islands,
        )
        return self._run(config, shortlist, workers)

    def rank_random_sets(
        self,
        n_sets: int = 50,
        *,
        shortlist: int = DEFAULT_SHORTLIST,
    ) -> Tuple[Tuple[Tuple[int, ...], float], Tuple[Tuple[int, ...], float]]:
        """Score random feasible sets; return the (best, worst) with values.

        This reproduces the Fig. 6 experiment: random frequency selections
        differ drastically in how close they come to the optimal peak.
        Ranking runs coarse-to-fine: every set is scored on the coarse
        grid, the top and bottom ``shortlist`` are rescored on the fine
        grid, and the extremes are picked by exact fine value.
        """
        if n_sets < 2:
            raise ValueError(f"need at least two sets to rank, got {n_sets}")
        candidates = self.random_candidates(n_sets)
        coarse_values = self._score_matrix(candidates, "coarse", "peak", 0.0)
        keep = min(n_sets, max(1, shortlist))
        order = np.argsort(coarse_values, kind="stable")
        pool = np.unique(np.concatenate([order[:keep], order[-keep:]]))
        if self._coarse_grid_size is None:
            fine_values = coarse_values[pool]
        else:
            fine_values = self._score_matrix(
                candidates[pool], "fine", "peak", 0.0
            )
        evaluations = n_sets + (
            0 if self._coarse_grid_size is None else pool.size
        )
        self.n_evaluations += evaluations
        current_obs().metrics.counter("search.candidates_scored").inc(
            evaluations
        )
        best_pick = int(np.argmax(fine_values))
        worst_pick = int(np.argmin(fine_values))
        best = tuple(int(v) for v in candidates[pool[best_pick]])
        worst = tuple(int(v) for v in candidates[pool[worst_pick]])
        return (
            (best, float(fine_values[best_pick])),
            (worst, float(fine_values[worst_pick])),
        )
