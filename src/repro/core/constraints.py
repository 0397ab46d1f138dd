"""CIB communication constraints (Section 3.6).

Two constraints shape the frequency selection beyond peak-power maximization:

* **Cyclic operation** -- the envelope must repeat every T seconds so a
  sensor response can be obtained each period; with T = 1 s this forces
  integer frequency offsets.
* **Query amplitude flatness** -- Eq. 7-9: backscatter sensors decode the
  downlink by envelope detection and tolerate at most a fractional
  fluctuation alpha during a query of duration delta-t. A first-order
  expansion around a perfectly-aligned peak yields the mean-square offset
  bound ``(1/N) sum df_i^2 <= alpha / (2 pi^2 dt^2)``.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import FLATNESS_ALPHA, QUERY_DURATION_S
from repro.errors import ConstraintViolationError


@dataclass(frozen=True)
class FlatnessConstraint:
    """The Eq. 9 budget on the mean-square frequency offset.

    Attributes:
        alpha: Maximum fractional envelope fluctuation during a query.
            Must stay below 0.5 because the sensor's energy detector slices
            at half the amplitude difference (Sec. 3.6).
        query_duration_s: Duration delta-t of the downlink command.
    """

    alpha: float = FLATNESS_ALPHA
    query_duration_s: float = QUERY_DURATION_S

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 0.5:
            raise ConstraintViolationError(
                f"alpha must be in (0, 0.5], got {self.alpha}"
            )
        if self.query_duration_s <= 0:
            raise ConstraintViolationError(
                f"query duration must be positive, got {self.query_duration_s}"
            )
        try:
            budget = self.max_mean_square_offset_hz2
        except (OverflowError, ZeroDivisionError):
            budget = math.inf
        if not 0.0 < budget < math.inf:
            raise ConstraintViolationError(
                f"query duration {self.query_duration_s} s leaves no finite "
                "Eq. 9 budget"
            )

    @property
    def max_mean_square_offset_hz2(self) -> float:
        """Right-hand side of Eq. 9, ``alpha / (2 pi^2 dt^2)`` in Hz^2."""
        return self.alpha / (2.0 * math.pi**2 * self.query_duration_s**2)

    @property
    def max_rms_offset_hz(self) -> float:
        """RMS form of the bound; ~199 Hz for the paper's defaults."""
        return math.sqrt(self.max_mean_square_offset_hz2)

    def mean_square_offset(self, offsets_hz: Sequence[float]) -> float:
        """Mean-square offset of a plan, ``(1/N) sum df_i^2``."""
        offsets = np.asarray(offsets_hz, dtype=float)
        if offsets.size == 0:
            raise ValueError("offsets must be non-empty")
        return float(np.mean(offsets**2))

    def satisfied_by(self, offsets_hz: Sequence[float]) -> bool:
        """Whether a set of offsets fits inside the budget."""
        return self.mean_square_offset(offsets_hz) <= self.max_mean_square_offset_hz2

    def satisfied_by_rows(self, offsets_rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`satisfied_by` over a (C, N) matrix of sets.

        Returns a boolean mask per row. For integer offsets the squared
        sums are exact in float64 (well below 2**53), so each row's verdict
        matches the scalar check bit-for-bit -- the batched candidate
        generator in the optimizer relies on that agreement.
        """
        rows = np.asarray(offsets_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise ValueError(
                f"offsets_rows must be a non-empty (C, N) matrix, got shape "
                f"{rows.shape}"
            )
        return np.mean(rows**2, axis=1) <= self.max_mean_square_offset_hz2

    def validate(self, offsets_hz: Sequence[float]) -> None:
        """Raise :class:`ConstraintViolationError` if the budget is exceeded."""
        mean_square = self.mean_square_offset(offsets_hz)
        budget = self.max_mean_square_offset_hz2
        if mean_square > budget:
            raise ConstraintViolationError(
                f"mean-square offset {mean_square:.1f} Hz^2 exceeds the "
                f"flatness budget {budget:.1f} Hz^2 "
                f"(alpha={self.alpha}, dt={self.query_duration_s}s)"
            )

    def max_integer_offset_hz(self) -> int:
        """Largest single integer offset that could ever fit the budget.

        Useful as a search-space bound for the optimizer: any candidate
        offset above this value would violate the constraint even if all
        other offsets were zero. With N antennas the budget applies to the
        mean, so individual offsets may exceed the RMS bound; this returns
        the single-offset extreme for N as large as the caller needs by
        taking the bound at N = 1.
        """
        return int(math.floor(self.max_rms_offset_hz))

    def predicted_peak_fluctuation(
        self, offsets_hz: Sequence[float]
    ) -> float:
        """First-order fluctuation prediction of Eq. 8 at the aligned peak.

        ``(Y(t0) - Y(t0+dt)) / Y(t0) <= 2 pi^2 dt^2 mean(df^2)``.
        """
        mean_square = self.mean_square_offset(offsets_hz)
        return (
            2.0 * math.pi**2 * self.query_duration_s**2 * mean_square
        )


def validate_cyclic(
    offsets_hz: Sequence[float], period_s: float = 1.0, tolerance: float = 1e-9
) -> None:
    """Enforce the Sec. 3.6 cyclic-operation constraint.

    Every offset must be an integer multiple of ``1/period_s`` so that the
    combined envelope repeats each period.

    Raises:
        ConstraintViolationError: when any offset breaks periodicity.
    """
    if period_s <= 0:
        raise ValueError(f"period must be positive, got {period_s}")
    offsets = np.asarray(offsets_hz, dtype=float) * period_s
    deviation = np.abs(offsets - np.round(offsets))
    if np.any(deviation > tolerance):
        worst = int(np.argmax(deviation))
        raise ConstraintViolationError(
            f"offset {offsets[worst] / period_s} Hz is not an integer "
            f"multiple of 1/{period_s} Hz; the envelope would not repeat "
            f"every {period_s} s"
        )


def validate_plan(
    offsets_hz: Sequence[float],
    constraint: FlatnessConstraint,
    period_s: float = 1.0,
) -> None:
    """Validate both Section 3.6 constraints at once."""
    validate_cyclic(offsets_hz, period_s)
    constraint.validate(offsets_hz)
