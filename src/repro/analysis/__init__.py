"""Statistical and monte-carlo helpers shared by experiments and tests."""

from repro.analysis.stats import (
    PercentileSummary,
    empirical_cdf,
    percentile_summary,
    to_db,
    from_db,
)
from repro.analysis.mc import spawn_rngs
from repro.analysis.calibration import bisect_increasing, calibrate_scalar
from repro.analysis.linkbudget import (
    BudgetLine,
    LinkBudget,
    antennas_required,
    downlink_budget,
)

__all__ = [
    "PercentileSummary",
    "empirical_cdf",
    "percentile_summary",
    "to_db",
    "from_db",
    "spawn_rngs",
    "bisect_increasing",
    "calibrate_scalar",
    "BudgetLine",
    "LinkBudget",
    "antennas_required",
    "downlink_budget",
]
