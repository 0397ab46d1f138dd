"""Per-trial loop of the runtime's CIB trial front end.

:func:`realize_trials_reference` is the loop every engine chunk ran before
:func:`repro.runtime.engine.realize_trials`: build the trial's channel,
realize it, draw the oscillator phases, then form the carrier phases and
amplitudes. The front end's array path (arc tanks with random phases) and
its per-trial fallback both reproduce it bit for bit, generator states
included.
"""

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.plan import CarrierPlan
from repro.em.channel import BlindChannel
from repro.runtime.engine import TrialDraws


def realize_trials_reference(
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    plan: CarrierPlan,
    rngs: Sequence[np.random.Generator],
    field_scale: float,
    frequency_hz: Optional[float] = None,
) -> TrialDraws:
    """One trial per generator, one channel object per trial."""
    n_antennas = plan.n_antennas
    gains, betas, amplitudes, references = [], [], [], []
    for rng in rngs:
        channel = channel_factory(rng)
        realization = channel.realize(rng, frequency_hz)
        row = realization.gains[:n_antennas]
        if row.size != n_antennas:
            raise ValueError("channel has fewer antennas than the plan")
        oscillator = rng.uniform(0.0, 2.0 * math.pi, size=n_antennas)
        gains.append(row)
        betas.append(oscillator + np.angle(row))
        amplitudes.append(
            field_scale * np.abs(row) * plan.amplitudes_array()
        )
        references.append(float(np.max(np.abs(realization.gains))))
    return TrialDraws(
        gains=np.array(gains),
        betas=np.array(betas),
        amplitudes=np.array(amplitudes),
        references=np.array(references),
    )
