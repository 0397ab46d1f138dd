"""Deep-tissue power delivery: the paper's motivating scenario.

Sweeps sensor depth in a water tank (the in-vitro proxy for tissue) and in
a layered swine body model, showing where each transmitter configuration
can still wake a battery-free sensor -- the Fig. 13c/d and Sec. 6.2 story.

Run::

    python examples/deep_tissue_powerup.py
"""

from repro import miniature_tag_spec, paper_plan, standard_tag_spec
from repro.analysis.mc import spawn_rngs
from repro.em import GASTRIC_CONTENT, SwinePhantom, WATER, WaterTankPhantom
from repro.experiments.common import TankChannelFactory, power_up_trials
from repro.reader import IvnLink

EIRP_PER_BRANCH_W = 6.0


def water_depth_sweep() -> None:
    print("=" * 70)
    print("Water-tank depth sweep (array 90 cm from the tank, Fig. 13c/d)")
    print("=" * 70)
    tank = WaterTankPhantom(standoff_m=0.9)
    plan = paper_plan()
    specs = {"standard": standard_tag_spec(), "miniature": miniature_tag_spec()}
    depths_cm = (2, 6, 10, 14, 18, 22, 26)
    print("            (v = sensor wakes, . = below threshold)")
    print(f"  {'depth':>6s}  "
          + "  ".join(f"{name[:4]} N=1  {name[:4]} N=8" for name in specs))
    for depth_cm in depths_cm:
        cells = []
        for name, spec in specs.items():
            for n_antennas in (1, 8):
                factory = TankChannelFactory(
                    tank, n_antennas, depth_cm / 100.0, 915e6
                )
                # Seven placements per cell; the sensor wakes on a majority.
                trials = power_up_trials(
                    plan.subset(n_antennas),
                    factory,
                    WATER,
                    EIRP_PER_BRANCH_W,
                    spec,
                    7,
                    seed=depth_cm * 100 + n_antennas,
                )
                cells.append("v" if trials.successes >= 4 else ".")
        print(f"  {depth_cm:4d}cm    " + "       ".join(cells))
    print("  The standard tag reaches >20 cm only with the full CIB array;")
    print("  the miniature tag manages ~half that; one antenna wakes neither.")


def swine_scenario() -> None:
    print()
    print("=" * 70)
    print("Swine body model: gastric placement, 8 antennas (Sec. 6.2)")
    print("=" * 70)
    phantom = SwinePhantom()
    link = IvnLink(
        paper_plan().subset(8),
        standard_tag_spec(),
        eirp_per_branch_w=EIRP_PER_BRANCH_W,
    )
    successes = 0
    trials = 6
    for index, rng in enumerate(spawn_rngs(62, trials)):
        channel = phantom.channel("gastric", 8, 915e6, rng)
        result = link.run_trial(channel, GASTRIC_CONTENT, rng)
        successes += result.success
        status = "decoded" if result.success else f"failed ({result.notes[:40]})"
        print(f"  placement {index + 1}: peak V_s = "
              f"{result.peak_input_voltage_v:5.2f} V -> {status}")
    print(f"  {successes}/{trials} placements communicated "
          "(the paper reports 3/6 -- orientation and breathing move the tag).")


if __name__ == "__main__":
    water_depth_sweep()
    swine_scenario()
