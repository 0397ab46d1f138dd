"""Where the traced run wraps the program, and which layer each span is.

Every target is the name the caller looks up at call time: a class
attribute for method calls, the importing module's attribute for
functions imported with ``from ... import`` (``fleet.campaign`` calls its
own ``generate_shard``), and the package attribute for the function-level
import inside ``OutOfBandReader.capture_response``.

Layers are the ``repro`` packages on the measured paths. ``rf``, ``faults``
and ``obs`` are deliberately absent: EIRP is fixed per workload, fault
plans are empty, and ``obs`` shows only as tracing overhead.
"""

from perfbench.spans import Hook

LAYERS = (
    "em",
    "core",
    "harvester",
    "sensors",
    "gen2",
    "reader",
    "kernels",
    "runtime",
    "serve",
    "fleet",
)


def _probe_counts(args, kwargs):
    # power_up_probability(plan, factory, medium, eirp, spec, n_trials, ...)
    n_trials = kwargs["n_trials"] if "n_trials" in kwargs else args[5]
    return {"sweep.probes": 1, "sweep.trials": n_trials}


HOOKS = (
    # em: channel draws.
    Hook("repro.em.channel:BlindChannel.realize", "em.realize", "em"),
    Hook("repro.em.phantoms:SwinePhantom.channel", "em.realize", "em"),
    Hook("repro.em.phantoms:WaterTankPhantom.channel", "em.realize", "em"),
    # core: CIB envelope and peak search.
    Hook("repro.core.waveform:peak_envelope", "core.envelope", "core"),
    Hook("repro.core.waveform:envelope", "core.envelope", "core"),
    Hook("repro.runtime.engine:peak_amplitudes", "core.peak_amplitudes", "core"),
    Hook("repro.serve.service:optimized_plan", "core.search", "core"),
    Hook("repro.serve.service:optimized_conduction_plan", "core.search", "core"),
    Hook(
        "repro.serve.service:evaluate_stacked_specs", "core.stacked", "core",
        count=lambda args, kwargs: {"core.stacked_calls": 1},
    ),
    Hook(
        "repro.core.optimizer:evaluate_stacked_specs", "core.stacked", "core",
        count=lambda args, kwargs: {"core.stacked_calls": 1},
    ),
    # harvester
    Hook(
        "repro.harvester.tag_power:HarvesterFrontEnd.input_voltage_amplitude_v",
        "harvester.input_voltage",
        "harvester",
    ),
    # sensors
    Hook(
        "repro.sensors.sensor:BatteryFreeSensor.input_voltage_from_field",
        "sensors.power_up",
        "sensors",
    ),
    Hook(
        "repro.sensors.sensor:BatteryFreeSensor.try_power_up",
        "sensors.power_up",
        "sensors",
    ),
    Hook(
        "repro.sensors.sensor:BatteryFreeSensor.decode_query_envelope",
        "sensors.query_decode",
        "sensors",
    ),
    # gen2
    Hook("repro.gen2.pie:PIEEncoder.encode", "gen2.pie_encode", "gen2"),
    Hook(
        "repro.sensors.sensor:BatteryFreeSensor.respond_to_query",
        "gen2.reply",
        "gen2",
    ),
    Hook(
        "repro.sensors.sensor:BatteryFreeSensor.backscatter_waveform",
        "gen2.reply",
        "gen2",
    ),
    Hook(
        "repro.fleet.collision:encode_chips_block",
        "gen2.encode_chips_block",
        "gen2",
    ),
    # reader: the out-of-band receiver and the link's own glue.
    Hook(
        "repro.reader.out_of_band:OutOfBandReader.backscatter_amplitude_v",
        "reader.amplitude",
        "reader",
    ),
    Hook(
        "repro.reader.out_of_band:OutOfBandReader.capture_response",
        "reader.capture",
        "reader",
    ),
    Hook("repro.reader.out_of_band:OutOfBandReader.decode", "reader.decode", "reader"),
    Hook("repro.reader.link:IvnLink.run_trial", "link.glue", "reader"),
    # kernels
    Hook("repro.kernels:capture_batch", "kernels.capture_batch", "kernels"),
    Hook("repro.fleet.collision:capture_block", "kernels.capture_block", "kernels"),
    Hook(
        "repro.fleet.collision:fm0_block_errors",
        "kernels.fm0_block_errors",
        "kernels",
    ),
    # runtime
    Hook(
        "repro.runtime.runner:TrialRunner.map_chunks", "runtime.map_chunks",
        "runtime", count=lambda args, kwargs: {"runtime.maps": 1},
    ),
    Hook("repro.runtime.cache:PlanCache.lookup_tiered", "runtime.cache_lookup", "runtime"),
    # serve
    Hook("repro.serve.service:PlanService.submit", "serve.submit", "serve"),
    # Tags pair each request's wait in the batcher with the batch that
    # served it (the batch runs on another thread).
    Hook(
        "repro.serve.batcher:MicroBatcher.submit", "serve.batcher_submit",
        "serve", tag=lambda args, kwargs: id(args[1]),
    ),
    Hook(
        "repro.serve.service:PlanService._execute_batch", "serve.batch",
        "serve", tag=lambda args, kwargs: frozenset(map(id, args[1])),
    ),
    Hook("repro.serve.store:PlanStore.get", "serve.store_get", "serve"),
    Hook("repro.serve.store:PlanStore.put", "serve.store_put", "serve"),
    # fleet
    Hook("repro.fleet.campaign:generate_shard", "fleet.population", "fleet"),
    Hook("repro.fleet.campaign:run_inventory", "fleet.inventory", "fleet"),
    # experiment drivers: counts only (their time is unattributed).
    Hook("repro.experiments.fig13:power_up_probability", None, count=_probe_counts),
)
