"""Public-API contract tests.

Guards the package surface: every name a subpackage exports must resolve,
and every public callable/class must carry a docstring -- deliverable (a)'s
"clean, documented public API" as an executable check.
"""

import importlib
import inspect

import pytest

PUBLIC_MODULES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.em",
    "repro.experiments",
    "repro.faults",
    "repro.gen2",
    "repro.harvester",
    "repro.kernels",
    "repro.reader",
    "repro.rf",
    "repro.runtime",
    "repro.sensors",
)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} exports nothing"
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_objects_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert (module.__doc__ or "").strip(), f"{module_name} lacks a docstring"


def test_version_exposed():
    import repro

    assert repro.__version__.count(".") == 2


def test_experiment_modules_have_run():
    """Every figure driver exposes the ``run(config)`` convention."""
    from repro import experiments

    for name in (
        "fig04", "fig05", "fig06", "fig09", "fig10", "fig11", "fig12",
        "fig13", "invivo", "optogenetics", "inventory_throughput",
        "wakeup_latency", "sensitivity", "ber",
    ):
        module = getattr(experiments, name)
        assert callable(getattr(module, "run"))


# Oracles moved to tests/reference/ and switches deleted from src/: each
# (module, dotted attribute) must no longer resolve.
REMOVED_NAMES = (
    ("repro.experiments.common", "measure_gain_trials_scalar"),
    ("repro.experiments.common", "power_up_probability_scalar"),
    ("repro.experiments.common", "measure_strategy_gains_scalar"),
    ("repro.reader.out_of_band", "OutOfBandReader.capture_response_scalar"),
    ("repro.fleet", "run_inventory_reference"),
    ("repro.fleet.collision", "run_inventory_reference"),
    ("repro.fleet.collision", "_scalar_decode_attempt"),
    ("repro.experiments.inventory_throughput", "run_reference"),
    ("repro.experiments.ber", "_word_errors_chunk"),
    ("repro.experiments.wakeup_latency", "_trial_latency"),
    ("repro.core.optimizer", "SEARCH_MODES"),
    ("repro.runtime.cache", "_result_to_json"),
    ("repro.runtime.cache", "_result_from_json"),
    ("repro.runtime.cache", "_active_backend_token"),
    ("repro.kernels", "get_namespace"),
    ("repro.kernels", "use_backend"),
    ("repro.kernels", "set_default_backend"),
    ("repro.kernels", "default_backend"),
    ("repro.kernels", "available_backends"),
    ("repro.kernels", "Backend"),
    ("repro.kernels", "Capabilities"),
    ("repro.kernels", "BACKEND_CHOICES"),
    ("repro.kernels.rectifier", "METHODS"),
    ("repro.runtime", "ENGINES"),
    ("repro.runtime", "resolve_engine"),
    ("repro.runtime.engine", "ENGINES"),
    ("repro.runtime.engine", "resolve_engine"),
    ("repro.obs", "append_history"),
    ("repro.obs", "read_history"),
    ("repro.obs", "history_entry"),
    ("repro.obs", "validate_history_entry"),
    ("repro.obs", "detect_regressions"),
    ("repro.obs", "trend_report"),
    ("repro.obs", "env_fingerprint"),
    ("repro.obs", "HISTORY_SCHEMA_VERSION"),
    ("repro.serve", "StackedScorer"),
    ("repro.serve.batcher", "StackedScorer"),
    ("repro.core.optimizer", "BatchScorer"),
    ("repro.core.optimizer", "FrequencyOptimizer.batch_scorer"),
    ("repro.serve.service", "PlanService._evaluate_specs"),
    ("repro.serve.service", "_spec_shard"),
    ("repro.core.optimizer", "_SearchSpec"),
    ("repro.core.optimizer", "FrequencyOptimizer._stacked_values"),
    ("repro.core.optimizer", "FrequencyOptimizer._score_spec"),
    ("repro.runtime.cache", "_search_key"),
    ("repro.runtime.cache", "peak_plan_key"),
    ("repro.runtime.cache", "conduction_plan_key"),
    ("repro.analysis", "TrialRunner"),
    ("repro.analysis.mc", "TrialRunner"),
    ("repro.analysis.mc", "mean_and_confidence"),
    ("repro", "CIBBeamformer"),
    ("repro.core", "CIBBeamformer"),
    ("repro.core", "TransmitFrame"),
    ("repro.core.waveform", "synthesize_samples"),
    ("repro.harvester", "DicksonPump"),
    ("repro.harvester", "PumpState"),
    ("repro.rf", "Oscillator"),
    ("repro.rf", "SoftOffsetSynthesizer"),
    ("repro.rf", "ReferenceClock"),
    ("repro.rf", "SyncDomain"),
    ("repro.rf", "TransmitChain"),
    ("repro.rf", "RadioArray"),
    ("repro.rf", "SoftwareRadio"),
    ("repro.rf", "Spectrum"),
    ("repro.rf", "ensemble_spectrum"),
    ("repro.rf", "periodogram"),
    ("repro.faults.inject", "FaultInjector.apply_to_oscillators"),
    ("repro.faults.inject", "FaultInjector.extra_trigger_offsets_s"),
    ("repro.faults.inject", "FaultInjector.corrupt_chips"),
    ("repro.faults.inject", "STREAM_TRIGGER"),
    ("repro.faults.inject", "STREAM_CHIPS"),
    ("repro.gen2.tag_state", "Gen2Tag.handle_query_adjust"),
    ("repro.gen2.tag_state", "Gen2Tag.epc_reply_bits"),
    ("repro.experiments.fig06", "Fig06Result.cdfs"),
    ("repro.experiments.fig12", "Fig12Result.cdf"),
    ("repro.fleet.collision", "ShardInventoryResult.n_failed_slots"),
    # The time-domain power-up chain and hysteresis (tests/reference/rectifier.py).
    ("repro.harvester", "DiodeModel"),
    ("repro.harvester", "IdealDiode"),
    ("repro.harvester", "ShockleyDiode"),
    ("repro.harvester", "ThresholdDiode"),
    ("repro.harvester", "MultiStageRectifier"),
    ("repro.harvester", "PowerManager"),
    ("repro.harvester", "PowerUpResult"),
    ("repro.harvester", "operations_per_wakeup"),
    ("repro.harvester", "stored_energy_j"),
    ("repro.harvester.rectifier", "MultiStageRectifier"),
    ("repro.harvester.tag_power", "PowerUpResult"),
    ("repro.harvester.tag_power", "TagPowerModel.evaluate_envelope"),
    ("repro.harvester.tag_power", "TagPowerModel.eq1_output_voltage"),
    ("repro.sensors.sensor", "BatteryFreeSensor.evaluate_power_envelope"),
    ("repro.kernels", "hysteresis_mask_batch"),
    # The scalar receive path and averaging (tests/reference/kernels.py).
    ("repro.rf.receiver", "ReceiveChain.receive"),
    ("repro.rf.receiver", "AnalogToDigitalConverter.quantize"),
    ("repro.rf.receiver", "AnalogToDigitalConverter.saturates"),
    ("repro.reader", "reader_saturates"),
    ("repro.reader.jamming", "reader_saturates"),
    ("repro.reader", "coherent_average"),
    ("repro.reader", "segment_periods"),
    ("repro.reader", "averaging_gain_db"),
    ("repro.reader", "required_periods_for_snr"),
    # Discovery and the Gen2 codecs nothing sends as bits.
    ("repro.core", "DiscoveryObservation"),
    ("repro.core", "DiscoveryOutcome"),
    ("repro.core", "DiscoveryProcedure"),
    ("repro.gen2", "parse_command"),
    ("repro.gen2", "QueryAdjust"),
    ("repro.gen2", "Select"),
    ("repro.gen2", "Write"),
    ("repro.gen2.commands", "parse_command"),
    ("repro.gen2.commands", "QueryRep.to_bits"),
    ("repro.gen2.commands", "QueryRep.from_bits"),
    ("repro.gen2.commands", "Ack.to_bits"),
    ("repro.gen2.commands", "Ack.from_bits"),
    ("repro.gen2.access", "ReqRN.to_bits"),
    ("repro.gen2.access", "ReqRN.from_bits"),
    ("repro.gen2.access", "Read.to_bits"),
    ("repro.gen2.access", "Read.from_bits"),
    ("repro.gen2.access", "_checked_frame"),
    ("repro.gen2.access", "AccessEngine.handle_write"),
    ("repro.gen2.tag_state", "Gen2Tag.handle_select"),
    # Accessors only their own tests read.
    ("repro.rf.amplifier", "PowerAmplifier.saturation_amplitude_v"),
    ("repro.rf.amplifier", "PowerAmplifier.output_power_dbm"),
    ("repro.rf.amplifier", "PowerAmplifier.compression_db"),
    ("repro.rf.antenna", "Antenna.polarization_mismatch_loss"),
)

# Modules gone from src/: validation-only models that now live in
# tests/reference/ as oracles, and models nothing ran.
REMOVED_MODULES = (
    "repro.core.beamformer",
    "repro.core.discovery",
    "repro.harvester.carrier_sim",
    "repro.harvester.diode",
    "repro.harvester.storage",
    "repro.kernels.hysteresis",
    "repro.reader.averaging",
    "repro.rf.oscillator",
    "repro.rf.sdr",
    "repro.rf.spectrum",
    "repro.rf.sync",
    "repro.rf.transmitter",
)


@pytest.mark.parametrize("module_name, dotted", REMOVED_NAMES)
def test_removed_names_do_not_resolve(module_name, dotted):
    obj = importlib.import_module(module_name)
    *owners, last = dotted.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    assert not hasattr(obj, last), f"{module_name}.{dotted} still exists"


@pytest.mark.parametrize("module_name", REMOVED_MODULES)
def test_removed_modules_do_not_import(module_name):
    with pytest.raises(ImportError):
        importlib.import_module(module_name)


def test_no_implementation_switches():
    import dataclasses

    from repro.core.optimizer import FrequencyOptimizer
    from repro.experiments import (
        ablations, common, fig04, fig09, fig10, fig11, fig12, fig13,
    )
    from repro.experiments.ber import BerConfig
    from repro import kernels
    from repro.core.optimizer import evaluate_stacked_specs
    from repro.experiments.cli import _build_parser
    from repro.experiments.wakeup_latency import WakeupConfig
    from repro.fleet.collision import run_inventory
    from repro.runtime import engine
    from repro.runtime.cache import PlanCache, configure_plan_cache
    from repro.serve.service import ServeConfig

    for config in (BerConfig, WakeupConfig):
        names = {field.name for field in dataclasses.fields(config)}
        assert "use_kernels" not in names, config.__name__
    for method in (
        FrequencyOptimizer.optimize,
        FrequencyOptimizer.optimize_conduction,
        FrequencyOptimizer.rank_random_sets,
        FrequencyOptimizer.score_candidates,
    ):
        assert "mode" not in inspect.signature(method).parameters
    assert not hasattr(PlanCache(), "directory")
    assert "directory" not in inspect.signature(PlanCache).parameters
    assert "directory" not in inspect.signature(configure_plan_cache).parameters
    with pytest.raises(ImportError):
        importlib.import_module("repro.kernels.backend")
    with pytest.raises(ImportError):
        importlib.import_module("repro.obs.history")
    kernel_functions = [getattr(kernels, name) for name in kernels.__all__]
    for function in kernel_functions + [evaluate_stacked_specs, run_inventory]:
        parameters = inspect.signature(function).parameters
        assert "backend" not in parameters, function.__name__
        assert "method" not in parameters, function.__name__
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["fig04", "--backend", "numpy"])

    configs = (
        fig04.Fig04Config, fig09.Fig09Config, fig10.Fig10Config,
        fig11.Fig11Config, fig12.Fig12Config, fig13.Fig13Config,
        ablations.AblationConfig, ServeConfig,
    )
    functions = (
        common.measure_gain_trials, common.power_up_trials,
        common.power_up_probability, common.measure_strategy_gains,
        fig04.peak_factors, fig04._peak_factor_chunk,
        engine.measure_gain_chunk, engine.power_up_chunk,
        engine.strategy_gain_chunk, engine.peak_amplitudes,
    )
    for config in configs:
        names = {field.name for field in dataclasses.fields(config)}
        assert not names & {"engine", "co_stack"}, config.__name__
    for function in functions:
        parameters = set(inspect.signature(function).parameters)
        assert not parameters & {"engine", "co_stack"}, function.__name__


def test_src_never_imports_tests():
    import ast
    from pathlib import Path

    import repro

    offenders = []
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "tests" or m.startswith("tests.") for m in modules):
                offenders.append(str(path))
    assert not offenders, offenders


def _benchmark_targets():
    from perfbench.hooks import HOOKS
    from perfbench.workloads import link_invivo

    targets = [hook.target for hook in HOOKS]
    return targets + [link_invivo.RUN_TRIAL, link_invivo.RESPOND]


@pytest.mark.parametrize("target", _benchmark_targets())
def test_benchmark_targets_resolve(target):
    """Every name the repository benchmark wraps or counts still exists.

    A traced run fails on a hook it cannot resolve, and ``link_invivo``
    computes ``rate_per_s`` from calls to ``RUN_TRIAL``: a rename here
    would crash the one or zero the other.
    """
    from perfbench.spans import _resolve

    owner, attr = _resolve(target)
    assert callable(owner.__dict__[attr])
