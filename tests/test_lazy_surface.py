"""API parity of the lazy package surfaces (:mod:`repro._lazy`).

``SEED_SURFACE`` is the public surface at the commit before the package
``__init__`` files became lazy — ``{package: {defining module: names}}``,
generated once from that commit's ``from ... import ...`` lists — so a
name that silently vanishes from, or appears on, a package fails here.
"""

import pickle
import subprocess
import sys
from importlib import import_module

import pytest

SEED_SURFACE = {
    "repro": {
        "repro.app.ftp": "FtpSource",
        "repro.config": "TcpConfig",
        "repro.core.robust_recovery": "RobustRecoverySender RrPhase",
        "repro.errors": (
            "CallbackError ConfigurationError InvariantViolation ProtocolError "
            "ReproError SchedulingError SimulationError TopologyError "
        ),
        "repro.faults": "CampaignRunner CampaignSpec FaultPlan",
        "repro.metrics.flowstats": "FlowStats",
        "repro.net.loss": "AckLoss DeterministicLoss UniformLoss",
        "repro.net.red": "RedParams RedQueue",
        "repro.net.queues": "DropTailQueue",
        "repro.net.topology": "Dumbbell DumbbellParams",
        "repro.sim.engine": "Simulator",
        "repro.tcp.factory": "VARIANTS make_connection",
    },
    "repro.experiments": {
        "repro.experiments.chaos": "ChaosConfig run_chaos",
        "repro.experiments.common": "ScenarioResult build_dumbbell_scenario",
        "repro.experiments.figure5": "Figure5Config run_figure5",
        "repro.experiments.figure6": "Figure6Config run_figure6",
        "repro.experiments.figure7": "Figure7Config run_figure7",
        "repro.experiments.manyflow": "ManyflowConfig run_manyflow",
        "repro.experiments.table5": "Table5Config run_table5",
        "repro.experiments.ackloss": "AckLossConfig run_ackloss",
        "repro.experiments.ablation": "AblationConfig run_ablation",
        "repro.experiments.replication": "Summary format_summaries replicate summarize",
        "repro.experiments.vegas_decomposition": (
            "VegasDecompositionConfig run_vegas_decomposition "
        ),
    },
    "repro.sim": {
        "repro.sim.engine": "Event Simulator",
        "repro.sim.invariants": "InvariantChecker InvariantSuite standard_suite",
        "repro.sim.rng": "RngStream",
        "repro.sim.timers": "Timer",
        "repro.sim.tracing": "TraceBus TraceRecord TraceTail",
        "repro.sim.watchdog": "CrashReport FlowSnapshot Watchdog",
    },
    "repro.net": {
        "repro.net.packet": "ACK DATA Packet SackBlock",
        "repro.net.fairqueue": "FairQueue",
        "repro.net.queues": "DropTailQueue PacketQueue",
        "repro.net.red": "RedParams RedQueue",
        "repro.net.loss": (
            "AckLoss Composite DeterministicLoss GilbertElliott LossModule NoLoss "
            "PeriodicLoss UniformLoss "
        ),
        "repro.net.reorder": (
            "DeterministicReorderer JitterReorderer RandomReorderer Reorderer "
        ),
        "repro.net.link": "Link",
        "repro.net.node": "Agent Host Node Router",
        "repro.net.network": "Network",
        "repro.net.parkinglot": "ParkingLot ParkingLotParams",
        "repro.net.topology": "Dumbbell DumbbellParams",
        "repro.net.varlink": "RateSchedule bufferbloat_limit bufferbloat_queue",
    },
    "repro.tcp": {
        "repro.tcp.base": "SenderObserver TcpSender",
        "repro.tcp.factory": (
            "VARIANTS make_connection receiver_class_for sender_class_for "
        ),
        "repro.tcp.newreno": "NewRenoSender",
        "repro.tcp.receiver": "SackReceiver TcpReceiver",
        "repro.tcp.reno": "RenoSender",
        "repro.tcp.rightedge": "LinKungSender RightEdgeSender",
        "repro.tcp.rtt": "RtoEstimator",
        "repro.tcp.sack": "SackRfc3517Sender SackSender",
        "repro.tcp.scoreboard": "Scoreboard",
        "repro.tcp.smoothstart": (
            "SmoothStartMixin SmoothStartNewRenoSender SmoothStartRenoSender "
            "SmoothStartRrSender "
        ),
        "repro.tcp.tahoe": "TahoeSender",
        "repro.tcp.vegas": "VegasSender",
    },
    "repro.core": {
        "repro.core.robust_recovery": "RobustRecoverySender RrPhase",
    },
    "repro.app": {
        "repro.app.ftp": "FtpSource",
        "repro.app.workload": (
            "FixedSize JitteredArrivals LognormalSizes OnOffSource ParetoSizes "
            "PoissonArrivals StaggeredArrivals "
        ),
    },
    "repro.metrics": {
        "repro.metrics.flowstats": "FlowStats LeanFlowStats RecoveryEpisode",
        "repro.metrics.throughput": (
            "effective_throughput_bps goodput_bps loss_recovery_span "
            "loss_recovery_throughput "
        ),
        "repro.metrics.fairness": "jain_index",
        "repro.metrics.timeseries": "SequenceTracer",
        "repro.metrics.export": "rows_to_csv rows_to_json",
        "repro.metrics.queuemon": "QueueMonitor",
        "repro.metrics.sync": (
            "cluster_loss_events loss_synchronization_index mean_flows_per_event "
        ),
    },
    "repro.models": {
        "repro.models.mathis": (
            "MATHIS_C_ACK_EVERY_PACKET mathis_bandwidth_bps mathis_window "
        ),
        "repro.models.padhye": "padhye_bandwidth_bps",
        "repro.models.fit": "estimate_mathis_c fit_quality relative_errors",
        "repro.models.meanfield": (
            "MeanFieldParams MeanFieldPrediction OracleVerdict "
            "effective_drop_probability meanfield_fixed_point oracle_verdict "
            "red_drop_curve "
        ),
        "repro.models.relentless": (
            "RelentlessModelParams RelentlessPrediction relentless_prediction "
            "relentless_window "
        ),
    },
    "repro.runner": {
        # Storage quarantine moved here from repro.runner.resilience,
        # which left with RetryPolicy; fsck is gone.
        "repro.runner.cache": (
            "CACHE_DIR_ENV DEFAULT_CACHE_DIR QUARANTINE_SUBDIR QuarantineRecord "
            "ResultCache read_quarantine "
        ),
        "repro.runner.fingerprint": "code_fingerprint package_root",
        # Added after the seed: the grid executor (step_until moved here
        # from repro.runner.warmstart).
        "repro.runner.grid": "GridCell run_grid step_until",
        "repro.runner.pool": (
            "SweepObserver SweepRunner SweepStats TaskRecord "
        ),
        "repro.runner.spec": "TaskSpec canonicalize resolve uncanonicalize",
        # The cost model, the prefix index and its self-healing readers
        # are gone: the store is a hand-off within one warm run_grid call.
        "repro.runner.warmstart": "SNAPSHOT_SUBDIR SnapshotStore",
    },
    "repro.snapshot": {
        "repro.snapshot.core": "SNAPSHOT_FORMAT Snapshot SnapshotInfo",
        # DELTA_FORMAT left with the on-disk delta format; the codec is
        # in-memory only.
        "repro.snapshot.delta": "DeltaInfo DeltaSnapshot",
        "repro.snapshot.digest": "DIGEST_VERSION state_digest state_fingerprints",
        "repro.snapshot.golden": (
            "CHECKPOINT_TIMES GOLDEN_VARIANTS all_golden_digests "
            "build_golden_scenario golden_digests "
        ),
    },
    "repro.obs": {
        "repro.obs.heartbeat": "HeartbeatLog read_events",
        "repro.obs.manifest": (
            "ARTIFACT_DIR_ENV DEFAULT_ARTIFACT_DIR EVENTS_FILENAME "
            "MANIFEST_FILENAME MANIFEST_FORMAT PROFILES_SUBDIR RUNS_SUBDIR "
            "RunManifest artifact_root new_run_id runs_root "
        ),
        "repro.obs.profiling": (
            "HotFunction hot_functions hot_functions_report merged_stats "
            "profile_paths "
        ),
        "repro.obs.progress": "ProgressLine",
        "repro.obs.telemetry": "RunTelemetry",
    },
    "repro.faults": {
        "repro.faults.campaign": "CampaignRunner CampaignSpec",
        "repro.faults.plan": (
            "AckLossEpisode BurstLossEpisode FaultAction FaultContext FaultPlan "
            "LinkFlap LinkOutage PacketCorruption PacketDuplication "
            "PeriodicDropEpisode RouterBlackout TimerSkew "
        ),
        "repro.faults.tamper": "PacketTamperer",
        "repro.faults.triage": "TriageResult neutralize_faults triage_crash",
    },
    "repro.scenes": {
        "repro.scenes.build": "Scene build_scene",
        "repro.scenes.registry": (
            "FAMILIES SceneFamily default_topology describe_families family "
        ),
        "repro.scenes.spec": (
            "ARRIVAL_PROCESSES SIZE_DISTS ArrivalSpec FlowPopulation SceneSpec "
        ),
        "repro.scenes.topologies": (
            "BuiltTopology FatTreeParams MobileParams WaxmanParams build_dumbbell "
            "build_fattree build_mobile build_parkinglot build_wan "
        ),
    },
    "repro.ident": {
        "repro.ident.classify": "NearestCentroidClassifier",
        "repro.ident.dataset": (
            "HELDOUT_GRID IDENT_VARIANTS TRAINING_GRID IdentScenario collect_cell "
            "collect_grid collect_run fit_reference_classifier scenario_by_key "
        ),
        "repro.ident.features": (
            "FEATURE_NAMES FeatureVector FlowTrace FlowTraceCollector "
            "extract_features "
        ),
        "repro.ident.oracle": (
            "IdentityVerdict identify_features identify_trace "
            "load_reference_classifier reference_model_path "
        ),
    },
    "repro.viz": {
        "repro.viz.ascii": "ascii_scatter ascii_step_series format_table",
    },
}

PACKAGES = sorted(SEED_SURFACE)


def seed_names(package):
    """``{name: defining module}`` of ``package`` at the seed."""
    return {
        name: module
        for module, names in SEED_SURFACE[package].items()
        for name in names.split()
    }


@pytest.mark.parametrize("package", PACKAGES)
class TestLazySurface:
    def test_public_names_equal_the_seed(self, package):
        expected = set(seed_names(package))
        if package == "repro":
            expected.add("__version__")
        exported = import_module(package).__all__
        assert set(exported) == expected
        assert len(exported) == len(set(exported))

    def test_names_are_the_defining_modules_objects(self, package):
        pkg = import_module(package)
        for name, module in seed_names(package).items():
            assert getattr(pkg, name) is getattr(import_module(module), name), name

    def test_dir_lists_every_export(self, package):
        pkg = import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_star_import(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert set(import_module(package).__all__) <= set(namespace)

    def test_unknown_attribute_names_the_package(self, package):
        pkg = import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            pkg.no_such_name
        assert not hasattr(pkg, "_no_such_private")

    def test_classes_pickle_by_defining_module(self, package):
        pkg = import_module(package)
        for name in seed_names(package):
            value = getattr(pkg, name)
            if isinstance(value, type):
                assert value.__module__ not in PACKAGES, name
                assert pickle.loads(pickle.dumps(value)) is value


def test_submodules_resolve_as_attributes():
    # ``import repro`` alone used to make ``repro.sim.engine`` reachable.
    code = (
        "import repro\n"
        "assert repro.sim.engine.Simulator is repro.Simulator\n"
        "assert repro.experiments.figure5.run_figure5 is repro.experiments.run_figure5\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
