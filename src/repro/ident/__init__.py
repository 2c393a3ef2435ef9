"""Trace-based TCP variant identification (the behavior-class oracle).

Following Ahmed et al.'s congestion-control identification work
(PAPERS.md), this package decides *which recovery algorithm produced a
run* from its trace-bus emissions alone — no access to sender
internals, no golden digests.  The pipeline:

* :mod:`repro.ident.features` — a :class:`FlowTraceCollector`
  subscribes to the ``tcp.*`` channels of a live
  :class:`~repro.sim.tracing.TraceBus` and reduces each flow's record
  stream to a deterministic :class:`FeatureVector` of behavioral shape
  descriptors (cwnd-trajectory response to loss, dup-ACK send
  coupling, recovery-exit burst signature, backoffs per loss window —
  the RR discriminator).  The emitting source's variant label is
  stripped before extraction: features describe *dynamics*, never
  names.
* :mod:`repro.ident.classify` — a seeded, dependency-free
  nearest-centroid classifier over z-scored features; picklable, and
  serializable to canonical JSON with a stable content digest.
* :mod:`repro.ident.dataset` — labeled scenario grids (drop bursts and
  seeded random loss over the paper's dumbbell) that generate training
  and held-out feature vectors through :mod:`repro.runner` task specs.
* :mod:`repro.ident.oracle` — the wiring surface: the committed
  reference classifier, :func:`identify_features`, and the
  :class:`IdentityVerdict` the chaos harness and the ``identify`` CLI
  record in run manifests.

The committed artifacts (``src/repro/ident/reference_model.json`` and
``tests/golden/behavior_classes.json``) form the behavior-class
regression gate: a refactor that changes a variant's *behavior* drifts
its feature vectors and fails the gate even when the golden state
digests were legitimately regenerated, while a digest-only refactor
(same dynamics, different pickle bytes) sails through.  See
docs/IDENTIFICATION.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "classify": ("NearestCentroidClassifier",),
        "dataset": (
            "HELDOUT_GRID",
            "IDENT_VARIANTS",
            "TRAINING_GRID",
            "IdentScenario",
            "collect_cell",
            "collect_grid",
            "collect_run",
            "fit_reference_classifier",
            "scenario_by_key",
        ),
        "features": (
            "FEATURE_NAMES",
            "FeatureVector",
            "FlowTrace",
            "FlowTraceCollector",
            "extract_features",
        ),
        "oracle": (
            "IdentityVerdict",
            "identify_features",
            "identify_trace",
            "load_reference_classifier",
            "reference_model_path",
        ),
    },
)
