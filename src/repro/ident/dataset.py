"""Labeled scenario grids for fitting and validating the identifier.

Every cell is the golden dumbbell world (one flow, 25-packet buffer,
the paper's Figure-5 configuration) under a specific loss process:
deterministic in-window drop bursts of varying depth and position, and
seeded Gilbert-Elliott burst loss.  Crossing the cells with
the five recovery variants yields the labeled feature vectors the
reference classifier is fitted on.

Two disjoint grids:

* :data:`TRAINING_GRID` — fits the committed reference model
  (``scripts/update_ident.py`` regenerates it).
* :data:`HELDOUT_GRID` — different burst positions/depths and
  different seeds.  Never touches the fit; the acceptance
  bar is perfect (5/5 variants, every cell) identification here, and
  the held-out vectors themselves are committed as the behavior-class
  golden file (``tests/golden/behavior_classes.json``).

:func:`collect_cell` is a module-level ``(variant, key)`` callable so
sweeps can fan cells out through :mod:`repro.runner` task specs and
stay bit-identical serial vs parallel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._record import Record
from repro.config import TcpConfig
from repro.ident.classify import NearestCentroidClassifier
from repro.ident.features import FeatureVector, FlowTraceCollector
from repro.net.loss import DeterministicLoss, GilbertElliott, LossModule
from repro.net.packet import set_uid_state
from repro.net.topology import DumbbellParams
from repro.sim.rng import RngStream

#: The five recovery algorithms the identifier tells apart — same set,
#: same order as the golden digests.
IDENT_VARIANTS: Tuple[str, ...] = ("tahoe", "reno", "newreno", "sack", "rr")

#: One flow, enough backlog to ride through several loss events.
TRANSFER_PACKETS = 400
RUN_UNTIL = 25.0


class IdentScenario(Record, frozen=True):
    """One labeled loss cell over the golden dumbbell.

    ``kind`` is ``"burst"`` (a :class:`DeterministicLoss` run of
    ``n_drops`` consecutive sequence numbers starting at
    ``first_drop``; pass several ``first_drop`` values via ``bursts``)
    or ``"gilbert"`` (seeded two-state Gilbert-Elliott burst loss — the
    stochastic cells, because only multi-drop loss windows exercise
    the mechanisms that distinguish Reno from New-Reno).
    """

    key: str
    kind: str  # "burst" | "gilbert"
    bursts: Tuple[Tuple[int, int], ...] = ()  # (first_drop_seq, n_drops)
    seed: int = 0
    #: Gilbert-Elliott geometry: good->bad and bad->good transition
    #: probabilities, and the bad-state loss probability.
    p_good_to_bad: float = 0.02
    p_bad_to_good: float = 0.4
    p_bad: float = 0.7

    def loss_module(self) -> LossModule:
        if self.kind == "burst":
            drops = [
                (1, first + i)
                for first, n_drops in self.bursts
                for i in range(n_drops)
            ]
            return DeterministicLoss(drops)
        if self.kind == "gilbert":
            return GilbertElliott(
                RngStream(self.seed, f"ident/{self.key}"),
                p_good_to_bad=self.p_good_to_bad,
                p_bad_to_good=self.p_bad_to_good,
                p_bad=self.p_bad,
            )
        raise ValueError(f"unknown scenario kind: {self.kind!r}")


def _burst(key: str, *bursts: Tuple[int, int]) -> IdentScenario:
    return IdentScenario(key=key, kind="burst", bursts=tuple(bursts))


def _gilbert(key: str, seed: int) -> IdentScenario:
    return IdentScenario(key=key, kind="gilbert", seed=seed)


#: Fit cells: burst depths 2-6 at several window positions, plus
#: seeded Gilbert-Elliott burst loss.  Deliberately no single-isolated-
#: drop-only cells: those produce identical Reno and New-Reno behavior
#: (nothing for a *behavior* classifier to learn from).
TRAINING_GRID: Tuple[IdentScenario, ...] = (
    _burst("burst-2@100", (100, 2)),
    _burst("burst-3@100", (100, 3)),
    _burst("burst-4@100", (100, 4)),
    _burst("burst-6@100", (100, 6)),
    _burst("burst-2@60+2@180", (60, 2), (180, 2)),
    _burst("burst-3@60+2@200", (60, 3), (200, 2)),
    _gilbert("gilbert-s7", 7),
    _gilbert("gilbert-s11", 11),
    _gilbert("gilbert-s13", 13),
)

#: Validation cells: positions, depths and seeds the fit never saw.
HELDOUT_GRID: Tuple[IdentScenario, ...] = (
    _burst("burst-2@140", (140, 2)),
    _burst("burst-5@90", (90, 5)),
    _burst("burst-3@70+2@160", (70, 3), (160, 2)),
    _gilbert("gilbert-s23", 23),
    _gilbert("gilbert-s29", 29),
)

_ALL_SCENARIOS: Dict[str, IdentScenario] = {
    scenario.key: scenario for scenario in TRAINING_GRID + HELDOUT_GRID
}
if len(_ALL_SCENARIOS) != len(TRAINING_GRID) + len(HELDOUT_GRID):
    raise AssertionError("ident scenario keys must be unique across grids")


def scenario_by_key(key: str) -> IdentScenario:
    try:
        return _ALL_SCENARIOS[key]
    except KeyError:
        raise KeyError(
            f"unknown ident scenario {key!r}; known: {sorted(_ALL_SCENARIOS)}"
        ) from None


def collect_run(
    variant: str,
    scenario: IdentScenario,
    run_until: float = RUN_UNTIL,
) -> FeatureVector:
    """Run one (variant, cell) and extract the flow's feature vector.

    Mirrors the golden scenario discipline: the global packet-uid
    counter is reset first so the run is reproducible no matter what
    the process simulated before.
    """
    # Lazy import for the same reason golden.py does it: keep
    # repro.ident importable from repro.runner worker processes without
    # dragging the harness stack in at module import.
    from repro.experiments.common import FlowSpec, build_dumbbell_scenario

    set_uid_state(1)
    scenario_result = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=TRANSFER_PACKETS)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
        forward_loss=scenario.loss_module(),
    )
    collector = FlowTraceCollector().install(scenario_result.dumbbell.net.trace)
    try:
        scenario_result.sim.run(until=run_until)
    finally:
        collector.uninstall()
    return collector.features(flow_id=1)


def collect_cell(variant: str, key: str) -> Dict[str, object]:
    """Runner-facing cell: plain-JSON in, plain-JSON out.

    Registered in task specs as ``repro.ident.dataset:collect_cell`` —
    the dict return (not a FeatureVector) keeps cached results stable
    against record evolution.
    """
    vector = collect_run(variant, scenario_by_key(key))
    return {
        "variant": variant,
        "key": key,
        "features": vector.as_dict(),
    }


def _vector_from_cell(cell: Dict[str, object]) -> FeatureVector:
    features = cell["features"]
    assert isinstance(features, dict)
    names = tuple(sorted(features))
    return FeatureVector(
        names=names, values=tuple(float(features[n]) for n in names)
    )


def collect_grid(
    grid: Sequence[IdentScenario],
    variants: Sequence[str] = IDENT_VARIANTS,
    runner: Optional["SweepRunner"] = None,  # noqa: F821 - lazy type
) -> List[Tuple[str, str, FeatureVector]]:
    """Collect ``(variant, key, vector)`` for a full grid cross.

    With a :class:`~repro.runner.SweepRunner`, cells fan out as
    content-addressed task specs (cached, parallel, bit-identical to
    serial); without one they run inline in the same fixed order.
    """
    cells = [
        (variant, scenario.key) for variant in variants for scenario in grid
    ]
    if runner is None:
        results = [collect_cell(variant, key) for variant, key in cells]
    else:
        from repro.runner import TaskSpec

        specs = [
            TaskSpec(
                fn="repro.ident.dataset:collect_cell",
                args=(variant, key),
                label=f"ident/{variant}/{key}",
            )
            for variant, key in cells
        ]
        results = runner.map(specs)
    return [
        (variant, key, _vector_from_cell(cell))
        for (variant, key), cell in zip(cells, results)
    ]


def fit_reference_classifier(
    runner: Optional["SweepRunner"] = None,  # noqa: F821 - lazy type
) -> NearestCentroidClassifier:
    """Fit the reference model over the full training cross."""
    samples = [
        (variant, vector)
        for variant, _key, vector in collect_grid(TRAINING_GRID, runner=runner)
    ]
    return NearestCentroidClassifier.fit(samples)
