"""Declarative scene specifications with canonical digests.

A :class:`SceneSpec` names everything that determines a generated
world: the topology family and its parameters, the flow population
(count, TCP variant, size distribution), the arrival process, the
optional RED configuration for the bottleneck queues, the root seed
and the run duration.  Specs are plain records built from the same
:func:`repro.runner.spec.canonicalize` vocabulary as TaskSpecs, so

* :meth:`SceneSpec.digest` is a stable SHA-256 content address — equal
  scenes hash equal regardless of process or argument spelling;
* a spec can ride inside a TaskSpec argument tuple unchanged, which is
  how ``manyflow`` fans scene cells out over the worker pool;
* :meth:`SceneSpec.to_json` / :meth:`SceneSpec.from_json` round-trip
  through the canonical encoding (digest-preserving), so specs can be
  stored next to manifests and rebuilt months later.

The determinism contract mirrors TaskSpec's: every random draw inside
:func:`repro.scenes.build_scene` derives from fields of the spec, so
same digest => bit-identical world, serial == parallel, cold ==
snapshot-restored (pinned by tests/scenes/test_determinism.py).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

from repro._record import Record, field
from repro.config import TcpConfig
from repro.errors import ConfigurationError
from repro.net.red import RedParams
from repro.runner.spec import canonicalize, uncanonicalize

#: Flow-size distributions understood by :func:`repro.scenes.build_scene`.
SIZE_DISTS = ("infinite", "fixed", "pareto", "lognormal")

#: Arrival processes understood by :func:`repro.scenes.build_scene`.
ARRIVAL_PROCESSES = ("jitter", "staggered", "poisson", "onoff")


class FlowPopulation(Record, frozen=True):
    """Who sends: how many flows, which variant, how much data."""

    count: int = 10
    variant: str = "rr"
    #: One of :data:`SIZE_DISTS`.  ``infinite`` ignores the size knobs.
    size_dist: str = "infinite"
    mean_packets: float = 100.0
    pareto_shape: float = 1.5
    lognormal_sigma: float = 1.0
    min_packets: int = 1

    def validate(self) -> None:
        if self.count < 1:
            raise ConfigurationError("a scene needs at least one flow")
        if self.size_dist not in SIZE_DISTS:
            raise ConfigurationError(
                f"unknown size_dist {self.size_dist!r}; choose from {SIZE_DISTS}"
            )
        from repro.tcp.factory import VARIANTS

        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown TCP variant {self.variant!r};"
                f" choose from {sorted(VARIANTS)}"
            )


class ArrivalSpec(Record, frozen=True):
    """When flows start (and, for on/off, how they modulate)."""

    #: One of :data:`ARRIVAL_PROCESSES`.
    process: str = "jitter"
    #: ``poisson``: mean arrivals per second.
    rate: float = 50.0
    #: ``staggered``: seconds between consecutive starts.
    stagger: float = 0.01
    #: ``jitter``: uniform start window width, seconds.
    jitter: float = 0.1
    #: ``onoff``: mean burst size (packets) and mean off period (s).
    on_packets: int = 50
    off_seconds: float = 0.5

    def validate(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ConfigurationError(
                f"unknown arrival process {self.process!r};"
                f" choose from {ARRIVAL_PROCESSES}"
            )
        if self.rate <= 0 or self.stagger < 0 or self.jitter < 0:
            raise ConfigurationError("arrival knobs must be non-negative (rate > 0)")
        if self.on_packets < 1 or self.off_seconds <= 0:
            raise ConfigurationError("on/off knobs must be positive")


class SceneSpec(Record):
    """One generated world, content-addressably."""

    family: str = "dumbbell"
    #: Family parameter record (e.g. DumbbellParams, WaxmanParams);
    #: ``None`` takes the family's registry default.
    topology: Any = None
    flows: FlowPopulation = field(default_factory=FlowPopulation)
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: RED parameters applied to every designated bottleneck queue;
    #: ``None`` keeps the family's drop-tail default.
    red: Optional[RedParams] = None
    #: TCP agent tunables for every flow (delayed ACKs, ECN, ...);
    #: ``None`` keeps the TcpConfig defaults.  Carried in the spec so
    #: the knobs participate in the content address — a delayed-ACK
    #: scene and its immediate-ACK twin hash differently.
    tcp: Optional[TcpConfig] = None
    seed: int = 1
    duration: float = 10.0

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> "SceneSpec":
        from repro.scenes.registry import family as lookup_family

        fam = lookup_family(self.family)
        if self.topology is not None and not isinstance(
            self.topology, fam.params_cls
        ):
            raise ConfigurationError(
                f"scene family {self.family!r} takes"
                f" {fam.params_cls.__name__}, got"
                f" {type(self.topology).__name__}"
            )
        self.flows.validate()
        self.arrivals.validate()
        if self.red is not None:
            self.red.validate()
        if self.tcp is not None:
            self.tcp.validate()
        if self.duration <= 0:
            raise ConfigurationError("scene duration must be positive")
        return self

    # ------------------------------------------------------------------
    # content addressing / (de)serialization
    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """Canonical JSON encoding (the digest preimage)."""
        return json.dumps(canonicalize(self), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Stable SHA-256 content address of the scene."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        """Pretty canonical encoding, for storing next to manifests."""
        return json.dumps(canonicalize(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SceneSpec":
        """Rebuild a spec from :meth:`to_json` / :meth:`canonical`
        output (digest-preserving round trip)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"scene spec does not parse as JSON: {exc}"
            ) from exc
        spec = uncanonicalize(payload)
        if not isinstance(spec, cls):
            raise ConfigurationError(
                f"scene spec JSON does not encode a {cls.__name__}"
            )
        return spec
