"""Declarative, seeded, content-addressable scenario generation.

``repro.scenes`` grows the harness beyond the paper's three-pair
dumbbell: a :class:`SceneSpec` names a topology family (generalized
dumbbell, parking lot, k-ary fat-tree, seeded Waxman WAN), a flow
population with heavy-tailed sizes, an arrival process and a RED
configuration — and :func:`build_scene` turns it into a ready-to-run
world, bit-identically for equal spec digests.  The ``manyflow``
experiment sweeps these scenes and checks the measured RED queue
against the mean-field fixed point in :mod:`repro.models.meanfield`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "build": ("Scene", "build_scene"),
        "registry": (
            "FAMILIES",
            "SceneFamily",
            "default_topology",
            "describe_families",
            "family",
        ),
        "spec": (
            "ARRIVAL_PROCESSES",
            "SIZE_DISTS",
            "ArrivalSpec",
            "FlowPopulation",
            "SceneSpec",
        ),
        "topologies": (
            "BuiltTopology",
            "FatTreeParams",
            "MobileParams",
            "WaxmanParams",
            "build_dumbbell",
            "build_fattree",
            "build_mobile",
            "build_parkinglot",
            "build_wan",
        ),
    },
)
