"""Registry of scene topology families.

Maps family names (what :class:`repro.scenes.SceneSpec.family` holds)
to their parameter record and builder so the CLI, the scene builder
and the validator all agree on what exists.  Adding a family is one
:data:`FAMILIES` entry; everything downstream (``--list`` output,
spec validation, ``build_scene``) picks it up.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro._record import Record
from repro.errors import ConfigurationError
from repro.net.parkinglot import ParkingLotParams
from repro.net.topology import DumbbellParams
from repro.scenes.topologies import (
    BuiltTopology,
    FatTreeParams,
    MobileParams,
    WaxmanParams,
    build_dumbbell,
    build_fattree,
    build_mobile,
    build_parkinglot,
    build_wan,
)


class SceneFamily(Record, frozen=True):
    """One topology family: name, parameter type, builder, blurb."""

    name: str
    params_cls: type
    builder: Callable[..., BuiltTopology]
    description: str

    def default_params(self) -> Any:
        return self.params_cls()


FAMILIES: Dict[str, SceneFamily] = {
    fam.name: fam
    for fam in (
        SceneFamily(
            "dumbbell",
            DumbbellParams,
            build_dumbbell,
            "single shared bottleneck, n sender/receiver pairs (paper Fig. 4)",
        ),
        SceneFamily(
            "parkinglot",
            ParkingLotParams,
            build_parkinglot,
            "chain of bottlenecks: one long path plus per-hop cross traffic",
        ),
        SceneFamily(
            "mobile",
            MobileParams,
            build_mobile,
            "dumbbell with a time-varying wireless bottleneck"
            " (handover outages, bufferbloat buffer)",
        ),
        SceneFamily(
            "fattree",
            FatTreeParams,
            build_fattree,
            "k-ary fat-tree datacenter fabric, k^3/4 hosts",
        ),
        SceneFamily(
            "wan",
            WaxmanParams,
            build_wan,
            "seeded random Waxman WAN graph with access hosts",
        ),
    )
}


def family(name: str) -> SceneFamily:
    """Look up a family or raise with the list of known ones."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scene family {name!r};"
            f" choose from {sorted(FAMILIES)}"
        ) from None


def default_topology(name: str) -> Any:
    """The family's default parameter object."""
    return family(name).default_params()


def describe_families() -> str:
    """One-line-per-family listing for CLI help output."""
    width = max(len(n) for n in FAMILIES)
    return "\n".join(
        f"  {fam.name.ljust(width)}  {fam.description}"
        for fam in FAMILIES.values()
    )
