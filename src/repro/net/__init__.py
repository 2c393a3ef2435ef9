"""Network substrate: packets, links, queues, loss modules, nodes, topologies.

This subpackage provides the packet-level plumbing the TCP agents run
over.  The model follows ns-2 closely: unidirectional links with a
transmission + propagation delay and an ingress queue discipline,
store-and-forward routers with static shortest-path routing, and hosts
that deliver packets to per-flow agents.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "packet": ("ACK", "DATA", "Packet", "SackBlock"),
        "queues": ("DropTailQueue", "PacketQueue"),
        "red": ("RedParams", "RedQueue"),
        "loss": (
            "AckLoss",
            "Composite",
            "DeterministicLoss",
            "GilbertElliott",
            "LossModule",
            "NoLoss",
            "PeriodicLoss",
            "UniformLoss",
        ),
        "reorder": (
            "DeterministicReorderer",
            "JitterReorderer",
            "RandomReorderer",
            "Reorderer",
        ),
        "link": ("Link",),
        "node": ("Agent", "Host", "Node", "Router"),
        "network": ("Network",),
        "parkinglot": ("ParkingLot", "ParkingLotParams"),
        "topology": ("Dumbbell", "DumbbellParams"),
        "varlink": ("RateSchedule", "bufferbloat_limit"),
    },
)
