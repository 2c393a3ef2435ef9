"""A transfer whose path goes dark, and a watchdog armed on it, for
the cold-vs-restored tests (module-level, so a :class:`~repro.runner.
spec.TaskSpec` can name the cells); and a queue discipline of the
tests' own."""

from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.packet import set_uid_state
from repro.net.queues import PacketQueue
from repro.net.topology import DumbbellParams
from repro.runner.warmstart import SnapshotStore
from repro.sim.watchdog import Watchdog


def build_stalled_world(variant: str = "rr", packets: int = 400, advance_to: float = 0.5):
    """A transfer whose forward path goes dark at t=1.0, advanced to a
    capture point *before* the outage."""
    set_uid_state(1)
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=packets)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
    )
    scenario.sim.schedule(1.0, scenario.dumbbell.forward_link.set_down)
    scenario.sim.run(until=advance_to)
    return scenario


def watchdog_metrics(world) -> dict:
    """Arm a fresh watchdog on ``world`` and run to the trip (or 600s);
    the returned scalars pin down the whole abort behavior."""
    watchdog = Watchdog(
        world.sim,
        senders=world.senders,
        stall_timeout=5.0,
        check_interval=0.5,
    ).arm()
    world.sim.run(until=600.0)
    report = watchdog.report
    return {
        "triggered": watchdog.triggered,
        "reason": report.reason if report else None,
        "t": world.sim.now,
        "events": world.sim.events_processed,
        "stalled": report.stalled_flows if report else [],
        "stop_reason": world.sim.stop_reason,
    }


def watchdog_cell_cold() -> dict:
    """The stalled transfer, watched from the start."""
    return watchdog_metrics(build_stalled_world())


def watchdog_cell_from_snapshot(digest: str, store_root: str) -> dict:
    """The stalled prefix restored from the store, then watched."""
    return watchdog_metrics(SnapshotStore(store_root).get(digest).restore())


class FlowCountingQueue(PacketQueue):
    """Drop-tail that also counts drops per flow.

    It declares no ``__slots__``, so its own field lives in an instance
    dict next to :class:`PacketQueue`'s slots, and it is not exactly a
    drop-tail or RED queue, so the compiled hop hands it to Python.
    """

    def __init__(self, limit: int, name: str = "fcq"):
        super().__init__(limit, name=name)
        self.drops_by_flow = {}

    def enqueue(self, packet) -> bool:
        if len(self._items) >= self.limit:
            flow = packet.flow_id
            self.drops_by_flow[flow] = self.drops_by_flow.get(flow, 0) + 1
            return self._drop(packet, "overflow")
        return self._accept(packet)

    def reset_counters(self) -> None:
        super().reset_counters()
        self.drops_by_flow.clear()
