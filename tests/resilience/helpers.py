"""Picklable fault-injection cells for the infra-chaos suite.

These are module-level functions (so :class:`~repro.runner.spec.
TaskSpec` can name them) that misbehave in controlled ways: die by
SIGKILL, stall past a deadline, or fail until a sentinel file appears.
The sentinel-file pattern makes "flaky" deterministic per *attempt*:
the first execution creates the sentinel and then misbehaves, so every
retry finds the sentinel and succeeds — letting tests assert both the
failure handling and the bit-identity of the retried result.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from repro.snapshot.golden import build_golden_scenario


def run_metrics_cell(variant: str, until: float = 6.0) -> dict:
    """A well-behaved deterministic cell: build a golden scenario, run
    it, and return scalar metrics (the payload used for bit-identity
    assertions across retries / pool kills / serial runs)."""
    world = build_golden_scenario(variant)
    world.sim.run(until=until)
    sender = world.senders[1]
    return {
        "variant": variant,
        "snd_una": sender.snd_una,
        "cwnd": sender.cwnd,
        "events": world.sim.events_processed,
        "timeouts": sender.timeouts,
    }


def flaky_metrics_cell(variant: str, sentinel: str, until: float = 6.0) -> dict:
    """Raise on the first execution (before creating the sentinel the
    retry will find), succeed identically afterwards."""
    path = Path(sentinel)
    if not path.exists():
        path.write_text("tried", encoding="utf-8")
        raise RuntimeError(f"injected first-attempt failure ({variant})")
    return run_metrics_cell(variant, until=until)


def sigkill_metrics_cell(variant: str, sentinel: str, until: float = 6.0) -> dict:
    """SIGKILL the worker mid-task on the first execution, succeed
    identically on retry — the paper-grid analogue of a node crash."""
    path = Path(sentinel)
    if not path.exists():
        path.write_text("tried", encoding="utf-8")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_metrics_cell(variant, until=until)


def stall_cell(sentinel: str, seconds: float = 3600.0) -> str:
    """Record the attempt, then stall far past any test deadline."""
    path = Path(sentinel)
    count = int(path.read_text()) if path.exists() else 0
    path.write_text(str(count + 1), encoding="utf-8")
    time.sleep(seconds)
    return "never reached under a deadline"


def stall_once_cell(sentinel: str, seconds: float = 3600.0) -> str:
    """Stall on the first execution only; succeed on retry."""
    path = Path(sentinel)
    if not path.exists():
        path.write_text("tried", encoding="utf-8")
        time.sleep(seconds)
    return "recovered"


def always_fails(message: str = "injected failure") -> None:
    raise RuntimeError(message)


def build_stalled_world(variant: str = "rr", packets: int = 400, advance_to: float = 0.5):
    """A transfer whose forward path goes dark at t=1.0, advanced to a
    capture point *before* the outage (the watchdog-under-restore
    prefix)."""
    from repro.experiments.common import FlowSpec, build_dumbbell_scenario
    from repro.net.packet import set_uid_state
    from repro.net.topology import DumbbellParams

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
    from repro.sim.watchdog import Watchdog

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
    """Cold path of the watchdog-under-restore contract."""
    return watchdog_metrics(build_stalled_world())


def watchdog_cell_from_snapshot(
    digest: str, store_root: str, sentinel: str = ""
) -> dict:
    """Warm path: restore the stalled prefix and re-arm the watchdog.
    With a ``sentinel``, the first attempt fails before restoring, so a
    retry exercises restore-under-retry."""
    from repro.runner.warmstart import SnapshotStore

    if sentinel:
        path = Path(sentinel)
        if not path.exists():
            path.write_text("tried", encoding="utf-8")
            raise RuntimeError("injected failure before restore")
    return watchdog_metrics(SnapshotStore(store_root).get(digest).restore())


def unpicklable_result_cell() -> object:
    """Succeeds, but returns something the cache cannot pickle."""
    return lambda: None  # pragma: no cover - never called
