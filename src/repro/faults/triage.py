"""Snapshot-based crash triage: bisect "the fault did it" from "the
protocol did it".

When a chaos run trips the watchdog (or an invariant), the interesting
question is attribution: did the injected fault merely *provoke* a
latent protocol bug, or is the stall simply the fault still being
active?  The triage answers it by forking the crash point:

* the world is frozen exactly where the guard tripped
  (:class:`~repro.snapshot.Snapshot` at the crash point);
* fork **with** the fault: restore and run ``grace`` more seconds with
  every installed fault left in place — the control arm, expected to
  keep stalling while the fault persists;
* fork **without** the fault: restore, :func:`neutralize_faults` (loss
  modules cleared, tampering removed, downed links raised, pending
  outage events cancelled, timer skew reset), run the same grace.

If the neutralized fork recovers while the faulted fork stays stuck,
the fault is *implicated* — remove the fault and the protocol heals.
If neither fork recovers, the crash outlives its cause: the sender's
state machine wedged itself, which is exactly the class of bug the
paper's robust-recovery design is about.  Both fork endpoints are
digest-addressed (and, given a store, persisted next to the crash
point) so a failing cell can be replayed and stepped interactively —
see docs/WARMSTART.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.link import Link
from repro.net.loss import NoLoss
from repro.snapshot import Snapshot


def neutralize_faults(scenario) -> List[str]:
    """Strip every installed fault from a restored chaos world, in
    place; returns human-readable notes of what was removed.

    Covers the whole :mod:`repro.faults.plan` action vocabulary: loss
    modules (ACK loss, burst/periodic episodes) are replaced with
    :class:`~repro.net.loss.NoLoss`, tamper chains and reorder
    injectors are detached, downed links are raised and their pending
    ``set_down`` / ``set_up`` outage events cancelled, and every
    sender's RTO timer granularity is reset to its configured value
    (undoing :class:`~repro.faults.plan.TimerSkew`).
    """
    notes: List[str] = []
    sim = scenario.sim
    for name, link in scenario.dumbbell.net.links.items():
        if not isinstance(link.loss, NoLoss):
            notes.append(f"cleared loss on {name}")
            link.loss = NoLoss()
        if link.tamper is not None:
            notes.append(f"removed tamperer on {name}")
            link.tamper = None
        if link.reorder is not None:
            notes.append(f"removed reorderer on {name}")
            link.reorder = None
        if link.is_down:
            notes.append(f"raised downed link {name}")
            link.set_up()
    # Outage actions schedule bare ``Link.set_down`` / ``set_up``
    # callbacks; any still pending would re-fault the neutralized world.
    for _, _, event in sim.heap_entries():
        fn = event.fn
        owner = getattr(fn, "__self__", None)
        if not (event.pending and isinstance(owner, Link)):
            continue
        if getattr(fn, "__func__", None) in (Link.set_down, Link.set_up):
            notes.append(f"cancelled scheduled {fn.__name__} on {owner.name}")
            event.cancel()
    for flow_id, sender in scenario.senders.items():
        configured = sender.config.timer_granularity
        if sender.timer_granularity != configured:
            notes.append(f"reset timer granularity on flow {flow_id}")
            sender.set_timer_granularity(configured)
    return notes


@dataclass
class TriageResult:
    """Outcome of one crash bisection."""

    crash_digest: str
    grace: float
    with_fault_digest: str
    without_fault_digest: str
    with_fault_recovered: bool
    without_fault_recovered: bool
    neutralized: List[str]

    @property
    def fault_implicated(self) -> bool:
        """True when removing the fault is what lets the run heal."""
        return self.without_fault_recovered and not self.with_fault_recovered

    def verdict(self) -> str:
        if self.fault_implicated:
            return "fault implicated: the run heals once the fault is removed"
        if not self.without_fault_recovered:
            return (
                "fault NOT implicated: the stall outlives the fault — "
                "protocol state machine is wedged"
            )
        return "inconclusive: the run heals even with the fault active"

    def format(self) -> str:
        lines = [
            f"triage ({self.grace:.1f}s grace forks from {self.crash_digest[:12]}…):",
            f"  with fault:    recovered={self.with_fault_recovered} "
            f"-> {self.with_fault_digest[:12]}…",
            f"  without fault: recovered={self.without_fault_recovered} "
            f"-> {self.without_fault_digest[:12]}… "
            f"({len(self.neutralized)} faults neutralized)",
            f"  {self.verdict()}",
        ]
        return "\n".join(lines)


def _run_fork(
    snapshot: Snapshot,
    grace: float,
    neutralize: bool,
    store=None,
):
    """Restore one arm, optionally neutralize, run ``grace`` seconds,
    and return (end snapshot digest, recovered, notes)."""
    scenario = snapshot.restore(verify=False)
    notes: List[str] = []
    if neutralize:
        notes = neutralize_faults(scenario)
    baseline = {
        flow_id: (sender.snd_una, sender.completed)
        for flow_id, sender in scenario.senders.items()
    }
    sim = scenario.sim
    sim.run(until=sim.now + grace)
    recovered = any(
        sender.completed or sender.snd_una > baseline[flow_id][0]
        for flow_id, sender in scenario.senders.items()
        if not baseline[flow_id][1]
    )
    label = "triage no-fault fork" if neutralize else "triage fault fork"
    end = Snapshot.capture(scenario, label=f"{label} of {snapshot.digest[:12]}")
    if store is not None:
        store.put(end)
    return end.digest, recovered, notes


def triage_crash(
    snapshot: Snapshot,
    grace: float = 30.0,
    store=None,
) -> TriageResult:
    """Bisect one crash: fork ``snapshot`` with and without the active
    faults, run each ``grace`` seconds, and report which arm recovered.

    ``store`` (a :class:`~repro.runner.warmstart.SnapshotStore`) is
    optional; when given, the crash point and both fork endpoints are
    persisted, so the bisection is replayable after the fact.
    """
    if store is not None:
        store.put(snapshot)
    with_digest, with_recovered, _ = _run_fork(
        snapshot, grace, neutralize=False, store=store
    )
    without_digest, without_recovered, notes = _run_fork(
        snapshot, grace, neutralize=True, store=store
    )
    return TriageResult(
        crash_digest=snapshot.digest,
        grace=grace,
        with_fault_digest=with_digest,
        without_fault_digest=without_digest,
        with_fault_recovered=with_recovered,
        without_fault_recovered=without_recovered,
        neutralized=notes,
    )
