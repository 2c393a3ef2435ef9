"""Online invariant checking over the trace bus.

The simulator's components publish typed trace records as they run
(:mod:`repro.sim.tracing`); the checkers here subscribe to those
records and raise :class:`~repro.errors.InvariantViolation` — with the
recent trace tail attached — the moment a run contradicts itself,
instead of letting a corrupted state machine limp on to a misleading
result.  This is the runtime-verification half of the chaos harness
(see docs/FAULTS.md): fault campaigns make the simulator *survive*
adversarial conditions, invariant checkers prove it stayed *correct*
while doing so.

Checked invariants (DESIGN.md §7's property list, enforced online):

* cumulative ACKs never regress per flow (:class:`AckMonotonicity`);
* ``snd_una <= snd_nxt <= maxseq`` at every send/ACK
  (:class:`SendWindowSanity`);
* RR's ``actnum`` and ``ndup`` stay non-negative (:class:`RrStateSanity`);
* the recovery exit threshold ``recover`` only advances within an
  episode (:class:`RecoverMonotonic`);
* RR, New-Reno and SACK cut ``ssthresh`` at most once per loss window
  (:class:`OneCutPerLossWindow`);
* a RED gateway's averaged queue length stays within ``[0, buffer]``
  (:class:`RedAverageBounds`);
* instantaneous queue occupancy stays within ``[0, limit]``
  (:class:`QueueOccupancyBounds`).

The suite listens on the wildcard, which carries every category but the
by-name-only ``link.tx`` (:attr:`TraceBus.BY_NAME_ONLY`): the queue
probes sample at protocol, drop and link-state records, not at each
hop's service start.

Usage::

    suite = InvariantSuite.standard()
    suite.watch_queue(bell.bottleneck_queue)
    suite.install(bell.net.trace)
    sim.run(until=...)        # raises InvariantViolation on first breach
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import InvariantViolation
from repro.sim.tracing import TraceBus, TraceRecord, TraceTail


class InvariantChecker:
    """One online invariant.

    Subclasses set ``categories`` (trace categories that can affect the
    invariant; empty = probe on every record) and implement
    :meth:`check`, calling :meth:`fail` on a breach.
    """

    #: trace categories this checker reacts to; () = every record.
    categories: Tuple[str, ...] = ()
    name = "invariant"

    def __init__(self) -> None:
        self._suite: Optional["InvariantSuite"] = None
        self.records_checked = 0

    def check(self, record: TraceRecord) -> None:
        raise NotImplementedError

    def fail(self, record: TraceRecord, message: str) -> None:
        tail = self._suite.tail.records() if self._suite is not None else []
        raise InvariantViolation(
            f"[{self.name}] {message} (at t={record.time:.6f}, "
            f"source={record.source})",
            invariant=self.name,
            record=record,
            tail=tail,
        )


class AckMonotonicity(InvariantChecker):
    """The cumulative ACK level of a flow never moves backwards."""

    categories = ("tcp.ack",)
    name = "ack-monotonic"

    def __init__(self) -> None:
        super().__init__()
        self._last: Dict[str, int] = {}

    def check(self, record: TraceRecord) -> None:
        ackno = record.fields.get("ackno")
        if ackno is None:
            return
        last = self._last.get(record.source)
        if last is not None and ackno < last:
            self.fail(
                record,
                f"cumulative ACK regressed from {last} to {ackno}",
            )
        self._last[record.source] = ackno


class SendWindowSanity(InvariantChecker):
    """``snd_una <= snd_nxt <= maxseq`` whenever the sender reports
    its window pointers."""

    categories = ("tcp.send", "tcp.ack", "tcp.timeout")
    name = "send-window"

    def check(self, record: TraceRecord) -> None:
        fields = record.fields
        snd_una = fields.get("snd_una")
        snd_nxt = fields.get("snd_nxt")
        if snd_una is None or snd_nxt is None:
            return
        if snd_una > snd_nxt:
            self.fail(record, f"snd_una={snd_una} > snd_nxt={snd_nxt}")
        maxseq = fields.get("maxseq")
        if maxseq is not None and snd_nxt > maxseq:
            self.fail(record, f"snd_nxt={snd_nxt} > maxseq={maxseq}")


class RrStateSanity(InvariantChecker):
    """RR's recovery bookkeeping stays in range: ``actnum >= 0`` and
    ``ndup >= 0`` (Table 2 variables)."""

    categories = ("tcp.rr",)
    name = "rr-state"

    def check(self, record: TraceRecord) -> None:
        actnum = record.fields.get("actnum")
        if actnum is not None and actnum < 0:
            self.fail(record, f"actnum={actnum} < 0")
        ndup = record.fields.get("ndup")
        if ndup is not None and ndup < 0:
            self.fail(record, f"ndup={ndup} < 0")


class RecoverMonotonic(InvariantChecker):
    """Within one recovery episode the exit threshold only advances
    (Section 2.2: further losses *extend* the exit point; nothing may
    pull it back).  Tracking resets when the episode ends — by exit or
    by timeout, which legitimately rewinds ``recover``."""

    categories = ("tcp.recovery_enter", "tcp.rr", "tcp.recovery_exit", "tcp.timeout")
    name = "recover-monotonic"

    def __init__(self) -> None:
        super().__init__()
        self._recover: Dict[str, int] = {}

    def check(self, record: TraceRecord) -> None:
        source = record.source
        if record.category in ("tcp.recovery_exit", "tcp.timeout"):
            self._recover.pop(source, None)
            return
        recover = record.fields.get("recover")
        if recover is None:
            return
        if record.category == "tcp.recovery_enter":
            self._recover[source] = recover
            return
        last = self._recover.get(source)
        if last is None:
            return  # not inside a tracked episode
        if recover < last:
            self.fail(
                record,
                f"recovery exit threshold regressed from {last} to {recover}",
            )
        self._recover[source] = recover


class OneCutPerLossWindow(InvariantChecker):
    """The paper's central claim: at most one ``ssthresh`` cut per loss
    window.  A flow enters fast recovery again (a second cut) only once
    ``snd_una`` has reached the end of the previous loss window.

    The end of the window is the last ``recover`` seen for the episode:
    the one ``tcp.recovery_enter`` carries, moved by ``tcp.rr`` where RR
    extends its exit point on a further loss.  After a timeout it is the
    ``maxseq`` the ``tcp.timeout`` record carries, since the go-back-N
    resends re-send the whole window.  Scoped to the sources labelled
    ``rr/``, ``newreno/`` and ``sack/``, the variants that guard their
    entry; Reno and Tahoe cut again within a window by design.  ECN
    reactions (a cut at most once per RTT, outside recovery) are out of
    scope.
    """

    categories = ("tcp.recovery_enter", "tcp.rr", "tcp.timeout")
    name = "one-cut-per-window"
    scope = ("rr/", "newreno/", "sack/")

    def __init__(self) -> None:
        super().__init__()
        self._end: Dict[str, int] = {}

    def check(self, record: TraceRecord) -> None:
        source = record.source
        if not source.startswith(self.scope):
            return
        fields = record.fields
        if record.category == "tcp.timeout":
            end = fields.get("maxseq")
        else:
            end = fields.get("recover")
        if end is None:
            return
        if record.category == "tcp.recovery_enter":
            last = self._end.get(source)
            snd_una = fields.get("snd_una")
            if last is not None and snd_una is not None and snd_una < last:
                self.fail(
                    record,
                    f"second ssthresh cut: recovery entered at snd_una={snd_una} "
                    f"before the previous loss window ended at {last}",
                )
        self._end[source] = end


class QueueOccupancyBounds(InvariantChecker):
    """A queue's instantaneous occupancy stays within ``[0, limit]``.

    A probe: it inspects the queue object directly on every record the
    suite receives, so it needs no queue-side trace emission.
    """

    name = "queue-occupancy"

    def __init__(self, queue) -> None:
        super().__init__()
        self.queue = queue

    def check(self, record: TraceRecord) -> None:
        occupancy = len(self.queue)
        if not 0 <= occupancy <= self.queue.limit:
            self.fail(
                record,
                f"queue {self.queue.name!r} occupancy {occupancy} outside "
                f"[0, {self.queue.limit}]",
            )


class RedAverageBounds(InvariantChecker):
    """A RED gateway's EWMA queue average stays within ``[0, buffer]``
    (the average is a convex combination of occupancies, so escaping
    the physical buffer range means the EWMA arithmetic went wrong)."""

    name = "red-average"

    def __init__(self, queue) -> None:
        super().__init__()
        self.queue = queue

    def check(self, record: TraceRecord) -> None:
        avg = self.queue.avg
        if not 0.0 <= avg <= self.queue.limit:
            self.fail(
                record,
                f"RED queue {self.queue.name!r} average {avg:.4f} outside "
                f"[0, {self.queue.limit}]",
            )


class InvariantSuite:
    """A set of checkers sharing one trace tail.

    The suite subscribes a single wildcard listener (every category but
    ``link.tx``): each record is appended to the tail *first* (so the
    offending record is part of the attached evidence), then dispatched
    to the category-matched checkers and to every probe.
    """

    def __init__(self, tail_size: int = 50):
        self.tail = TraceTail(tail_size)
        self.checkers: List[InvariantChecker] = []
        # What a record visits, in order: the checkers listing its
        # category, then every probe (alone, for an unlisted category).
        self._dispatch: Dict[str, Tuple[InvariantChecker, ...]] = {}
        self._probes: Tuple[InvariantChecker, ...] = ()
        self.records_seen = 0
        self._bus: Optional[TraceBus] = None

    @classmethod
    def standard(cls, tail_size: int = 50) -> "InvariantSuite":
        """The default TCP/RR checker set (no queue probes; add those
        with :meth:`watch_queue` once the topology exists)."""
        suite = cls(tail_size=tail_size)
        suite.add(AckMonotonicity())
        suite.add(SendWindowSanity())
        suite.add(RrStateSanity())
        suite.add(RecoverMonotonic())
        suite.add(OneCutPerLossWindow())
        return suite

    def add(self, checker: InvariantChecker) -> "InvariantSuite":
        checker._suite = self
        self.checkers.append(checker)
        self._probes = tuple(c for c in self.checkers if not c.categories)
        self._dispatch = {
            category: tuple(c for c in self.checkers if category in c.categories)
            + self._probes
            for listed in self.checkers
            for category in listed.categories
        }
        return self

    def watch_queue(self, queue) -> "InvariantSuite":
        """Register occupancy bounds for ``queue`` — and, when it looks
        like a RED queue (has an ``avg``), the RED average bounds too."""
        self.add(QueueOccupancyBounds(queue))
        if hasattr(queue, "avg"):
            self.add(RedAverageBounds(queue))
        return self

    def install(self, bus: TraceBus) -> "InvariantSuite":
        """Start checking what ``bus``'s wildcard carries."""
        if self._bus is not None:
            raise ValueError("suite is already installed on a bus")
        self._bus = bus
        bus.subscribe(TraceBus.WILDCARD, self._on_record)
        return self

    def uninstall(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(TraceBus.WILDCARD, self._on_record)
            self._bus = None

    def _on_record(self, record: TraceRecord) -> None:
        # Straight onto the tail's deque: this runs for every record,
        # and a TraceTail.append frame costs as much as a check.
        self.tail._records.append(record)
        self.records_seen += 1
        for checker in self._dispatch.get(record.category, self._probes):
            checker.records_checked += 1
            checker.check(record)
