"""Unidirectional links with transmission + propagation delay.

A link models one output interface: an ingress queue discipline plus a
transmitter that serves one packet at a time.  A packet of ``size``
bytes occupies the transmitter for ``size * 8 / bandwidth`` seconds and
arrives at the far end ``delay`` seconds after transmission completes —
classic store-and-forward.

Both instants are known the moment a packet enters the transmitter, so
a hop costs one engine event (the arrival).  Only packets that find
the transmitter occupied cost a second one: the link then books a
single service event for the instant the transmitter frees up.

An optional :class:`~repro.net.loss.LossModule` sits in front of the
queue for artificial loss injection ("artificial losses are introduced
at the gateway R1", paper Section 4).
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.loss import LossModule, NoLoss
from repro.net.packet import Packet, maybe_release
from repro.net.queues import PacketQueue
from repro.net.slotstate import SlotState
from repro.sim.engine import Simulator
from repro.sim.tracing import NULL_CHANNEL, TraceBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


class Link(SlotState):
    """One-way link ``src -> dst``.

    Fields live in ``__slots__``, where the compiled hop reads them at
    fixed offsets; the checkpoint state is :class:`SlotState`'s mapping.

    Parameters
    ----------
    sim:
        Event engine.
    name:
        Human-readable identifier, e.g. ``"R1->R2"``.
    bandwidth_bps:
        Link rate in bits per second.
    delay:
        One-way propagation delay in seconds.
    queue:
        Ingress queue discipline (owned by this link).
    trace:
        Optional trace bus; publishes ``link.drop`` / ``link.tx`` records.
    loss:
        Optional artificial loss module applied before the queue.
    """

    __slots__ = (
        "_sim", "name", "bandwidth_bps", "delay", "queue", "trace", "_loss",
        "_loss_active", "_dst", "_recycle", "reorder", "tamper", "_free_at",
        "_serve_pending", "_down", "rate_schedule", "packets_delivered",
        "bytes_delivered", "outage_drops", "_ch_tx",
    )

    #: Derived caches (trace channel, loss-activity and recycle flags),
    #: left out of the state; the loss module is under ``loss``.
    _DERIVED = ("_loss", "_loss_active", "_recycle", "_ch_tx")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        delay: float,
        queue: PacketQueue,
        trace: Optional[TraceBus] = None,
        loss: Optional[LossModule] = None,
    ):
        if bandwidth_bps <= 0:
            raise ConfigurationError(f"bandwidth must be > 0, got {bandwidth_bps}")
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        self._sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.queue = queue
        self.trace = trace
        self.loss = loss or NoLoss()  # property: also derives _loss_active
        self._dst: Optional["Node"] = None
        self._recycle = False  # derived in connect()
        # Optional reordering injector (see repro.net.reorder): adds
        # per-packet extra propagation delay so later packets overtake.
        self.reorder = None
        # Optional packet tamperer (see repro.faults.tamper): may
        # duplicate or corrupt-drop packets before they reach the queue.
        self.tamper = None
        # Transmitter state: the instant the packet in service (if any)
        # leaves it, and whether a _serve event is booked for packets
        # waiting behind it.  Invariant: queue non-empty => _serve_pending.
        self._free_at = sim.now
        self._serve_pending = False
        self._down = False
        # Optional time-varying rate schedule (repro.net.varlink); set
        # by RateSchedule.apply.  None is stripped from checkpoints so
        # unscheduled-link digests are byte-identical to a
        # schedule-unaware build.
        self.rate_schedule = None
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self.outage_drops = 0
        # Let RED age its average using this link's packet service time.
        setter = getattr(queue, "set_mean_packet_time", None)
        if setter is not None:
            setter(8.0 * 1000 / bandwidth_bps)
        queue.on_drop = self._queue_dropped
        # Derived tracing state (never pickled; see __getstate__).
        self._bind_trace_channels()

    # ------------------------------------------------------------------
    # tracing fast path / checkpointing
    # ------------------------------------------------------------------
    def _bind_trace_channels(self):
        """(Re)derive the cached ``link.tx`` channel — the only
        per-packet emit on a link's hot path."""
        trace = self.trace
        self._ch_tx = NULL_CHANNEL if trace is None else trace.channel("link.tx")
        return self._ch_tx

    @property
    def loss(self) -> LossModule:
        return self._loss

    @loss.setter
    def loss(self, module: LossModule) -> None:
        # Cache "is this a real loss module?" so the per-packet path
        # skips the NoLoss.should_drop call entirely.
        self._loss = module
        self._loss_active = type(module) is not NoLoss

    def __getstate__(self):
        """The slots minus derived caches, with the loss module under
        its public ``loss`` key — keeping checkpoints and golden digests
        identical to a cache-free link."""
        state = super().__getstate__()
        state["loss"] = self._loss
        if state.get("rate_schedule") is None:
            state.pop("rate_schedule", None)
        return state

    def __setstate__(self, state) -> None:
        self.rate_schedule = None
        super().__setstate__(state)  # ``loss`` runs the property setter
        self.connect(self._dst)
        # Rebound lazily on first emit: the trace bus may itself still
        # be mid-unpickle here.
        self._ch_tx = None

    def connect(self, dst: "Node") -> None:
        """Attach the receiving node."""
        self._dst = dst
        # Only an endpoint consumes a packet.  One handed to a
        # forwarding node is by now in the next link's queue (or that
        # link just dropped it), so probing the pool there is almost
        # always a miss: attempt the recycle at endpoints only.
        self._recycle = not getattr(dst, "forwards", False)

    @property
    def dst(self) -> Optional["Node"]:
        return self._dst

    @property
    def busy(self) -> bool:
        """True while a packet occupies the transmitter."""
        return self._serve_pending or self._sim.now < self._free_at

    def transmission_time(self, packet: Packet) -> float:
        """Seconds the transmitter is occupied by ``packet``."""
        return packet.size * 8.0 / self.bandwidth_bps

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the link rate at runtime (rate schedules use this as
        their step callback).  Takes effect at the next service start:
        the packet currently in the transmitter keeps the service time
        it was admitted with.  RED's idle-aging clock follows the new
        rate."""
        if bandwidth_bps <= 0:
            raise ConfigurationError(f"bandwidth must be > 0, got {bandwidth_bps}")
        if bandwidth_bps != self.bandwidth_bps:
            self.bandwidth_bps = bandwidth_bps
            setter = getattr(self.queue, "set_mean_packet_time", None)
            if setter is not None:
                setter(8.0 * 1000 / bandwidth_bps)
            self._emit("link.rate", bandwidth_bps=bandwidth_bps)

    # ------------------------------------------------------------------
    # outages
    # ------------------------------------------------------------------
    @property
    def is_down(self) -> bool:
        return self._down

    def set_down(self) -> None:
        """Take the link down: every packet arriving while down is
        destroyed (a natural generator of loss bursts).  Packets
        already in the queue or in flight are unaffected."""
        if not self._down:
            self._down = True
            self._emit("link.down")

    def set_up(self) -> None:
        """Restore the link."""
        if self._down:
            self._down = False
            self._emit("link.up")

    def schedule_outage(self, start: float, duration: float) -> None:
        """Convenience: go down at absolute time ``start`` for
        ``duration`` seconds."""
        if duration < 0:
            raise ConfigurationError("outage duration must be >= 0")
        self._sim.schedule_at(start, self.set_down)
        self._sim.schedule_at(start + duration, self.set_up)

    def send(self, packet: Packet) -> None:
        """Entry point: apply outages, tampering and loss injection,
        queue, and serve at once if the transmitter is idle."""
        if self._down:
            self.outage_drops += 1
            self._emit("link.injected_drop", packet=packet, reason="outage")
            return
        if self.tamper is not None:
            verdict = self.tamper.verdict(packet)
            if verdict == "corrupt":
                # Corruption is modelled as a drop: the checksum fails
                # at the receiver, so the packet might as well vanish.
                self._emit("link.injected_drop", packet=packet, reason="corrupt")
                return
            if verdict == "duplicate":
                self._emit("link.duplicate", packet=packet)
                self._admit(self.tamper.clone(packet))
        # Common path: _admit inlined (one Python frame per packet).
        if self._loss_active and self._loss.should_drop(packet):
            self._loss_dropped(packet)
            return
        if self.queue.enqueue(packet) and not self._serve_pending:
            self._serve()

    def _admit(self, packet: Packet) -> None:
        """Run loss injection and queueing for one packet copy."""
        if self._loss_active and self._loss.should_drop(packet):
            self._loss_dropped(packet)
            return
        if self.queue.enqueue(packet) and not self._serve_pending:
            self._serve()

    def _loss_dropped(self, packet: Packet) -> None:
        """Record that the loss module destroyed ``packet``.  The
        compiled hop calls this too; ``link.tx`` is the only record it
        emits itself."""
        self._emit("link.injected_drop", packet=packet)

    def _queue_dropped(self, packet: Packet, reason: str) -> None:
        self._emit("link.drop", packet=packet, reason=reason, qlen=len(self.queue))

    def _serve(self) -> None:
        """Put the head of the queue into the transmitter and book its
        arrival at the far end.

        Called from :meth:`send` for a packet that found no service
        event pending, and as that service event.  The only engine
        event an idle hop costs is the arrival; a packet that finds the
        transmitter occupied books one ``_serve`` for the instant it
        frees up, which then re-arms itself while packets wait.
        """
        sim = self._sim
        now = sim.now
        if now < self._free_at:
            self._serve_pending = True
            sim.schedule_abs(self._free_at, self._serve)
            return
        packet = self.queue.dequeue()
        if packet is None:
            self._serve_pending = False
            return
        # transmission_time() inlined; the expression must stay exactly
        # ``size * 8.0 / bandwidth`` — a pre-divided constant would
        # round differently and shift every digest-pinned timestamp.
        # Likewise ``done + delay``: the two additions a chained
        # schedule (service, then propagation) would perform.
        done = now + packet.size * 8.0 / self.bandwidth_bps
        self._free_at = done
        ch = self._ch_tx
        if ch is None:
            ch = self._bind_trace_channels()
        if ch.subs:
            ch.emit(now, self.name, packet=packet, done=done)
        delay = self.delay
        if self.reorder is not None:
            delay += self.reorder.extra_delay(packet)
        sim.schedule_abs(done + delay, self._deliver, packet)
        self._serve_pending = waiting = not self.queue.is_empty
        if waiting:
            sim.schedule_abs(done, self._serve)

    #: Exact reference count of a packet at the recycle check below when
    #: only the clean delivery chain holds it: the firing event's args
    #: tuple + this frame's local + maybe_release's argument binding +
    #: sys.getrefcount's temporary.  The consumers (host/agent receive)
    #: have already returned, so the count is independent of how deep
    #: that chain was; a forwarding router's queue, a retained trace
    #: record or any other holder raises it and recycling is skipped.
    _DELIVERED_CLEAN_REFS = 4

    def _deliver(self, packet: Packet) -> None:
        self.packets_delivered += 1
        self.bytes_delivered += packet.size
        if self._dst is None:
            raise ConfigurationError(f"link {self.name} has no destination node")
        self._dst.receive(packet)
        # End of the wire journey for packets consumed by an endpoint:
        # recycle into the packet pool unless anything still holds one.
        if self._recycle:
            maybe_release(packet, self._DELIVERED_CLEAN_REFS)

    def _emit(self, category: str, **fields) -> None:
        if self.trace is not None:
            self.trace.emit(self._sim.now, category, self.name, **fields)
