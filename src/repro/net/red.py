"""Random Early Detection (RED) gateway.

Implements the algorithm of Floyd & Jacobson, "Random Early Detection
Gateways for Congestion Avoidance" (ToN 1993), which the paper uses for
the Figure 6 experiments:

* exponentially weighted moving average of the instantaneous queue
  length, with the idle-period adjustment (the average decays while the
  link sits empty as if small packets had been arriving);
* for ``min_th <= avg < max_th`` the packet is dropped with probability
  ``p_a = p_b / (1 - count * p_b)`` where ``p_b = max_p * (avg - min_th)
  / (max_th - min_th)`` and ``count`` is the number of packets accepted
  since the last drop — this spreads drops out and avoids bursts of
  drops against a single connection;
* for ``avg >= max_th`` every packet is dropped;
* a physical buffer overflow always drops.

The paper's configuration (Table 4): min_th 5, max_th 20, max_p 0.02,
w_q 0.002, buffer 25 packets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._record import Record
from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.queues import PacketQueue
from repro.sim.rng import RngStream

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


class RedParams(Record, frozen=True):
    """RED gateway parameters (defaults = paper Table 4)."""

    min_th: float = 5.0
    max_th: float = 20.0
    max_p: float = 0.02
    weight: float = 0.002
    limit: int = 25
    # Mean packet transmission time used by the idle adjustment.  When 0
    # the queue derives it from the link on attach.
    mean_pkt_time: float = 0.0
    # Mark ECN-capable packets instead of early-dropping them
    # (RFC 3168-style); forced and overflow drops still drop.
    ecn: bool = False
    # "Gentle" RED (Floyd, 2000): between max_th and 2*max_th the drop
    # probability ramps linearly from max_p to 1 instead of jumping to
    # a forced drop — far less sensitive to max_p mistuning.
    gentle: bool = False

    def validate(self) -> None:
        if not 0 < self.weight <= 1:
            raise ConfigurationError(f"RED weight must be in (0, 1], got {self.weight}")
        if self.min_th < 0 or self.max_th <= self.min_th:
            raise ConfigurationError(
                f"RED thresholds must satisfy 0 <= min_th < max_th, got {self.min_th}, {self.max_th}"
            )
        if not 0 < self.max_p <= 1:
            raise ConfigurationError(f"RED max_p must be in (0, 1], got {self.max_p}")
        if self.limit < 1:
            raise ConfigurationError("RED limit must be >= 1")


def red_drop_curve(avg: float, red: RedParams) -> float:
    """RED's raw marking probability ``p_b`` at average queue ``avg`` —
    the one queue law :class:`RedQueue` and the mean-field oracle
    (:mod:`repro.models.meanfield`) both evaluate: 0 below ``min_th``,
    the linear ramp to ``max_p`` at ``max_th``, the gentle ramp on to 1
    at ``2*max_th`` when enabled, and 1 (forced drop) beyond."""
    if avg < red.min_th:
        return 0.0
    if avg < red.max_th:
        return red.max_p * (avg - red.min_th) / (red.max_th - red.min_th)
    if red.gentle and avg < 2 * red.max_th:
        return red.max_p + (1.0 - red.max_p) * (avg - red.max_th) / red.max_th
    return 1.0


class RedQueue(PacketQueue):
    """RED queue discipline.

    Parameters
    ----------
    sim:
        Needed for the idle-time average adjustment.
    params:
        :class:`RedParams`.
    rng:
        Random stream for the early-drop coin flips.
    """

    __slots__ = (
        "_sim", "params", "_rng", "avg", "_count", "_idle_since", "_mean_pkt_time",
        "early_drops", "forced_drops", "overflow_drops", "ecn_marks",
        "_w", "_min_th", "_ecn", "_forced_th",
    )

    def __init__(
        self,
        sim: Simulator,
        params: RedParams,
        rng: RngStream,
        name: str = "red",
    ):
        params.validate()
        super().__init__(limit=params.limit, name=name)
        self._sim = sim
        self.params = params
        self._rng = rng
        self.avg = 0.0
        self._count = -1  # packets since last drop; -1 = below min_th
        self._idle_since = sim.now  # link idle start time (queue empty)
        self._mean_pkt_time = params.mean_pkt_time or 0.01
        self.early_drops = 0
        self.forced_drops = 0
        self.overflow_drops = 0
        self.ecn_marks = 0
        self._derive_params()

    # ------------------------------------------------------------------
    # derived caches / checkpointing
    # ------------------------------------------------------------------
    def _derive_params(self) -> None:
        """Flatten the (frozen) params onto the instance: ``enqueue``
        runs per packet and a local attribute beats two lookups."""
        p = self.params
        self._w = p.weight
        self._min_th = p.min_th
        self._ecn = p.ecn
        self._forced_th = 2 * p.max_th if p.gentle else p.max_th

    #: Left out of the state (see SlotState), so checkpoints and golden
    #: digests match a cache-free queue.
    _DERIVED = ("_w", "_min_th", "_ecn", "_forced_th")

    def __setstate__(self, state) -> None:
        super().__setstate__(state)
        self._derive_params()

    def set_mean_packet_time(self, seconds: float) -> None:
        """Set the typical transmission time used to age ``avg`` over
        idle periods (the owning link calls this on attach)."""
        if seconds > 0:
            self._mean_pkt_time = seconds

    def reset_counters(self) -> None:
        super().reset_counters()
        self.early_drops = 0
        self.forced_drops = 0
        self.overflow_drops = 0
        self.ecn_marks = 0

    def _update_average(self) -> None:
        """Advance the EWMA (and the idle epoch) for one arriving packet.

        This is the single Python implementation — ``enqueue`` calls it
        rather than inlining a copy, so the two can never drift apart
        again (they once did: the idle-epoch advance below was fixed in
        the inlined copy only).  It has one twin: on the compiled
        backend ``red_average`` in ``repro/sim/_engine_core.c`` runs
        this step, operation for operation, for an arrival that ends as
        an accept below ``min_th``, and leaves every other arrival to
        ``enqueue``.  ``tests/net/test_red_ewma_twin.py`` pins the two
        float for float, arrival by arrival; change both or neither.

        The idle epoch must survive drops: a packet refused at an
        empty queue leaves the link idle, and wiping the epoch here
        would disable the idle decay exactly when overload makes
        every arrival a forced drop (avg then never recovers — a
        lockout the many-flow scenes hit).  Advance it instead (the
        decay below consumes the idle span so far); accepts make the
        queue busy and ``dequeue`` restarts the clock on empty.
        """
        q = len(self._items)
        w = self._w
        if q > 0 or self._idle_since is None:
            self.avg = (1 - w) * self.avg + w * q
        else:
            # Idle adjustment: decay avg as if m small packets had arrived
            # while the queue sat empty.
            idle = self._sim.now - self._idle_since
            m = int(idle / self._mean_pkt_time)
            self.avg *= (1 - w) ** m
            self.avg = (1 - w) * self.avg  # the arriving packet's update (q == 0)
        self._idle_since = self._sim.now if q == 0 else None

    def enqueue(self, packet: Packet) -> bool:
        self._update_average()
        avg = self.avg
        if len(self._items) >= self.limit:
            self.overflow_drops += 1
            self._count = 0
            return self._drop(packet, "overflow")
        if avg >= self._forced_th:
            self.forced_drops += 1
            self._count = 0
            return self._drop(packet, "forced")
        if avg < self._min_th:
            self._count = -1
            self._items.append(packet)  # _accept inlined
            self.enqueues += 1
            return True
        # Early region (the ramp, or the gentle ramp past max_th):
        # p_b from the queue law, spread out by the count mechanism.
        self._count += 1
        pb = red_drop_curve(avg, self.params)
        denom = 1.0 - self._count * pb
        pa = 1.0 if denom <= 0 else min(1.0, pb / denom)
        if self._rng.bernoulli(pa):
            self._count = 0
            if self._ecn and packet.ecn_capable:
                packet.ecn_marked = True
                self.ecn_marks += 1
                return self._accept(packet)
            self.early_drops += 1
            return self._drop(packet, "early")
        return self._accept(packet)

    def dequeue(self):
        packet = super().dequeue()
        if not self._items:
            self._idle_since = self._sim.now
        return packet
