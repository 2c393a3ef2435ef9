"""Loss-injection modules.

The paper engineers specific loss patterns three different ways:

* Figure 5: exactly 3 or 6 data packets dropped within one window
  ("the buffer size is set to achieve the desired packet loss pattern
  ... the TCP behaviors in each simulation experiment are deterministic")
  → :class:`DeterministicLoss` drops listed ``(flow_id, seqno)`` pairs on
  their first transmission.
* Figure 7: "Artificial losses are introduced at the gateway R1.  The
  uniform random packet-loss rate is varied in each experiment"
  → :class:`UniformLoss`.
* Section 2.3 studies ACK losses → :class:`AckLoss` drops ACKs on the
  reverse path (deterministically by index or at a random rate).

A loss module sits in front of a link: the link consults it before
handing the packet to its queue.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.net.packet import DATA, Packet
from repro.sim.rng import RngStream


class LossModule:
    """Base class: decides whether an arriving packet is destroyed
    before it reaches the queue."""

    def __init__(self) -> None:
        self.injected_drops = 0

    def should_drop(self, packet: Packet) -> bool:
        """Return True to destroy ``packet``.  Subclasses override."""
        raise NotImplementedError

    def _record(self) -> bool:
        self.injected_drops += 1
        return True


class NoLoss(LossModule):
    """Pass-through (the default)."""

    def should_drop(self, packet: Packet) -> bool:
        return False


class UniformLoss(LossModule):
    """Drop DATA packets i.i.d. with probability ``rate``.

    Parameters
    ----------
    rate:
        Per-packet drop probability in [0, 1].
    rng:
        Random stream.
    flow_id:
        If given, only packets of that flow are subject to loss.
    drop_retransmits:
        When False (default True), retransmitted packets are exempt —
        useful for studying recovery without retransmission losses.
    """

    def __init__(
        self,
        rate: float,
        rng: RngStream,
        flow_id: Optional[int] = None,
        drop_retransmits: bool = True,
    ):
        super().__init__()
        if not 0 <= rate <= 1:
            raise ConfigurationError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = rng
        self.flow_id = flow_id
        self.drop_retransmits = drop_retransmits

    def should_drop(self, packet: Packet) -> bool:
        if packet.kind != DATA:
            return False
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return False
        if packet.is_retransmit and not self.drop_retransmits:
            return False
        # RngStream.bernoulli inlined (hot): no draw at 0 or 1.
        rate = self.rate
        if rate <= 0.0:
            return False
        if rate >= 1.0 or self._rng._rng.random() < rate:
            return self._record()
        return False


class DeterministicLoss(LossModule):
    """Drop listed ``(flow_id, seqno)`` DATA packets on their first pass.

    Retransmissions of the same sequence number sail through, so a single
    entry models exactly one wire loss — the mechanism behind the
    paper's 3-drop and 6-drop windows.
    """

    def __init__(self, drops: Iterable[Tuple[int, int]]):
        super().__init__()
        self._pending: Set[Tuple[int, int]] = set(drops)
        self._executed: Set[Tuple[int, int]] = set()

    @property
    def pending(self) -> Set[Tuple[int, int]]:
        """Drops not yet executed."""
        return set(self._pending)

    @property
    def executed(self) -> Set[Tuple[int, int]]:
        """Drops already executed."""
        return set(self._executed)

    def should_drop(self, packet: Packet) -> bool:
        if not packet.is_data:
            return False
        key = (packet.flow_id, packet.seqno)
        if key in self._pending:
            self._pending.discard(key)
            self._executed.add(key)
            return self._record()
        return False

    def reprogram(self, drops: Iterable[Tuple[int, int]]) -> None:
        """Replace the not-yet-executed drop set.

        The warm-start fork path uses this: capture one warmed-up world
        with an empty drop list, then reprogram each fork with the
        cell's own drops.  Already-executed drops are untouched (they
        happened on the wire of the captured prefix).
        """
        self._pending = set(drops)


class AckLoss(LossModule):
    """Drop ACK packets, either at a random rate or by arrival index.

    Parameters
    ----------
    rate:
        i.i.d. drop probability applied to ACKs (ignored when
        ``drop_indices`` is given).
    rng:
        Random stream (required when ``rate`` > 0).
    drop_indices:
        Explicit set of ACK arrival indices (0-based, counted per flow)
        to drop — for deterministic ACK-loss experiments.
    flow_id:
        Restrict to one flow when set.
    """

    def __init__(
        self,
        rate: float = 0.0,
        rng: Optional[RngStream] = None,
        drop_indices: Optional[Iterable[int]] = None,
        flow_id: Optional[int] = None,
    ):
        super().__init__()
        if not 0 <= rate <= 1:
            raise ConfigurationError(f"ACK loss rate must be in [0, 1], got {rate}")
        if rate > 0 and rng is None and drop_indices is None:
            raise ConfigurationError("AckLoss with rate > 0 requires an rng")
        self.rate = rate
        self._rng = rng
        self._drop_indices = set(drop_indices) if drop_indices is not None else None
        self.flow_id = flow_id
        self._seen: Dict[int, int] = {}

    def should_drop(self, packet: Packet) -> bool:
        if not packet.is_ack:
            return False
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return False
        index = self._seen.get(packet.flow_id, 0)
        self._seen[packet.flow_id] = index + 1
        if self._drop_indices is not None:
            if index in self._drop_indices:
                return self._record()
            return False
        if self._rng is not None and self._rng.bernoulli(self.rate):
            return self._record()
        return False


class PeriodicLoss(LossModule):
    """Drop every ``period``-th first-transmission DATA packet.

    This is the *literal* loss process assumed by the Mathis
    square-root model derivation ("a single packet loss within a window
    of data occurs periodically", as the paper's Section 2 puts it):
    one loss per ``period`` packets, perfectly regular.  Used by the
    model-validation tests to check simulator and model against each
    other under the model's own assumptions.
    """

    def __init__(self, period: int, offset: int = 0, flow_id: Optional[int] = None):
        super().__init__()
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        if offset < 0:
            raise ConfigurationError("offset must be >= 0")
        self.period = period
        self.offset = offset
        self.flow_id = flow_id
        self._count = 0

    @property
    def loss_rate(self) -> float:
        return 1.0 / self.period

    def should_drop(self, packet: Packet) -> bool:
        if not packet.is_data or packet.is_retransmit:
            return False
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return False
        self._count += 1
        if (self._count - 1 - self.offset) % self.period == 0 and self._count > self.offset:
            return self._record()
        return False


class GilbertElliott(LossModule):
    """Two-state Markov (Gilbert-Elliott) burst-loss channel.

    The channel alternates between a GOOD state (loss probability
    ``p_good``, typically ~0) and a BAD state (loss probability
    ``p_bad``, high); per-packet transition probabilities
    ``p_good_to_bad`` / ``p_bad_to_good`` set the burst geometry — the
    mean bad-state burst length is ``1 / p_bad_to_good`` packets.

    The paper's whole premise is that "bursty packet losses are
    reported to be common" [18]; this is the standard synthetic model
    of exactly that behaviour, complementing the deterministic and
    i.i.d. modules.
    """

    def __init__(
        self,
        rng: RngStream,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.3,
        p_good: float = 0.0,
        p_bad: float = 0.5,
        flow_id: Optional[int] = None,
    ):
        super().__init__()
        for name, p in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("p_good", p_good),
            ("p_bad", p_bad),
        ]:
            if not 0 <= p <= 1:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        self._rng = rng
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.p_good = p_good
        self.p_bad = p_bad
        self.flow_id = flow_id
        self.in_bad_state = False
        self.bad_entries = 0

    def should_drop(self, packet: Packet) -> bool:
        if packet.kind != DATA:
            return False
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return False
        # State transition first (per-packet clock), then the loss draw.
        if self.in_bad_state:
            if self._rng.bernoulli(self.p_bad_to_good):
                self.in_bad_state = False
        elif self._rng.bernoulli(self.p_good_to_bad):
            self.in_bad_state = True
            self.bad_entries += 1
        rate = self.p_bad if self.in_bad_state else self.p_good
        if self._rng.bernoulli(rate):
            return self._record()
        return False

    def expected_loss_rate(self) -> float:
        """Stationary loss probability of the chain (for calibration)."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0:
            return self.p_bad if self.in_bad_state else self.p_good
        pi_bad = self.p_good_to_bad / denom
        return pi_bad * self.p_bad + (1 - pi_bad) * self.p_good


class WindowedLoss(LossModule):
    """Activate an inner loss module only inside a time window.

    Fault plans use this to turn the stationary loss processes
    (uniform, Gilbert-Elliott, periodic, ACK loss) into bounded
    *episodes*: the wrapped module sees no packets outside
    ``[start, end)``, so its internal state (and RNG stream) is only
    consumed while the episode is live.
    """

    def __init__(
        self,
        sim: "Simulator",
        inner: LossModule,
        start: float = 0.0,
        end: Optional[float] = None,
    ):
        super().__init__()
        if start < 0:
            raise ConfigurationError("window start must be >= 0")
        if end is not None and end <= start:
            raise ConfigurationError(f"empty loss window [{start}, {end})")
        self._sim = sim
        self.inner = inner
        self.start = start
        self.end = end

    @property
    def active(self) -> bool:
        now = self._sim.now
        return now >= self.start and (self.end is None or now < self.end)

    def should_drop(self, packet: Packet) -> bool:
        if not self.active:
            return False
        if self.inner.should_drop(packet):
            self.injected_drops += 1
            return True
        return False


class Composite(LossModule):
    """Apply several loss modules in order (first match drops)."""

    def __init__(self, *modules: LossModule):
        super().__init__()
        self.modules = list(modules)

    def should_drop(self, packet: Packet) -> bool:
        for module in self.modules:
            if module.should_drop(packet):
                self.injected_drops += 1
                return True
        return False
