"""TCP sender base machinery.

:class:`TcpSender` implements everything the recovery variants share:

* slow start and congestion avoidance (cwnd in packets, ns-2 style);
* duplicate-ACK counting and the fast-retransmit trigger;
* RTO management: one retransmission timer, RFC 6298 estimation with
  Karn's rule (one sample in flight, abandoned if the timed packet is
  retransmitted), exponential back-off, go-back-N after a timeout;
* send-window accounting (``snd_una``/``snd_nxt``/``maxseq``), receiver
  window and application data limits;
* observer/trace hooks for metrics.

It also runs the recovery skeleton the variants share (New-Reno's,
RFC 2582): fast-retransmit entry behind the stale-duplicate guard,
``recover = maxseq``, the hole retransmission and timer restart
(``_repair_hole``), partial-ACK repair, full-ACK exit, the timeout
reset, ``max_burst`` (``_send_limited``) and "one new packet if the data
and receiver window allow" (``_send_one_new``).  A variant supplies
only its window arithmetic and state, through these hooks:

* ``_open_cwnd`` — the increase law (skipped on an ECN-echo ACK);
* ``_cut_window`` — ssthresh/cwnd at fast retransmit;
* ``_recovery_dupack`` — what a duplicate ACK in recovery releases;
* ``_deflate_partial`` / ``_deflate_full`` — the window at a partial
  ACK and at the full ACK;
* ``_on_timeout_reset`` — extra state a timeout clears.

Reno (exit on any new ACK), SACK (pipe) and RR (retreat and probe)
override ``_recovery_new_ack`` and reuse the pieces.

Sequence numbers are packet-based and ``maxseq`` is *one past* the
highest sequence sent, so ``recover = maxseq`` and "the recovery phase
ends when snd.una advances to, or beyond, this threshold" (Section 2.2)
translates to ``ackno >= recover``.
"""

from __future__ import annotations

from typing import Optional

from repro.config import TcpConfig
from repro.errors import ProtocolError, TopologyError
from repro.net.node import Agent
from repro.net.packet import ACK, Packet, data_packet
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.tracing import NULL_CHANNEL, TraceBus
from repro.tcp.rtt import RtoEstimator


class SenderObserver:
    """No-op observer; metrics classes override the hooks they need.

    Every hook receives the simulation time first.  ``sender`` is the
    emitting :class:`TcpSender`.
    """

    def on_start(self, t: float, sender: "TcpSender") -> None:
        pass

    def on_send(self, t: float, sender: "TcpSender", seqno: int, retransmit: bool) -> None:
        pass

    def on_ack(self, t: float, sender: "TcpSender", ackno: int, duplicate: bool) -> None:
        pass

    def on_cwnd(self, t: float, sender: "TcpSender", cwnd: float) -> None:
        pass

    def on_timeout(self, t: float, sender: "TcpSender") -> None:
        pass

    def on_recovery_enter(self, t: float, sender: "TcpSender") -> None:
        pass

    def on_recovery_exit(self, t: float, sender: "TcpSender") -> None:
        pass

    def on_complete(self, t: float, sender: "TcpSender") -> None:
        pass


class TcpSender(Agent):
    """Base TCP sender (slow start + congestion avoidance + RTO).

    Parameters
    ----------
    sim:
        Event engine.
    flow_id:
        Connection identifier shared with the receiver.
    dst:
        Destination host name.
    config:
        :class:`TcpConfig`; defaults match the paper.
    observer:
        Optional :class:`SenderObserver` for metrics.
    trace:
        Optional trace bus (publishes ``tcp.*`` records).
    """

    variant = "base"

    # The base sender's fields, in ``__init__``'s assignment order (so
    # :class:`SlotState`'s mapping is the one the old ``__dict__`` held).
    # Slots keep every read and write of them on CPython's fast attribute
    # path; a variant's own few fields stay in its instance dict, which
    # CPython keeps inline while it has fewer than 30 names
    # (docs/PERFORMANCE.md "Cost of an ACK").
    __slots__ = (
        "sim", "config", "dst", "observer", "trace",
        "cwnd", "ssthresh", "snd_una", "snd_nxt", "maxseq", "dupacks",
        "in_recovery", "recover",
        "_limit", "started", "completed", "complete_time", "completion_callbacks",
        "rto", "_timer", "_rtt_seq", "_rtt_sent_at",
        "packets_sent", "retransmits", "timeouts", "_last_send_time", "idle_restarts",
        "_ecn_react_marker", "ecn_reactions", "_suppress_growth",
        "_ch_send", "_ch_ack", "_ch_cwnd", "_trace_src",
    )

    #: Attributes derived from ``trace``; excluded from pickles/digests
    #: and lazily rebuilt after restore.
    _DERIVED = ("_ch_send", "_ch_ack", "_ch_cwnd", "_trace_src")

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        dst: str,
        config: Optional[TcpConfig] = None,
        observer: Optional[SenderObserver] = None,
        trace: Optional[TraceBus] = None,
    ):
        super().__init__(flow_id)
        self.sim = sim
        self.config = config or TcpConfig()
        self.config.validate()
        self.dst = dst
        self.observer = observer or SenderObserver()
        self.trace = trace

        # --- window state (packet units) ---
        self.cwnd: float = self.config.initial_cwnd
        self.ssthresh: float = self.config.initial_ssthresh
        self.snd_una: int = 0       # lowest unacknowledged packet
        self.snd_nxt: int = 0       # next *new* packet to send
        self.maxseq: int = 0        # one past the highest packet ever sent
        self.dupacks: int = 0
        self.in_recovery: bool = False
        self.recover: int = 0       # recovery exit threshold (ackno units)

        # --- application interface ---
        self._limit: Optional[int] = None  # total packets to send; None = unbounded
        self.started = False
        self.completed = False
        self.complete_time: Optional[float] = None
        # Called with the completion time when a bounded transfer is
        # fully acknowledged (used by app-layer sources).
        self.completion_callbacks: list = []

        # --- RTO machinery ---
        self.rto = RtoEstimator(self.config)
        self._timer = Timer(sim, self._on_timeout, self.config.timer_granularity)
        self._rtt_seq: Optional[int] = None   # packet being timed (Karn)
        self._rtt_sent_at: float = 0.0

        # --- counters ---
        self.packets_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self._last_send_time: Optional[float] = None
        self.idle_restarts = 0

        # --- ECN (extension; off unless config.ecn_enabled) ---
        # React to echoed marks at most once per window: ignore echoes
        # until snd_una passes the marker set at the last reaction.
        self._ecn_react_marker = 0
        self.ecn_reactions = 0
        # RFC 3168: do not also grow cwnd on the ACK carrying the echo.
        self._suppress_growth = False

        # --- derived tracing state (never pickled; see __getstate__) ---
        self._bind_trace_channels()

    # ------------------------------------------------------------------
    # tracing fast path
    # ------------------------------------------------------------------
    def _bind_trace_channels(self) -> "None":
        """(Re)derive the cached per-category channels and source label.

        The per-packet emit sites (tcp.send / tcp.ack / tcp.cwnd) guard
        on ``channel.subs`` so an unsubscribed category costs one
        attribute test and allocates nothing."""
        trace = self.trace
        if trace is None:
            self._ch_send = self._ch_ack = self._ch_cwnd = NULL_CHANNEL
        else:
            self._ch_send = trace.channel("tcp.send")
            self._ch_ack = trace.channel("tcp.ack")
            self._ch_cwnd = trace.channel("tcp.cwnd")
        self._trace_src = f"{self.variant}/f{self.flow_id}"

    def __setstate__(self, state) -> None:
        # The state is SlotState's mapping minus the derived trace
        # caches, so checkpoints (and golden digests) are identical to a
        # sender that never cached anything.
        super().__setstate__(state)
        # The trace bus may itself still be mid-unpickle (cycles), so
        # channels are rebound lazily on the first emit.
        self._ch_send = self._ch_ack = self._ch_cwnd = None
        self._trace_src = None

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------
    def set_timer_granularity(self, granularity: float) -> None:
        """Change the retransmission-timer tick at runtime (fault
        injection models per-host clock-granularity skew this way)."""
        self._timer.set_granularity(granularity)

    @property
    def timer_granularity(self) -> float:
        """The retransmission timer's current tick size (seconds)."""
        return self._timer.granularity

    def set_data_limit(self, packets: Optional[int]) -> None:
        """Bound the transfer to ``packets`` total (None = unbounded)."""
        if packets is not None and packets < 1:
            raise ProtocolError("data limit must be >= 1 packet")
        self._limit = packets

    def start(self) -> None:
        """Begin transmitting (slow start)."""
        if self.started:
            return
        self.started = True
        self.observer.on_start(self.sim.now, self)
        self._emit("tcp.start")
        self.send_available()

    # ------------------------------------------------------------------
    # window accounting
    # ------------------------------------------------------------------
    def flight(self) -> int:
        """Outstanding packets *at the sender side* (snd_nxt - snd_una).

        As Section 2.1 stresses, during recovery this over-estimates the
        packets actually in the path; RR replaces it with ``actnum``.
        """
        return self.snd_nxt - self.snd_una

    def data_available(self) -> bool:
        """True while the application has unsent data."""
        return self._limit is None or self.snd_nxt < self._limit

    def send_available(self, max_packets: Optional[int] = None) -> int:
        """Send as much new data as the window (and ``max_packets``)
        permits.  Returns the number of packets sent."""
        config = self.config
        if config.slow_start_restart:
            self._maybe_slow_start_restart()
        sent = 0
        # data_available() and flight() < min(cwnd, receiver window),
        # inlined: this loop test runs on every ACK.
        while (self._limit is None or self.snd_nxt < self._limit) and (
            self.snd_nxt - self.snd_una < min(int(self.cwnd), config.receiver_window)
        ):
            if max_packets is not None and sent >= max_packets:
                break
            self._send_new()
            sent += 1
        return sent

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _maybe_slow_start_restart(self) -> None:
        """RFC 2581 §4.1 (optional, ``config.slow_start_restart``): an
        idle period longer than one RTO invalidates the old cwnd —
        restart from the initial window."""
        if (
            self._last_send_time is not None
            and self.flight() == 0
            and self.sim.now - self._last_send_time > self.rto.current()
            and self.cwnd > self.config.initial_cwnd
        ):
            self.cwnd = self.config.initial_cwnd
            self.idle_restarts += 1
            self._note_cwnd()

    def _send_new(self) -> None:
        """Transmit the packet at ``snd_nxt`` (new data, or the next
        go-back-N resend after a timeout when snd_nxt < maxseq)."""
        seqno = self.snd_nxt
        retransmit = seqno < self.maxseq
        self.snd_nxt = nxt = seqno + 1
        if nxt > self.maxseq:
            self.maxseq = nxt
        self._transmit(seqno, retransmit)

    def _retransmit(self, seqno: int) -> None:
        """Retransmit ``seqno`` without touching snd_nxt."""
        if not self.snd_una <= seqno < self.maxseq:
            raise ProtocolError(
                f"retransmit of {seqno} outside [{self.snd_una}, {self.maxseq})"
            )
        self._transmit(seqno, retransmit=True)

    def _transmit(self, seqno: int, retransmit: bool) -> None:
        host = self.host
        if host is None:
            raise TopologyError("agent is not attached to a host")
        config = self.config
        # Positional: CPython 3.11 specialises no call with keywords.
        packet = data_packet(self.flow_id, host.name, self.dst, seqno, config.mss_bytes, retransmit)
        packet.ecn_capable = config.ecn_enabled
        now = self.sim.now
        packet.sent_at = now
        if retransmit:
            self.retransmits += 1
            if self._rtt_seq is not None and seqno == self._rtt_seq:
                self._rtt_seq = None  # Karn's rule: abandon the sample
        elif self._rtt_seq is None:
            self._rtt_seq = seqno
            self._rtt_sent_at = now
        self.packets_sent += 1
        self._last_send_time = now
        timer = self._timer
        event = timer._event  # Timer.pending inlined (hot)
        if event is None or event._cancelled or event._fired:
            timer.start(self.rto.value)
        self.observer.on_send(now, self, seqno, retransmit)
        ch = self._ch_send
        if ch is None:
            self._bind_trace_channels()
            ch = self._ch_send
        if ch.subs:
            ch.emit(
                now,
                self._trace_src,
                seqno=seqno,
                retransmit=retransmit,
                snd_una=self.snd_una,
                snd_nxt=self.snd_nxt,
                maxseq=self.maxseq,
            )
        host.send(packet)

    # ------------------------------------------------------------------
    # ACK dispatch
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if packet.kind != ACK or self.completed:
            return
        if packet.ecn_echo and self.config.ecn_enabled:
            self._ecn_reaction()
            self._suppress_growth = True
        ackno = packet.ackno
        ch = self._ch_ack
        if ch is None:
            self._bind_trace_channels()
            ch = self._ch_ack
        if ackno > self.snd_una:
            self.observer.on_ack(self.sim.now, self, ackno, False)
            if ch.subs:
                ch.emit(
                    self.sim.now,
                    self._trace_src,
                    ackno=ackno,
                    duplicate=False,
                    snd_una=self.snd_una,
                    snd_nxt=self.snd_nxt,
                    maxseq=self.maxseq,
                )
            self._process_new_ack(packet)
            if self._limit is not None and self.snd_una >= self._limit:
                self._check_complete()
        elif ackno == self.snd_una and self.snd_nxt > ackno:  # flight() > 0
            self.observer.on_ack(self.sim.now, self, ackno, True)
            if ch.subs:
                ch.emit(
                    self.sim.now,
                    self._trace_src,
                    ackno=ackno,
                    duplicate=True,
                    snd_una=self.snd_una,
                    snd_nxt=self.snd_nxt,
                    maxseq=self.maxseq,
                )
            self._process_dupack(packet)
        # older ACKs are stale: ignored
        self._suppress_growth = False

    def _check_complete(self) -> None:
        if self._limit is not None and self.snd_una >= self._limit and not self.completed:
            self.completed = True
            self.complete_time = self.sim.now
            self._timer.stop()
            self.observer.on_complete(self.sim.now, self)
            self._emit("tcp.complete")
            for callback in self.completion_callbacks:
                callback(self.sim.now)

    # ------------------------------------------------------------------
    # common ACK helpers (for subclasses)
    # ------------------------------------------------------------------
    def _ack_common(self, ackno: int) -> None:
        """Advance snd_una, take the RTT sample, manage the timer and
        reset the dup-ACK counter.  Every new-ACK path calls this."""
        if self._rtt_seq is not None and ackno > self._rtt_seq:
            self.rto.on_sample(self.sim.now - self._rtt_sent_at)
            self._rtt_seq = None
        self.snd_una = ackno
        self.snd_nxt = max(self.snd_nxt, ackno)
        self.dupacks = 0
        if self.snd_nxt > ackno:  # flight() > 0
            self._timer.restart(self.rto.value)
        else:
            self._timer.stop()

    def _open_cwnd(self) -> None:
        """Grow cwnd per ACK: slow start below ssthresh, else AIMD."""
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd
        self._note_cwnd()

    def _note_cwnd(self) -> None:
        self.observer.on_cwnd(self.sim.now, self, self.cwnd)
        ch = self._ch_cwnd
        if ch is None:
            self._bind_trace_channels()
            ch = self._ch_cwnd
        if ch.subs:
            ch.emit(self.sim.now, self._trace_src, cwnd=self.cwnd)

    def _halved_ssthresh(self) -> float:
        """The standard multiplicative decrease: half the flight size,
        floored at 2 packets."""
        return max(self.flight() / 2.0, 2.0)

    # ------------------------------------------------------------------
    # default new-ACK / dup-ACK processing
    # ------------------------------------------------------------------
    def _process_new_ack(self, packet: Packet) -> None:
        if self.in_recovery:
            self._recovery_new_ack(packet)
            return
        self._ack_common(packet.ackno)
        if not self._suppress_growth:  # RFC 3168: no growth on an ECE ACK
            self._open_cwnd()
        self.send_available()

    def _process_dupack(self, packet: Packet) -> None:
        if self.in_recovery:
            self._recovery_dupack(packet)
            return
        self.dupacks += 1
        if self.dupacks == self.config.dupack_threshold:
            self._fast_retransmit(packet)

    # ------------------------------------------------------------------
    # ECN reaction (extension)
    # ------------------------------------------------------------------
    def _ecn_reaction(self) -> None:
        """Echoed congestion mark: halve the window, loss-free, at most
        once per window of data (RFC 3168 semantics, simplified)."""
        if self.in_recovery or self.snd_una < self._ecn_react_marker:
            return
        self.ssthresh = self._halved_ssthresh()
        self.cwnd = max(self.ssthresh, 1.0)
        self._ecn_react_marker = self.snd_nxt
        self.ecn_reactions += 1
        self._note_cwnd()
        self._emit("tcp.ecn_reaction")

    # ------------------------------------------------------------------
    # the recovery skeleton (hooks: see the module docstring)
    # ------------------------------------------------------------------
    #: RFC 2582 §3 guard: three duplicate ACKs enter recovery only while
    #: snd_una is above it (lower ones echo an earlier episode or the
    #: go-back-N resends).  At -1 it never holds: Reno, Vegas and Tahoe
    #: never move it; the careful variants hold their own from __init__.
    _no_retransmit_below = -1

    def _fast_retransmit(self, packet: Packet) -> None:
        """Third duplicate ACK outside recovery (Fig. 2 entry box)."""
        if self.snd_una <= self._no_retransmit_below:
            return  # stale duplicate ACKs from an earlier episode
        self.recover = self.maxseq
        self._cut_window()
        self._enter_recovery_common()
        self._repair_hole()

    def _cut_window(self) -> None:
        """Halve, then inflate by the duplicates that left the network."""
        self.ssthresh = self._halved_ssthresh()
        self.cwnd = self.ssthresh + self.config.dupack_threshold
        self._note_cwnd()

    def _repair_hole(self) -> None:
        """Retransmit snd_una and restart the retransmission timer."""
        self._retransmit(self.snd_una)
        self._timer.restart(self.rto.current())

    def _recovery_dupack(self, packet: Packet) -> None:
        """Window inflation: about one new packet per two duplicates."""
        self.dupacks += 1
        self.cwnd += 1.0
        self._note_cwnd()
        self._send_limited()

    def _recovery_new_ack(self, packet: Packet) -> None:
        """A partial ACK repairs the next hole and stays in recovery;
        the full ACK (``ackno >= recover``) deflates and exits."""
        ackno = packet.ackno
        if ackno >= self.recover:
            self._deflate_full()
            self._ack_common(ackno)
            self._exit_recovery_common()
            self._no_retransmit_below = self.recover
            self._send_limited()
            return
        newly_acked = ackno - self.snd_una
        self._ack_common(ackno)
        self._deflate_partial(newly_acked)
        self._repair_hole()
        self._send_limited()

    def _deflate_partial(self, newly_acked: int) -> None:
        """The window at a partial ACK.  Variants on the skeleton implement."""
        raise NotImplementedError

    def _deflate_full(self) -> None:
        """The window at the full ACK: ssthresh."""
        self.cwnd = self.ssthresh
        self._note_cwnd()

    def _send_limited(self) -> int:
        """Send what the window allows, at most ``max_burst`` packets
        (0 = no cap) per incoming ACK."""
        burst = self.config.max_burst
        return self._send_window(burst if burst > 0 else None)

    #: The loop ``_send_limited`` runs; SACK's walks its scoreboard.
    _send_window = send_available

    def _send_one_new(self) -> int:
        """Send one new packet if the data and the receiver window
        allow; returns the number sent."""
        # data_available() and flight() < receiver window, inlined.
        if (self._limit is None or self.snd_nxt < self._limit) and (
            self.snd_nxt - self.snd_una < self.config.receiver_window
        ):
            self._send_new()
            return 1
        return 0

    def _on_timeout_reset(self) -> None:
        """Duplicates of the go-back-N resends must not re-enter recovery."""
        self._no_retransmit_below = self.maxseq - 1
        self.recover = self.snd_una

    def _enter_recovery_common(self) -> None:
        self.in_recovery = True
        self.observer.on_recovery_enter(self.sim.now, self)
        self._emit("tcp.recovery_enter", recover=self.recover, snd_una=self.snd_una)

    def _exit_recovery_common(self) -> None:
        self.in_recovery = False
        self.observer.on_recovery_exit(self.sim.now, self)
        self._emit("tcp.recovery_exit")

    # ------------------------------------------------------------------
    # timeout
    # ------------------------------------------------------------------
    def _on_timeout(self) -> None:
        if self.completed:
            return
        if self.flight() <= 0:
            return  # nothing outstanding; spurious
        self.timeouts += 1
        self.observer.on_timeout(self.sim.now, self)
        self._emit(
            "tcp.timeout",
            snd_una=self.snd_una,
            snd_nxt=self.snd_nxt,
            maxseq=self.maxseq,
        )
        was_in_recovery = self.in_recovery
        self.ssthresh = self._halved_ssthresh()
        self.cwnd = 1.0
        self.dupacks = 0
        self.in_recovery = False
        self._on_timeout_reset()
        if was_in_recovery:
            self.observer.on_recovery_exit(self.sim.now, self)
        # Go-back-N: resume sending from the first unacknowledged packet.
        self.snd_nxt = self.snd_una
        self._rtt_seq = None
        self.rto.backoff()
        self._timer.start(self.rto.current())
        self._note_cwnd()
        self.send_available()

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def _emit(self, category: str, **fields) -> None:
        if self.trace is not None:
            src = self._trace_src
            if src is None:
                self._bind_trace_channels()
                src = self._trace_src
            self.trace.emit(self.sim.now, category, src, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} f{self.flow_id} una={self.snd_una} "
            f"nxt={self.snd_nxt} cwnd={self.cwnd:.2f} rec={self.in_recovery}>"
        )
