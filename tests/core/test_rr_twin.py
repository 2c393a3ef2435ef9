"""Robust Recovery against a reference twin written from the paper.

:class:`RrTwin` is RR as §2 and Table 2 state it, in packet units:
fast retransmit halves ``ssthresh`` and leaves ``cwnd`` alone; the
retreat releases one new packet per two duplicate ACKs and hands over
``actnum = ndup / 2`` at its first non-duplicate ACK; in the probe each
duplicate releases one packet, and each partial ACK compares ``ndup``
with ``actnum`` — equal means ``actnum += 1`` and one extra packet,
smaller means ``actnum := ndup`` and the exit point moves to
``maxseq``; the full ACK sets ``cwnd = actnum``.  It carries the
refinements DESIGN.md documents (the retreat and the comparison count
what was really sent, the exit window is capped at flight + 1) and
the base sender around them: slow start, congestion avoidance,
go-back-N after a timeout (the only move of the re-entry guard), and the
reaction to an ECN echo (an ACK carrying ECE outside recovery, at or
past the marker, sets ``ssthresh`` to half the flight, ``cwnd`` to
``ssthresh`` and the marker to ``snd_nxt``; an ECE ACK opens no window).

Hypothesis drives the twin and :class:`RobustRecoverySender` with the
same runs of duplicate ACKs, partial and full ACKs, ECN echoes and
timeouts; after every event ``cwnd``, ``ssthresh``, phase, ``actnum``,
``recover`` and every seqno sent must agree.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import TcpConfig
from repro.core.robust_recovery import RobustRecoverySender
from tests.conftest import SenderHarness


class RrTwin:
    """RR in packet units, straight from the paper (see module doc)."""

    def __init__(self, cwnd, ssthresh, rwnd, limit):
        self.cwnd, self.ssthresh, self.rwnd, self.limit = cwnd, ssthresh, rwnd, limit
        self.una = self.nxt = self.maxseq = self.dupacks = 0
        self.phase, self.actnum, self.ndup, self.recover = "normal", 0, 0, 0
        self.retreat_sent = self.sent_this = self.sent_last = 0
        self.guard = -1
        self.ecn_marker = 0
        self.sent = []
        self.send_window()

    def has_data(self):
        return self.limit is None or self.nxt < self.limit

    def send_new(self):
        self.sent.append(self.nxt)
        self.nxt += 1
        self.maxseq = max(self.maxseq, self.nxt)

    def send_window(self):
        while self.has_data() and self.nxt - self.una < min(int(self.cwnd), self.rwnd):
            self.send_new()

    def send_one(self):
        if self.has_data() and self.nxt - self.una < self.rwnd:
            self.send_new()
            return 1
        return 0

    def acknowledge(self, ackno):
        self.una, self.nxt, self.dupacks = ackno, max(self.nxt, ackno), 0

    def ecn_echo(self):
        """An ACK carrying ECE arrived; called before the ACK itself."""
        if self.phase == "normal" and self.una >= self.ecn_marker:
            self.ssthresh = max((self.nxt - self.una) / 2, 2.0)
            self.cwnd = max(self.ssthresh, 1.0)
            self.ecn_marker = self.nxt

    def dupack(self):
        if self.nxt == self.una:
            return  # nothing outstanding: not a duplicate
        if self.phase == "normal":
            self.dupacks += 1
            if self.dupacks == 3 and self.una > self.guard:  # fast retransmit
                self.recover = self.maxseq
                self.ssthresh = max((self.nxt - self.una) / 2, 2.0)
                self.phase, self.actnum, self.ndup = "retreat", 0, 0
                self.retreat_sent = self.sent_this = self.sent_last = 0
                self.sent.append(self.una)
        elif self.phase == "retreat":
            self.ndup += 1
            if self.ndup % 2 == 0:  # one new packet per two duplicates
                sent = self.send_one()
                self.retreat_sent += sent
                self.sent_this += sent
        else:
            self.ndup += 1
            self.sent_this += self.send_one()  # one per duplicate

    def new_ack(self, ackno, echo=False):
        if self.phase == "normal":
            self.acknowledge(ackno)
            if not echo:
                self.cwnd += 1.0 if self.cwnd < self.ssthresh else 1.0 / self.cwnd
            self.send_window()
            return
        if self.phase == "retreat":
            self.actnum, self.ndup = min(self.ndup // 2, self.retreat_sent), 0
            self.acknowledge(ackno)
            if ackno < self.recover:  # more holes: probe
                self.phase, self.sent_last, self.sent_this = "probe", self.retreat_sent, 0
                self.sent.append(self.una)
                return
        elif ackno < self.recover:  # probe RTT boundary
            self.acknowledge(ackno)
            expected = min(self.actnum, self.sent_last)
            self.sent_last, self.sent_this = self.sent_this, 0
            if self.ndup >= expected:
                if self.send_one():
                    self.sent_this += 1
                    self.actnum += 1
            else:  # further loss: shrink, extend the exit point
                self.actnum = self.ndup
                self.recover = max(self.recover, self.maxseq)
            self.ndup = 0
            self.sent.append(self.una)
            return
        else:
            self.acknowledge(ackno)
        self.cwnd = float(max(1, min(self.actnum, self.nxt - self.una + 1)))
        self.phase, self.actnum, self.ndup = "normal", 0, 0
        self.send_window()

    def timeout(self):
        flight = self.nxt - self.una
        if flight <= 0:
            return
        self.ssthresh, self.cwnd, self.dupacks = max(flight / 2, 2.0), 1.0, 0
        self.phase, self.actnum, self.ndup = "normal", 0, 0
        self.guard, self.recover = self.maxseq - 1, self.una
        self.nxt = self.una
        self.send_window()


#: One step: some duplicate ACKs, then one of: a partial ACK (snd_una
#: advances by ``k`` but stays below ``recover`` when it can), the full
#: ACK, a new ACK advancing by ``k``, or a timeout; and which of the
#: step's ACKs carry an ECN echo: none, the last, or all of them.
_step = st.tuples(
    st.integers(0, 2) | st.integers(3, 12),
    st.one_of(
        *[st.tuples(st.just("partial"), st.integers(1, 3))] * 6,
        st.tuples(st.just("full"), st.just(0)),
        st.tuples(st.just("ack"), st.integers(1, 16)),
        st.just(("timeout", 0)),
    ),
    st.sampled_from(("none", "none", "none", "last", "all")),
)


def _ackno(sender, kind, k):
    """Where a new ACK of this kind lands (never past what was sent)."""
    una, top = sender.snd_una, sender.maxseq
    if kind == "partial" and sender.recover - 1 > una:
        top = sender.recover - 1
    elif kind == "full":
        k = max(sender.recover - una, 1)
    return min(una + k, top)


def _observe(sender, sent):
    return (
        sender.cwnd,
        sender.ssthresh,
        sender.phase.value,
        sender.actnum,
        sender.recover,
        sent,
    )


@settings(max_examples=150, deadline=None)
# Two further losses in a row, the first extending the exit point.
@example(
    cwnd=16, rwnd=40, limit=None,
    steps=[
        (9, ("partial", 1), "none"), (2, ("partial", 1), "none"),
        (1, ("partial", 1), "none"), (0, ("full", 0), "none"),
    ],
)
# The receiver window holds back a probe RTT's sends: the next boundary
# compares ndup with what went out, not with actnum.
@example(
    cwnd=8, rwnd=10, limit=None,
    steps=[
        (7, ("partial", 1), "none"), (3, ("partial", 1), "none"),
        (1, ("partial", 1), "none"), (0, ("full", 0), "none"),
    ],
)
# Echoes: one cuts the window on a new ACK, the next (below the marker)
# does not, one on a duplicate cuts before fast retransmit, echoes in
# recovery change nothing, and one after the exit cuts again.
@example(
    cwnd=12, rwnd=30, limit=None,
    steps=[
        (0, ("ack", 2), "last"), (0, ("ack", 2), "last"), (3, ("partial", 1), "all"),
        (2, ("full", 0), "all"), (0, ("ack", 4), "none"), (1, ("ack", 3), "all"),
    ],
)
@given(
    cwnd=st.integers(4, 24),
    rwnd=st.integers(4, 30),
    limit=st.one_of(st.none(), st.integers(20, 120)),
    steps=st.lists(_step, min_size=4, max_size=30),
)
def test_rr_matches_the_reference_twin(cwnd, rwnd, limit, steps):
    config = TcpConfig(
        initial_cwnd=float(cwnd), initial_ssthresh=32.0, receiver_window=rwnd,
        ecn_enabled=True,
    )
    harness = SenderHarness(RobustRecoverySender, config)
    sender = harness.sender
    if limit is not None:
        sender.set_data_limit(limit)
    harness.start()
    twin = RrTwin(float(cwnd), 32.0, rwnd, limit)
    for dups, action, echoes in steps:
        events = [("dup", 0)] * dups + [action]
        for i, event in enumerate(events):
            if sender.completed:
                return
            echo = echoes == "all" or (echoes == "last" and i == dups)
            if event[0] == "dup":
                harness.ack(sender.snd_una, ecn_echo=echo)
                if echo:
                    twin.ecn_echo()
                twin.dupack()
            elif event[0] in ("partial", "full", "ack"):
                ackno = _ackno(sender, *event)
                if ackno == sender.snd_una:
                    continue
                harness.ack(ackno, ecn_echo=echo)
                if echo:
                    twin.ecn_echo()
                twin.new_ack(ackno, echo)
            elif event[0] == "timeout":
                sender._on_timeout()
                twin.timeout()
            twin_state = (twin.cwnd, twin.ssthresh, twin.phase, twin.actnum, twin.recover, twin.sent)
            assert _observe(sender, harness.host.data_seqs()) == twin_state, event
