"""Per-flow behavioral feature extraction from ``tcp.*`` trace records.

A :class:`FlowTraceCollector` subscribes to the trace bus and records,
per flow, the raw event series a run emits anyway for metrics and
invariant checking: sends, ACKs, cwnd samples, recovery enter/exit
markers and timeouts.  :func:`extract_features` then reduces a
:class:`FlowTrace` to a fixed-length :class:`FeatureVector` of shape
descriptors chosen to separate the recovery *algorithms*, not the
scenarios:

* how the cwnd trajectory responds to a loss event (Tahoe collapses to
  one packet; Reno/New-Reno/SACK halve; RR leaves cwnd untouched until
  recovery exits);
* how tightly duplicate ACKs are coupled to transmissions during
  recovery (window inflation emits a cwnd move per duplicate ACK,
  pipe/actnum control emits none);
* the recovery-exit burst signature (the "big ACK" burst RR
  eliminates);
* backoffs per loss window — the paper's central discriminator: RR
  backs off exactly once per window of lost data, Reno once per loss.

Determinism contract: a feature vector is a pure function of the
recorded event sequence.  Extraction uses only arrival-ordered lists
and fixed-order float arithmetic, so the same seed yields bit-identical
vectors across serial/parallel sweeps and across the compiled and
pure-python engine backends (tests/ident/test_determinism.py).

The collector keys flows by the numeric id parsed out of the emitting
source label and *discards* the label itself: ``tcp.*`` sources are
``"<variant>/f<flow_id>"``, and letting the variant prefix reach the
feature space would turn behavior identification into string matching
(tests/ident/test_features.py proves a renamed variant classifies
identically).  ``tcp.rr`` records are ignored for the same reason —
they are RR-only instrumentation, not behavior.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.tracing import TraceBus, TraceRecord

#: Canonical feature order.  Appending is safe; reordering or renaming
#: invalidates every committed model and golden vector.
FEATURE_NAMES: Tuple[str, ...] = (
    "recovery_entry_rate",
    "timeout_rate",
    "loss_cwnd_drop",
    "entry_cwnd_drop",
    "cwnd_moves_per_dupack",
    "recovery_new_data_per_dupack",
    "recovery_retx_per_episode",
    "retx_on_new_ack_frac",
    "episode_span_rtts",
    "exit_burst",
    "exit_cwnd_ratio",
    "post_loss_growth",
    "backoffs_per_loss_window",
)

#: Trace categories the collector taps (see FlowTraceCollector).
TCP_CATEGORIES: Tuple[str, ...] = (
    "tcp.send",
    "tcp.ack",
    "tcp.cwnd",
    "tcp.recovery_enter",
    "tcp.recovery_exit",
    "tcp.timeout",
)


@dataclass(frozen=True)
class FeatureVector:
    """A fixed-order vector of behavioral features for one flow."""

    names: Tuple[str, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.values):
            raise ValueError(
                f"{len(self.names)} names vs {len(self.values)} values"
            )

    def as_dict(self) -> Dict[str, float]:
        return dict(zip(self.names, self.values))

    def __getitem__(self, name: str) -> float:
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def to_json(self) -> str:
        """Canonical JSON: full ``repr`` precision, fixed key order —
        two behaviorally identical runs serialize byte-identically."""
        return json.dumps(
            {name: value for name, value in zip(self.names, self.values)},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FeatureVector":
        payload = json.loads(text)
        names = tuple(sorted(payload))
        return cls(names=names, values=tuple(float(payload[n]) for n in names))

    def reordered(self, names: Sequence[str]) -> "FeatureVector":
        """The same vector in the given feature order."""
        mapping = self.as_dict()
        return FeatureVector(
            names=tuple(names), values=tuple(mapping[n] for n in names)
        )


@dataclass
class FlowTrace:
    """Raw per-flow event series, in bus arrival order.

    Every entry leads with the global arrival index, so events sharing
    a simulation timestamp (an exit marker and the sends its ACK
    released, say) keep their causal order.

    Precondition of :func:`extract_features`, met by whatever a
    :class:`FlowTraceCollector` records: within each series orders
    strictly increase and times never decrease, and no order appears
    in two series.
    """

    flow_id: int
    #: (order, t, cwnd)
    cwnd: List[Tuple[int, float, float]] = field(default_factory=list)
    #: (order, t, ackno, duplicate)
    acks: List[Tuple[int, float, int, bool]] = field(default_factory=list)
    #: (order, t, seqno, retransmit)
    sends: List[Tuple[int, float, int, bool]] = field(default_factory=list)
    #: (order, t, recover)
    enters: List[Tuple[int, float, int]] = field(default_factory=list)
    #: (order, t)
    exits: List[Tuple[int, float]] = field(default_factory=list)
    #: (order, t)
    timeouts: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def events(self) -> int:
        return (
            len(self.cwnd)
            + len(self.acks)
            + len(self.sends)
            + len(self.enters)
            + len(self.exits)
            + len(self.timeouts)
        )


def _flow_id_of(source: str) -> Optional[int]:
    """Parse the flow id out of a ``tcp.*`` source label.

    The label is ``"<variant>/f<flow_id>"``; everything before the
    final ``/f`` is deliberately thrown away (see module docstring).
    """
    head, sep, tail = source.rpartition("/f")
    if not sep or not head:
        return None
    try:
        return int(tail)
    except ValueError:
        return None


class FlowTraceCollector:
    """Accumulate :class:`FlowTrace` series from a live trace bus.

    Usage::

        collector = FlowTraceCollector()
        collector.install(scenario.dumbbell.net.trace)
        scenario.sim.run(until=...)
        collector.uninstall()
        vector = collector.features(flow_id=1)

    The collector is a passive subscriber: installing it changes no
    behavior and no state digest, only which emissions build records.
    """

    def __init__(self) -> None:
        self.flows: Dict[int, FlowTrace] = {}
        # source label -> its FlowTrace (None: not a flow label);
        # parsing a label once per record was half the intake cost.
        self._by_source: Dict[str, Optional[FlowTrace]] = {}
        self._order = 0
        self._bus: Optional[TraceBus] = None

    # ------------------------------------------------------------------
    # bus lifecycle
    # ------------------------------------------------------------------
    def install(self, bus: TraceBus) -> "FlowTraceCollector":
        if self._bus is not None:
            raise ValueError("collector is already installed on a bus")
        self._bus = bus
        bus.subscribe_many(TCP_CATEGORIES, self._on_record)
        return self

    def uninstall(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe_many(TCP_CATEGORIES, self._on_record)
            self._bus = None

    # ------------------------------------------------------------------
    # record intake
    # ------------------------------------------------------------------
    def _trace_for(self, source: str) -> Optional[FlowTrace]:
        flow_id = _flow_id_of(source)
        trace = None
        if flow_id is not None:
            trace = self.flows.get(flow_id)
            if trace is None:
                trace = self.flows[flow_id] = FlowTrace(flow_id=flow_id)
        self._by_source[source] = trace
        return trace

    def _on_record(self, record: TraceRecord) -> None:
        time, category, source, fields = record
        try:
            trace = self._by_source[source]
        except KeyError:
            trace = self._trace_for(source)
        if trace is None:
            return
        order = self._order
        self._order = order + 1
        # Most frequent first: the episode markers are a handful.
        if category == "tcp.send":
            trace.sends.append(
                (order, time, fields["seqno"], bool(fields["retransmit"]))
            )
        elif category == "tcp.ack":
            trace.acks.append(
                (order, time, fields["ackno"], bool(fields["duplicate"]))
            )
        elif category == "tcp.cwnd":
            trace.cwnd.append((order, time, float(fields["cwnd"])))
        elif category == "tcp.recovery_enter":
            trace.enters.append((order, time, int(fields["recover"])))
        elif category == "tcp.recovery_exit":
            trace.exits.append((order, time))
        elif category == "tcp.timeout":
            trace.timeouts.append((order, time))

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def features(self, flow_id: int) -> FeatureVector:
        trace = self.flows.get(flow_id)
        if trace is None:
            raise KeyError(f"no tcp.* records collected for flow {flow_id}")
        return extract_features(trace)


# ----------------------------------------------------------------------
# feature extraction
# ----------------------------------------------------------------------
def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _rtt_estimate(trace: FlowTrace) -> float:
    """Median send→ACK round trip, matched through sequence numbers.

    A new ACK for ``ackno`` acknowledges the segment ``ackno - 1``; the
    gap back to that segment's first transmission is a true RTT sample
    (queueing included).  Falls back to the new-ACK inter-arrival
    median — the ACK clock — only when no sends matched, and to 0.1 s
    on a trace with no usable ACKs at all.
    """
    first_sent: Dict[int, float] = {}
    for _, t, seqno, retransmit in trace.sends:
        if not retransmit and seqno not in first_sent:
            first_sent[seqno] = t
    samples = []
    for _, t, ackno, dup in trace.acks:
        if dup:
            continue
        sent = first_sent.get(ackno - 1)
        if sent is not None and t > sent:
            samples.append(t - sent)
    estimate = _median(samples)
    if estimate > 0.0:
        return estimate
    times = [t for _, t, _, dup in trace.acks if not dup]
    gaps = [b - a for a, b in zip(times, times[1:]) if b > a]
    estimate = _median(gaps)
    return estimate if estimate > 0.0 else 0.1


@dataclass(frozen=True)
class _Episode:
    enter_order: int
    enter_t: float
    end_order: int
    end_t: float
    exited: bool  # False = the episode was cut short by a timeout


def _episodes(trace: FlowTrace) -> List[_Episode]:
    """Pair recovery entries with whatever ended them.

    A ``tcp.recovery_exit`` is the normal end; a ``tcp.timeout`` also
    terminates an episode (the base sender abandons recovery without
    emitting an exit marker).  An episode still open when the trace
    ends is dropped — its shape is unknowable.
    """
    ends = sorted(
        [(order, t, True) for order, t in trace.exits]
        + [(order, t, False) for order, t in trace.timeouts]
    )
    episodes: List[_Episode] = []
    cursor = 0
    for enter_order, enter_t, _recover in trace.enters:
        while cursor < len(ends) and ends[cursor][0] < enter_order:
            cursor += 1
        if cursor >= len(ends):
            break
        end_order, end_t, exited = ends[cursor]
        cursor += 1
        episodes.append(_Episode(enter_order, enter_t, end_order, end_t, exited))
    return episodes


def _columns(rows: Sequence[tuple], width: int) -> Tuple[tuple, ...]:
    """A series as ``width`` parallel tuples (one pass; empty-safe)."""
    return tuple(zip(*rows)) or ((),) * width


def _count_between(orders: Sequence[int], lo: int, hi: int) -> int:
    """How many of the increasing ``orders`` satisfy ``lo < order < hi``."""
    return bisect_left(orders, hi) - bisect_right(orders, lo)


def extract_features(trace: FlowTrace) -> FeatureVector:
    """Reduce one flow's event series to the canonical feature vector.

    Pure and deterministic: list order is bus arrival order, every
    reduction is a fixed-order sum, and no randomness participates.

    O(N + (E + R) log N) for N records, E episodes and R loss
    responses: each series is split into columns once, then every
    question about it is a binary search (hence the :class:`FlowTrace`
    precondition).  tests/ident/reference_features.py is the rescanning
    definition of every feature; the two must agree exactly.
    """
    rtt = _rtt_estimate(trace)
    episodes = _episodes(trace)
    cwnd_orders, cwnd_times, cwnd_values = _columns(trace.cwnd, 3)
    ack_orders, _, _, ack_dup = _columns(trace.acks, 4)
    send_orders, send_times, _, send_retx = _columns(trace.sends, 4)
    dup_orders = [o for o, dup in zip(ack_orders, ack_dup) if dup]
    retx_orders = [o for o, retx in zip(send_orders, send_retx) if retx]
    new_orders = [o for o, retx in zip(send_orders, send_retx) if not retx]
    enter_orders = [e.enter_order for e in episodes]
    end_orders = [e.end_order for e in episodes]

    def in_recovery(order: int) -> bool:
        # Enter and end orders both rise with the episode index, so of
        # the episodes entered by ``order`` the last one also ends last.
        i = bisect_right(enter_orders, order)
        return i > 0 and order <= end_orders[i - 1]

    def cwnd_at(t: float) -> float:
        # In effect at ``t``: the last sample with ``sample_t <= t``
        # (arrival order breaks ties), 0.0 before the first sample.
        i = bisect_right(cwnd_times, t)
        return cwnd_values[i - 1] if i else 0.0

    def cwnd_before(t: float) -> float:
        # Time-strict on purpose: the halving a sender performs while
        # *reacting* to an event is emitted at the same instant as the
        # event marker, so an order-based "before" would already see
        # the post-reaction value.
        i = bisect_left(cwnd_times, t)
        return cwnd_values[i - 1] if i else 0.0

    # Tahoe-style loss responses: a cwnd sample at (or below) one packet
    # that sits outside every recovery episode and is not the reset a
    # timeout performs.
    timeout_times = {t for _, t in trace.timeouts}
    collapses = [
        (order, t)
        for order, t, cwnd, previous in zip(
            cwnd_orders, cwnd_times, cwnd_values, (0.0,) + cwnd_values
        )
        if cwnd <= 1.0 + 1e-9
        and previous > cwnd + 1e-9
        and t not in timeout_times
        and not in_recovery(order)
    ]

    # Loss responses: every instant the sender reacted to loss.
    responses: List[Tuple[int, float]] = sorted(
        [(e.enter_order, e.enter_t) for e in episodes]
        + [(order, t) for order, t in trace.timeouts]
        + collapses
    )
    n_loss = len(responses)

    # 1/2 — what kind of loss response does this sender make?
    recovery_entry_rate = len(episodes) / n_loss if n_loss else 0.0
    timeout_rate = len(trace.timeouts) / n_loss if n_loss else 0.0

    # 3 — immediate cwnd reaction across *all* loss responses, measured
    # time-strictly around the event (Tahoe ~1/w, halvers ~0.5+, RR 1.0:
    # cwnd untouched until recovery exits).
    drops = []
    for _, t in responses:
        before = cwnd_before(t)
        if before <= 0.0:
            continue
        drops.append(cwnd_at(t + 0.2 * rtt) / before)
    loss_cwnd_drop = _mean(drops)

    # 4 — the same reaction measured at recovery entries only.
    entry_drops = []
    for episode in episodes:
        before = cwnd_before(episode.enter_t)
        if before <= 0.0:
            continue
        entry_drops.append(cwnd_at(episode.enter_t + 0.2 * rtt) / before)
    entry_cwnd_drop = _mean(entry_drops) if entry_drops else 1.0

    # 5/6/7 — in-recovery dynamics, by arrival order within episodes —
    # and 8, partial-ACK-triggered retransmission, the mechanism that
    # defines New-Reno against Reno: the fraction of in-recovery
    # retransmits whose immediately preceding ACK was a *new* ACK.
    # Reno never retransmits on a new ACK (it exits instead), so this
    # is ~0 for Reno and rises with burst depth for the hole-by-hole
    # schemes.
    dupacks_in = 0
    cwnd_moves_in = 0
    new_sends_in = 0
    retx_in = 0
    retx_after_new_ack = 0
    retx_with_ack_context = 0
    for episode in episodes:
        lo, hi = episode.enter_order, episode.end_order
        dupacks_in += _count_between(dup_orders, lo, hi)
        cwnd_moves_in += _count_between(cwnd_orders, lo, hi)
        new_sends_in += _count_between(new_orders, lo, hi)
        retransmits = retx_orders[
            bisect_right(retx_orders, lo):bisect_left(retx_orders, hi)
        ]
        retx_in += len(retransmits)
        for order in retransmits:
            i = bisect_right(ack_orders, order) - 1
            if i < 0:
                continue
            retx_with_ack_context += 1
            if not ack_dup[i]:
                retx_after_new_ack += 1
    cwnd_moves_per_dupack = cwnd_moves_in / dupacks_in if dupacks_in else 0.0
    recovery_new_data_per_dupack = (
        new_sends_in / dupacks_in if dupacks_in else 0.0
    )
    recovery_retx_per_episode = retx_in / len(episodes) if episodes else 0.0
    retx_on_new_ack_frac = (
        retx_after_new_ack / retx_with_ack_context
        if retx_with_ack_context
        else 0.0
    )

    # 9 — episode span in RTTs (Reno exits on the first new ACK; the
    # hole-by-hole schemes span the whole burst).
    episode_span_rtts = _mean(
        [(e.end_t - e.enter_t) / rtt for e in episodes]
    )

    # 10 — the exit-burst signature: packets clocked out on the exit
    # ACK and the immediate aftermath — and 11, the window surrendered
    # across a full episode: cwnd shortly after the exit vs cwnd
    # strictly before the entry.
    bursts = []
    exit_ratios = []
    for episode in episodes:
        if not episode.exited:
            continue
        aftermath = episode.end_t + 0.2 * rtt
        first = bisect_right(send_orders, episode.end_order)
        bursts.append(float(max(0, bisect_right(send_times, aftermath) - first)))
        before = cwnd_before(episode.enter_t)
        if before <= 0.0:
            continue
        exit_ratios.append(cwnd_at(aftermath) / before)
    exit_burst = _mean(bursts)
    exit_cwnd_ratio = _mean(exit_ratios)

    # 12 — growth style after a loss response: the fraction of
    # out-of-recovery cwnd increments in the following RTTs that look
    # like slow start's +1-per-ACK (Tahoe rebuilds exponentially;
    # avoidance grows by 1/cwnd; in-episode inflation is excluded).
    slow_start_steps = 0
    growth_steps = 0
    for order, t in responses:
        # Later in arrival order than the response, in (t, t + 3 RTT].
        first = max(bisect_right(cwnd_orders, order), bisect_right(cwnd_times, t))
        last = bisect_right(cwnd_times, t + 3.0 * rtt)
        window = [
            cwnd_values[i]
            for i in range(first, last)
            if not in_recovery(cwnd_orders[i])
        ]
        for a, b in zip(window, window[1:]):
            delta = b - a
            if delta <= 0.0:
                continue
            growth_steps += 1
            if 0.6 <= delta <= 1.4:
                slow_start_steps += 1
    post_loss_growth = slow_start_steps / growth_steps if growth_steps else 0.0

    # 13 — the paper's discriminator: multiplicative decreases per
    # window of loss responses.  Responses clustered within 3 RTTs
    # share a window; each backoff (a >20% sample-to-sample cwnd drop)
    # is charged to the last window that opened before it.  One backoff
    # per window is the single-halving family (and RR, whose one
    # decrease lands at recovery exit); Reno's episode-per-loss
    # behavior shows up as several.
    window_starts: List[float] = []  # strictly increasing
    for _, t in responses:
        if not window_starts or t - window_starts[-1] > 3.0 * rtt:
            window_starts.append(t)
    per_window = [0.0] * len(window_starts)
    for t, cwnd, previous in zip(cwnd_times[1:], cwnd_values[1:], cwnd_values):
        if previous > 0.0 and cwnd < 0.8 * previous:
            slot = bisect_right(window_starts, t) - 1
            if slot >= 0:
                per_window[slot] += 1.0
    backoffs_per_loss_window = _mean(per_window)

    values = (
        recovery_entry_rate,
        timeout_rate,
        loss_cwnd_drop,
        entry_cwnd_drop,
        cwnd_moves_per_dupack,
        recovery_new_data_per_dupack,
        recovery_retx_per_episode,
        retx_on_new_ack_frac,
        episode_span_rtts,
        exit_burst,
        exit_cwnd_ratio,
        post_loss_growth,
        backoffs_per_loss_window,
    )
    return FeatureVector(names=FEATURE_NAMES, values=values)
