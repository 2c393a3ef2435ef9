"""The scanning ``extract_features`` this repo shipped through PR 17,
kept verbatim as the differential oracle for the bisecting version in
:mod:`repro.ident.features` (tests/ident/test_features_differential.py).

It rescans whole series per episode and per loss response, so it is
quadratic in the trace length, and it is the definition of every
feature: the production version must return exactly equal tuples.
Not a test module; do not "optimise" it.
"""

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.ident.features import FEATURE_NAMES, FeatureVector, FlowTrace


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


def _cwnd_value_at(trace: FlowTrace, t: float) -> float:
    """The cwnd in effect at time ``t``: the last sample with
    ``sample_t <= t`` (arrival order breaks same-time ties), or 0.0
    before the first sample."""
    value = 0.0
    for _, sample_t, cwnd in trace.cwnd:
        if sample_t > t:
            break
        value = cwnd
    return value


def _cwnd_before_time(trace: FlowTrace, t: float) -> float:
    """The cwnd strictly before time ``t``.  Time-strict on purpose:
    the halving a sender performs while *reacting* to an event is
    emitted at the same simulation instant as the event marker, so an
    order-based "before" would already see the post-reaction value."""
    value = 0.0
    for _, sample_t, cwnd in trace.cwnd:
        if sample_t >= t:
            break
        value = cwnd
    return value


@dataclass(frozen=True)
class _Episode:
    enter_order: int
    enter_t: float
    recover: int
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
    for enter_order, enter_t, recover in trace.enters:
        while cursor < len(ends) and ends[cursor][0] < enter_order:
            cursor += 1
        if cursor >= len(ends):
            break
        end_order, end_t, exited = ends[cursor]
        cursor += 1
        episodes.append(
            _Episode(
                enter_order=enter_order,
                enter_t=enter_t,
                recover=recover,
                end_order=end_order,
                end_t=end_t,
                exited=exited,
            )
        )
    return episodes


def _collapses(trace: FlowTrace, episodes: Sequence[_Episode]) -> List[Tuple[int, float]]:
    """Tahoe-style loss responses: a cwnd sample at (or below) one
    packet that sits outside every recovery episode and is not the
    reset a timeout performs."""
    inside = [(e.enter_order, e.end_order) for e in episodes]
    timeout_times = {t for _, t in trace.timeouts}
    collapses: List[Tuple[int, float]] = []
    previous = 0.0
    for order, t, cwnd in trace.cwnd:
        was_collapse = (
            cwnd <= 1.0 + 1e-9
            and previous > cwnd + 1e-9
            and t not in timeout_times
            and not any(lo <= order <= hi for lo, hi in inside)
        )
        if was_collapse:
            collapses.append((order, t))
        previous = cwnd
    return collapses


def extract_features(trace: FlowTrace) -> FeatureVector:
    """Reduce one flow's event series to the canonical feature vector.

    Pure and deterministic: list order is bus arrival order, every
    reduction is a fixed-order sum, and no randomness participates.
    """
    rtt = _rtt_estimate(trace)
    episodes = _episodes(trace)
    collapses = _collapses(trace, episodes)

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
        before = _cwnd_before_time(trace, t)
        if before <= 0.0:
            continue
        drops.append(_cwnd_value_at(trace, t + 0.2 * rtt) / before)
    loss_cwnd_drop = _mean(drops)

    # 4 — the same reaction measured at recovery entries only.
    entry_drops = []
    for episode in episodes:
        before = _cwnd_before_time(trace, episode.enter_t)
        if before <= 0.0:
            continue
        entry_drops.append(
            _cwnd_value_at(trace, episode.enter_t + 0.2 * rtt) / before
        )
    entry_cwnd_drop = _mean(entry_drops) if entry_drops else 1.0

    # 5/6/7 — in-recovery dynamics, by arrival order within episodes.
    dupacks_in = 0
    cwnd_moves_in = 0
    new_sends_in = 0
    retx_in = 0
    for episode in episodes:
        lo, hi = episode.enter_order, episode.end_order
        dupacks_in += sum(
            1 for order, _, _, dup in trace.acks if dup and lo < order < hi
        )
        cwnd_moves_in += sum(
            1 for order, _, _ in trace.cwnd if lo < order < hi
        )
        for order, _, _seq, retransmit in trace.sends:
            if not lo < order < hi:
                continue
            if retransmit:
                retx_in += 1
            else:
                new_sends_in += 1
    cwnd_moves_per_dupack = cwnd_moves_in / dupacks_in if dupacks_in else 0.0
    recovery_new_data_per_dupack = (
        new_sends_in / dupacks_in if dupacks_in else 0.0
    )
    recovery_retx_per_episode = retx_in / len(episodes) if episodes else 0.0

    # 8 — partial-ACK-triggered retransmission, the mechanism that
    # defines New-Reno against Reno: the fraction of in-recovery
    # retransmits whose immediately preceding ACK was a *new* ACK.
    # Reno never retransmits on a new ACK (it exits instead), so this
    # is ~0 for Reno and rises with burst depth for the hole-by-hole
    # schemes.
    ack_orders = [order for order, _, _, _ in trace.acks]
    retx_after_new_ack = 0
    retx_with_ack_context = 0
    for episode in episodes:
        lo, hi = episode.enter_order, episode.end_order
        for order, _, _seq, retransmit in trace.sends:
            if not (retransmit and lo < order < hi):
                continue
            i = bisect_right(ack_orders, order) - 1
            if i < 0:
                continue
            retx_with_ack_context += 1
            if not trace.acks[i][3]:
                retx_after_new_ack += 1
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
    # ACK and the immediate aftermath.
    bursts = []
    for episode in episodes:
        if not episode.exited:
            continue
        burst = sum(
            1
            for order, t, _, _ in trace.sends
            if order > episode.end_order and t <= episode.end_t + 0.2 * rtt
        )
        bursts.append(float(burst))
    exit_burst = _mean(bursts)

    # 11 — window surrendered across a full episode: cwnd shortly
    # after the exit vs cwnd strictly before the entry.
    exit_ratios = []
    for episode in episodes:
        if not episode.exited:
            continue
        before = _cwnd_before_time(trace, episode.enter_t)
        if before <= 0.0:
            continue
        exit_ratios.append(
            _cwnd_value_at(trace, episode.end_t + 0.2 * rtt) / before
        )
    exit_cwnd_ratio = _mean(exit_ratios)

    # 12 — growth style after a loss response: the fraction of
    # out-of-recovery cwnd increments in the following RTTs that look
    # like slow start's +1-per-ACK (Tahoe rebuilds exponentially;
    # avoidance grows by 1/cwnd; in-episode inflation is excluded).
    inside_episode = [(e.enter_order, e.end_order) for e in episodes]

    def in_recovery(sample_order: int) -> bool:
        return any(lo <= sample_order <= hi for lo, hi in inside_episode)

    slow_start_steps = 0
    growth_steps = 0
    for order, t in responses:
        window_samples = [
            (sample_order, sample_t, cwnd)
            for sample_order, sample_t, cwnd in trace.cwnd
            if sample_order > order
            and t < sample_t <= t + 3.0 * rtt
            and not in_recovery(sample_order)
        ]
        for (_, _, a), (_, _, b) in zip(window_samples, window_samples[1:]):
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
    window_starts: List[float] = []
    for _, t in responses:
        if not window_starts or t - window_starts[-1] > 3.0 * rtt:
            window_starts.append(t)
    backoff_times = [
        t
        for (_, t, cwnd), (_, _, previous) in zip(
            trace.cwnd[1:], trace.cwnd[:-1]
        )
        if previous > 0.0 and cwnd < 0.8 * previous
    ]
    per_window = [0.0] * len(window_starts)
    for t in backoff_times:
        slot = None
        for i, start in enumerate(window_starts):
            if start <= t:
                slot = i
            else:
                break
        if slot is not None:
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
