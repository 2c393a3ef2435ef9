"""Sequence-number time series — the "standard TCP sequence number
plots" of Figure 6.

:class:`SequenceTracer` wraps a :class:`~repro.metrics.flowstats.FlowStats`
and exposes the three series the paper plots: packets sent (first
transmissions), retransmissions, and the cumulative-ACK staircase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.metrics.flowstats import FlowStats


@dataclass
class SequenceTrace:
    """The extracted series (each a list of (time, packet-number))."""

    sends: List[Tuple[float, int]]
    retransmits: List[Tuple[float, int]]
    acks: List[Tuple[float, int]]

    def final_sequence(self) -> int:
        """Highest cumulatively acknowledged packet — the paper's
        headline comparison in Figure 6 (higher = more delivered in the
        same 6 seconds)."""
        return self.acks[-1][1] if self.acks else 0


class SequenceTracer:
    """Builds :class:`SequenceTrace` views from flow statistics."""

    def __init__(self, stats: FlowStats):
        self._stats = stats

    def trace(self, t_start: float = 0.0, t_end: float = float("inf")) -> SequenceTrace:
        sends = [
            (t, seq)
            for t, seq, retransmit in self._stats.send_series
            if not retransmit and t_start <= t <= t_end
        ]
        retransmits = [
            (t, seq)
            for t, seq, retransmit in self._stats.send_series
            if retransmit and t_start <= t <= t_end
        ]
        acks = [(t, a) for t, a in self._stats.ack_series if t_start <= t <= t_end]
        return SequenceTrace(sends=sends, retransmits=retransmits, acks=acks)

    def stall_periods(
        self, threshold: float, t_end: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Intervals longer than ``threshold`` with no ACK progress —
        the visible plateaus in Figure 6(a) where New-Reno sits waiting
        for its timeout.

        Gaps *between* consecutive ACKs are always reported.  Passing
        ``t_end`` (the end of the observation window) additionally
        reports the trailing stall of a flow that went quiet and never
        ACKed again — exactly the timeout plateau Figure 6(a) ends on,
        which a between-ACKs-only scan misses entirely.  A flow with no
        ACKs at all counts as stalled from t=0.
        """
        acks = self._stats.ack_series
        stalls: List[Tuple[float, float]] = []
        for (t0, _), (t1, _) in zip(acks, acks[1:]):
            if t1 - t0 >= threshold:
                stalls.append((t0, t1))
        if t_end is not None:
            t_last = acks[-1][0] if acks else 0.0
            if t_end - t_last >= threshold:
                stalls.append((t_last, t_end))
        return stalls
