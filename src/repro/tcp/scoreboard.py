"""SACK scoreboard: the sender-side record of which packets the
receiver holds, plus the RFC 3517 loss/pipe computations.

Packet-unit sequence numbers keep this simple: the scoreboard is a set
of SACKed packet numbers at or above ``snd_una``, plus the set of
packets retransmitted during the current recovery episode (``HighRxt``
in RFC terms).
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.net.packet import SackBlock


class Scoreboard:
    """Tracks SACKed and retransmitted packets for one connection."""

    def __init__(self, dupack_threshold: int = 3):
        self.dupack_threshold = dupack_threshold
        self._sacked: Set[int] = set()
        self._retransmitted: Set[int] = set()

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update(self, ackno: int, blocks: Iterable[SackBlock]) -> None:
        """Fold in one ACK: drop everything cumulatively acked, add the
        SACKed ranges.  A set with nothing below ``ackno`` is left as it
        is (the common case: an ACK that cumulatively acks no SACKed or
        retransmitted packet)."""
        sacked = self._sacked
        for block in blocks:
            sacked.update(range(block.start, block.end))
        if sacked and min(sacked) < ackno:
            self._sacked = {s for s in sacked if s >= ackno}
        retransmitted = self._retransmitted
        if retransmitted and min(retransmitted) < ackno:
            self._retransmitted = {s for s in retransmitted if s >= ackno}

    def mark_retransmitted(self, seqno: int) -> None:
        self._retransmitted.add(seqno)

    def clear(self) -> None:
        """Discard all SACK state (RFC 2018 requires this on RTO)."""
        self._sacked.clear()
        self._retransmitted.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_sacked(self, seqno: int) -> bool:
        return seqno in self._sacked

    def was_retransmitted(self, seqno: int) -> bool:
        return seqno in self._retransmitted

    def sacked_count(self) -> int:
        return len(self._sacked)

    def highest_sacked(self) -> int:
        """The highest SACKed packet, or -1 when nothing is SACKed."""
        return max(self._sacked, default=-1)

    def sacked_above(self, seqno: int) -> int:
        """Number of SACKed packets with sequence > ``seqno``."""
        return sum(1 for s in self._sacked if s > seqno)

    def is_lost(self, seqno: int) -> bool:
        """RFC 3517 IsLost: at least DupThresh SACKed packets above it."""
        if seqno in self._sacked:
            return False
        return self.sacked_above(seqno) >= self.dupack_threshold

    def pipe(self, snd_una: int, snd_nxt: int) -> int:
        """RFC 3517 SetPipe: the sender's estimate of packets in the
        path.  For every outstanding, un-SACKed packet: count it unless
        it is deemed lost, and count it (again) if it was retransmitted.
        """
        pipe = 0
        for seqno in range(snd_una, snd_nxt):
            if seqno in self._sacked:
                continue
            if not self.is_lost(seqno):
                pipe += 1
            if seqno in self._retransmitted:
                pipe += 1
        return pipe

    def next_retransmission(self, snd_una: int, snd_nxt: int) -> Optional[int]:
        """RFC 3517 NextSeg rule 1: the lowest outstanding packet that
        is deemed lost, is not SACKed, and has not been retransmitted
        this episode.  None if no such hole exists."""
        for seqno in range(snd_una, snd_nxt):
            if seqno in self._sacked or seqno in self._retransmitted:
                continue
            if self.is_lost(seqno):
                return seqno
        return None

    def holes(self, snd_una: int, snd_nxt: int) -> list:
        """All outstanding un-SACKed packets (diagnostics)."""
        return [s for s in range(snd_una, snd_nxt) if s not in self._sacked]
