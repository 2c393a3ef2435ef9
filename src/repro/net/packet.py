"""Packet model.

Sequence and acknowledgment numbers are in *packet units* (0-based), the
ns-2 convention the paper's graphs use ("the new ACK for packet 64").
An ACK carries the *next expected* packet number, so a duplicate ACK
repeats the same ``ackno`` and a partial ACK satisfies
``snd_una < ackno <= recover``.

Data packets default to 1000 bytes and ACKs to 40 bytes, the sizes used
throughout the paper's evaluation (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

DATA = "data"
ACK = "ack"

DEFAULT_DATA_BYTES = 1000
DEFAULT_ACK_BYTES = 40


class _UidSource:
    """The module-global packet-uid sequence.

    A named class (not ``itertools.count``) so the position can be read
    and rewound: packet uids are process-global state outside any one
    simulator, and :mod:`repro.snapshot` must capture and restore the
    sequence alongside a world for restored runs to mint the same uids
    an uninterrupted run would.
    """

    __slots__ = ("next_uid",)

    def __init__(self, start: int = 1):
        self.next_uid = start

    def __call__(self) -> int:
        uid = self.next_uid
        self.next_uid += 1
        return uid


_uid_counter = _UidSource()


def uid_state() -> int:
    """The next uid the module will assign (snapshot capture hook)."""
    return _uid_counter.next_uid


def set_uid_state(next_uid: int) -> None:
    """Rewind/advance the uid sequence (snapshot restore hook)."""
    if next_uid < 1:
        raise ValueError(f"packet uid state must be >= 1, got {next_uid}")
    _uid_counter.next_uid = next_uid


@dataclass(frozen=True)
class SackBlock:
    """A SACK block: the half-open packet range [start, end) received."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty SACK block [{self.start}, {self.end})")

    def __contains__(self, seqno: int) -> bool:
        return self.start <= seqno < self.end

    @property
    def count(self) -> int:
        return self.end - self.start


class Packet:
    """One simulated packet.

    A hand-written ``__slots__`` class (it was a dataclass once): packet
    construction and field access dominate many-flow scenes, and slots
    cut both the per-instance dict and the allocation cost.  The
    dataclass-era constructor signature, equality semantics and
    checkpoint state (a plain field dict — see ``__getstate__``) are
    preserved exactly.

    Attributes
    ----------
    kind:
        ``DATA`` or ``ACK``.
    flow_id:
        Identifies the TCP connection the packet belongs to.
    src, dst:
        Node names; routers forward on ``dst``.
    seqno:
        For DATA: the packet sequence number.  For ACK: unused (0).
    ackno:
        For ACK: the next expected packet number (cumulative).
    size:
        Bytes on the wire (drives transmission delay).
    sack_blocks:
        SACK information (most recently changed block first), empty for
        non-SACK receivers.
    ecn_capable:
        DATA: sender supports ECN (ECT codepoint); an ECN-enabled RED
        gateway marks such packets instead of dropping them early.
    ecn_marked:
        DATA: congestion-experienced mark set by a gateway.
    ecn_echo:
        ACK: the receiver is echoing a congestion mark back (ECE).
    is_retransmit:
        True when the sender marked this DATA packet as a retransmission
        (used by Karn's rule and by the trace tooling).
    sent_at:
        Time the sender transmitted this copy (stamped by the agent).
    uid:
        Globally unique id for this packet instance; retransmissions get
        fresh uids.
    """

    __slots__ = _FIELDS = (
        "kind",
        "flow_id",
        "src",
        "dst",
        "seqno",
        "ackno",
        "size",
        "sack_blocks",
        "ecn_capable",
        "ecn_marked",
        "ecn_echo",
        "is_retransmit",
        "sent_at",
        "uid",
    )

    def __init__(
        self,
        kind: str,
        flow_id: int,
        src: str,
        dst: str,
        seqno: int = 0,
        ackno: int = 0,
        size: int = DEFAULT_DATA_BYTES,
        sack_blocks: Optional[List[SackBlock]] = None,
        ecn_capable: bool = False,
        ecn_marked: bool = False,
        ecn_echo: bool = False,
        is_retransmit: bool = False,
        sent_at: float = 0.0,
        uid: Optional[int] = None,
    ):
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seqno = seqno
        self.ackno = ackno
        self.size = size
        self.sack_blocks = [] if sack_blocks is None else sack_blocks
        self.ecn_capable = ecn_capable
        self.ecn_marked = ecn_marked
        self.ecn_echo = ecn_echo
        self.is_retransmit = is_retransmit
        self.sent_at = sent_at
        self.uid = _uid_counter() if uid is None else uid

    @property
    def is_data(self) -> bool:
        return self.kind == DATA

    @property
    def is_ack(self) -> bool:
        return self.kind == ACK

    def __eq__(self, other) -> bool:
        # Same semantics the dataclass generated: all fields, same type.
        if other.__class__ is not Packet:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._FIELDS
        )

    # The dataclass was eq-without-frozen, hence unhashable; keep that.
    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self):
        """A plain field dict in declaration order — byte-identical to
        the ``__dict__`` the pre-slots dataclass pickled/digested."""
        return {name: getattr(self, name) for name in self._FIELDS}

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_data:
            rtx = " rtx" if self.is_retransmit else ""
            return f"<DATA f{self.flow_id} seq={self.seqno}{rtx} {self.src}->{self.dst}>"
        sacks = f" sack={[(b.start, b.end) for b in self.sack_blocks]}" if self.sack_blocks else ""
        return f"<ACK f{self.flow_id} ack={self.ackno}{sacks} {self.src}->{self.dst}>"


class _EmptyPool:
    """What :func:`packet_pool` returns: packets are not pooled, so every
    count is zero.  Kept only for ``bench/workloads.py``; ROADMAP item 1a
    deletes it with :func:`packet_pool` and :func:`drain_packet_pool`."""

    __slots__ = ()

    def stats(self) -> dict:
        return {"free": 0, "reused": 0, "released": 0, "skipped": 0}


def packet_pool() -> _EmptyPool:
    """Zero pool counts.  Kept only for ``bench/workloads.py`` until
    ROADMAP item 1a deletes it."""
    return _EmptyPool()


def drain_packet_pool() -> int:
    """Returns 0: there is no pool to drain.  Kept only for
    ``bench/workloads.py`` until ROADMAP item 1a deletes it."""
    return 0


def data_packet(
    flow_id: int,
    src: str,
    dst: str,
    seqno: int,
    size: int = DEFAULT_DATA_BYTES,
    is_retransmit: bool = False,
) -> Packet:
    """Build a DATA packet."""
    # Slot writes, not Packet(...): no __init__ frame per packet.
    packet = object.__new__(Packet)
    packet.kind = DATA
    packet.flow_id = flow_id
    packet.src = src
    packet.dst = dst
    packet.seqno = seqno
    packet.ackno = 0
    packet.size = size
    packet.sack_blocks = []
    packet.ecn_capable = False
    packet.ecn_marked = False
    packet.ecn_echo = False
    packet.is_retransmit = is_retransmit
    packet.sent_at = 0.0
    packet.uid = uid = _uid_counter.next_uid
    _uid_counter.next_uid = uid + 1
    return packet


def ack_packet(
    flow_id: int,
    src: str,
    dst: str,
    ackno: int,
    size: int = DEFAULT_ACK_BYTES,
    sack_blocks: Optional[List[SackBlock]] = None,
) -> Packet:
    """Build an ACK packet (optionally carrying SACK blocks)."""
    packet = object.__new__(Packet)
    packet.kind = ACK
    packet.flow_id = flow_id
    packet.src = src
    packet.dst = dst
    packet.seqno = 0
    packet.ackno = ackno
    packet.size = size
    packet.sack_blocks = list(sack_blocks or ())
    packet.ecn_capable = False
    packet.ecn_marked = False
    packet.ecn_echo = False
    packet.is_retransmit = False
    packet.sent_at = 0.0
    packet.uid = uid = _uid_counter.next_uid
    _uid_counter.next_uid = uid + 1
    return packet


def clone_packet(packet: Packet) -> Packet:
    """An independent wire copy of ``packet`` with a fresh uid — what a
    duplicating network element puts on the link next to the original."""
    return Packet(
        kind=packet.kind,
        flow_id=packet.flow_id,
        src=packet.src,
        dst=packet.dst,
        seqno=packet.seqno,
        ackno=packet.ackno,
        size=packet.size,
        sack_blocks=list(packet.sack_blocks),
        ecn_capable=packet.ecn_capable,
        ecn_marked=packet.ecn_marked,
        ecn_echo=packet.ecn_echo,
        is_retransmit=packet.is_retransmit,
        sent_at=packet.sent_at,
        uid=_uid_counter(),
    )


def merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping/adjacent half-open integer ranges (helper for
    building SACK blocks from a receiver's out-of-order buffer)."""
    if not ranges:
        return []
    ordered = sorted(ranges)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged
