"""Delta snapshots: one snapshot encoded as a diff against another.

Two snapshots of near-identical worlds — a warm prefix and a per-cell
fork of it, a crash point and its triage forks — share most payload
sections byte for byte.  A :class:`DeltaSnapshot` records, per section
(see :mod:`repro.snapshot.core`), either

* ``"="`` — byte-identical to the base's section of the same name,
* ``"~"`` — a block-level diff against the base section (rsync-style
  rolling weak hash + strong hash, copy/literal opcodes), or
* ``"+"`` — literal bytes (new section, or a diff that saved nothing).

:meth:`DeltaSnapshot.rebuild` reconstructs the target payload **bit
identically**, which is what makes :attr:`DeltaSnapshot.nbytes` a
measurement rather than an estimate: it is the size of an encoding the
target can actually be recovered from.

The codec is in-memory only.  It answers "how far apart are these two
worlds" (``snapshot diff`` in the CLI, the benchmark's delta-ratio
probe — 0.58-0.73 of the full payload on its forks); the snapshot
store keeps every snapshot in full, because a dumbbell world of
23-40 KB saves ≈ 10 KB per fork as a delta and no sweep stores enough
forks for that to show (docs/WARMSTART.md §2).
"""

from __future__ import annotations

import hashlib
import io
import zlib
from typing import Dict, List, Optional, Tuple

from repro._record import Record
from repro.errors import SnapshotError
from repro.snapshot.core import Snapshot, SnapshotInfo, payload_checksum

#: Block size of the rolling diff.  Small enough that one mutated
#: object invalidates little context, large enough that the opcode
#: table stays a sliver of the payload.
BLOCK_SIZE = 1024

_MOD = 65521  # largest prime < 2**16 (adler-style weak hash)


def _weak_hash(block: bytes) -> int:
    return zlib.adler32(block) & 0xFFFFFFFF


def _strong_hash(block: bytes) -> bytes:
    return hashlib.blake2b(block, digest_size=16).digest()


def _block_diff(base: bytes, target: bytes) -> List[Tuple]:
    """rsync in miniature: copy/literal opcodes turning ``base`` into
    ``target``.

    ``base`` is split into non-overlapping :data:`BLOCK_SIZE` blocks
    and indexed by (weak, strong) hash; ``target`` is scanned with a
    rolling weak hash so matches survive arbitrary byte shifts (pickle
    memo renumbering shifts every later reference).  Adjacent copies of
    adjacent base blocks coalesce.

    Returns ``[("c", base_offset, length), ("l", bytes), ...]``.
    """
    n = len(target)
    if not base or n < BLOCK_SIZE:
        return [("l", target)] if target else []
    index: Dict[int, List[Tuple[bytes, int]]] = {}
    for offset in range(0, len(base) - BLOCK_SIZE + 1, BLOCK_SIZE):
        block = base[offset : offset + BLOCK_SIZE]
        index.setdefault(_weak_hash(block), []).append((_strong_hash(block), offset))

    ops: List[Tuple] = []
    literal_start = 0

    def flush_literal(end: int) -> None:
        if end > literal_start:
            ops.append(("l", target[literal_start:end]))

    pos = 0
    weak: Optional[int] = None  # rolling adler over target[pos:pos+BLOCK_SIZE]
    a = b = 0
    while pos + BLOCK_SIZE <= n:
        if weak is None:
            window = target[pos : pos + BLOCK_SIZE]
            weak = zlib.adler32(window) & 0xFFFFFFFF
            a = weak & 0xFFFF
            b = (weak >> 16) & 0xFFFF
        candidates = index.get(weak)
        matched = None
        if candidates:
            strong = _strong_hash(target[pos : pos + BLOCK_SIZE])
            for cand_strong, cand_offset in candidates:
                if cand_strong == strong:
                    matched = cand_offset
                    break
        if matched is not None:
            flush_literal(pos)
            if (
                ops
                and ops[-1][0] == "c"
                and ops[-1][1] + ops[-1][2] == matched
            ):
                ops[-1] = ("c", ops[-1][1], ops[-1][2] + BLOCK_SIZE)
            else:
                ops.append(("c", matched, BLOCK_SIZE))
            pos += BLOCK_SIZE
            literal_start = pos
            weak = None
        else:
            # Roll the weak hash one byte forward.
            out_byte = target[pos]
            a = (a - out_byte) % _MOD
            b = (b - BLOCK_SIZE * out_byte - 1) % _MOD
            if pos + BLOCK_SIZE < n:
                in_byte = target[pos + BLOCK_SIZE]
                a = (a + in_byte) % _MOD
                b = (b + a) % _MOD
                weak = (b << 16) | a
            else:
                weak = None
            pos += 1
    flush_literal(n)
    return ops


def _apply_ops(base: bytes, ops: List[Tuple]) -> bytes:
    out = io.BytesIO()
    for op in ops:
        if op[0] == "c":
            _, offset, length = op
            if offset < 0 or offset + length > len(base):
                raise SnapshotError(
                    "delta copy op reaches outside the base section — "
                    "wrong base snapshot for this delta"
                )
            out.write(base[offset : offset + length])
        elif op[0] == "l":
            out.write(op[1])
        else:  # pragma: no cover - format guard
            raise SnapshotError(f"unknown delta opcode {op[0]!r}")
    return out.getvalue()


def _ops_size(ops: List[Tuple]) -> int:
    """Stored size: literal bytes plus a small fixed cost per opcode."""
    size = 0
    for op in ops:
        size += 16 if op[0] == "c" else len(op[1]) + 8
    return size


class DeltaInfo(Record, frozen=True):
    """What a delta needs beside its plan to verify a rebuild."""

    digest: str            # target snapshot's state digest
    base_digest: str       # base snapshot's state digest
    sim_time: float
    events_processed: int
    label: str
    sections: Tuple[Tuple[str, int], ...] = ()  # target section table


class DeltaSnapshot:
    """A snapshot encoded as a per-section diff against a base.

    ``plan`` maps section name -> ``("=",)`` | ``("~", ops)`` |
    ``("+", bytes)``; the target's section table (in :attr:`info`)
    fixes reassembly order and lengths.
    """

    def __init__(self, info: DeltaInfo, plan: Dict[str, Tuple]):
        self.info = info
        self.plan = plan

    # ------------------------------------------------------------------
    # diff / rebuild
    # ------------------------------------------------------------------
    @classmethod
    def diff(cls, snapshot: Snapshot, base: Snapshot) -> "DeltaSnapshot":
        """Encode ``snapshot`` as a delta against ``base``."""
        if snapshot.info.format != base.info.format:
            raise SnapshotError(
                "cannot diff snapshots of different formats "
                f"({snapshot.info.format} vs {base.info.format})"
            )
        base_sections = base.section_bytes()
        plan: Dict[str, Tuple] = {}
        for name, data in snapshot.section_bytes().items():
            base_data = base_sections.get(name)
            if base_data == data:
                plan[name] = ("=",)
            elif base_data:
                ops = _block_diff(base_data, data)
                if _ops_size(ops) < len(data):
                    plan[name] = ("~", ops)
                else:
                    plan[name] = ("+", data)
            else:
                plan[name] = ("+", data)
        info = DeltaInfo(
            digest=snapshot.info.digest,
            base_digest=base.info.digest,
            sim_time=snapshot.info.sim_time,
            events_processed=snapshot.info.events_processed,
            label=snapshot.info.label,
            sections=snapshot.info.sections,
        )
        return cls(info, plan)

    def rebuild(self, base: Snapshot) -> Snapshot:
        """Reconstruct the full target snapshot, bit-identically."""
        if base.info.digest != self.info.base_digest:
            raise SnapshotError(
                f"delta expects base {self.info.base_digest[:12]}…, got "
                f"{base.info.digest[:12]}…"
            )
        base_sections = base.section_bytes()
        payload = io.BytesIO()
        for name, nbytes in self.info.sections:
            entry = self.plan.get(name)
            if entry is None:
                raise SnapshotError(f"delta is missing section {name!r}")
            if entry[0] == "=":
                data = base_sections.get(name)
                if data is None:
                    raise SnapshotError(
                        f"delta references base section {name!r} which the "
                        "base snapshot does not have"
                    )
            elif entry[0] == "~":
                data = _apply_ops(base_sections.get(name, b""), entry[1])
            else:
                data = entry[1]
            if len(data) != nbytes:
                raise SnapshotError(
                    f"rebuilt section {name!r} is {len(data)} bytes, header "
                    f"says {nbytes} — wrong base snapshot for this delta"
                )
            payload.write(data)
        data = payload.getvalue()
        info = SnapshotInfo(
            digest=self.info.digest,
            sim_time=self.info.sim_time,
            events_processed=self.info.events_processed,
            label=self.info.label,
            sections=self.info.sections,
            checksum=payload_checksum(data),
        )
        return Snapshot(data, info)

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Encoded size: literal bytes plus a fixed cost per opcode
        (compare with the target's :attr:`Snapshot.nbytes`)."""
        size = 0
        for entry in self.plan.values():
            if entry[0] == "~":
                size += _ops_size(entry[1])
            elif entry[0] == "+":
                size += len(entry[1])
        return size

    @property
    def changed_sections(self) -> List[str]:
        return [name for name, entry in self.plan.items() if entry[0] != "="]
