"""Capture / restore / fork of live simulation worlds.

A :class:`Snapshot` freezes everything a continuation needs:

* the pickled object graph reachable from the *world* (the simulator —
  clock, serial counter, pending events — plus whatever the world
  object references: network, TCP agents, apps, observers, RNG
  streams);
* the module-global packet-uid counter (:func:`repro.net.packet.
  uid_state`), which lives outside any one world but feeds every
  packet the continuation will mint;
* a canonical state digest (:func:`repro.snapshot.digest.state_digest`)
  recorded at capture time, re-checked on restore so a corrupted or
  drifted payload fails loudly instead of silently diverging.

The correctness contract is **bit-identical continuation**: for any
world ``w`` at time T, ``Snapshot.capture(w).restore()`` run to the end
produces the same trace, FlowStats series and final state digest as
``w`` run to the end uninterrupted.  Capture itself never perturbs the
world (it only reads).

Since format 2 the payload is *sectioned*: one :class:`pickle.Pickler`
(so the memo — and therefore cross-section object identity — is
shared) emits a sequence of named dumps, and the header records each
section's byte length.  Unpickling the concatenation through a single
:class:`pickle.Unpickler` reconstructs the identical graph, so
sectioning changes the byte layout but never the semantics.  The point
of the exercise is :class:`~repro.snapshot.DeltaSnapshot`: two
snapshots of near-identical worlds (a warm prefix and a reprogrammed
per-cell fork, a crash point and its triage forks) share most sections
byte for byte, so a section-wise diff shows what changed and how much.

One sharp edge follows from the packet-uid counter being process
global: *restoring rewinds it.*  After a restore, the original world
object — if you kept it — would mint uids the continuation is also
minting.  Treat restore as a fork point: run the original to wherever
you need **before** restoring, or use :meth:`Snapshot.fork` which makes
the pattern explicit.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro._record import Record, asdict
from repro.errors import SnapshotError, SnapshotFormatError
from repro.net.packet import set_uid_state, uid_state
from repro.snapshot.digest import state_digest

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


def payload_checksum(payload: bytes) -> str:
    """Cheap integrity checksum over the raw payload bytes (recorded in
    the header, verified on load — catches truncation and bit flips
    without paying for an unpickle or a state-digest recompute)."""
    return hashlib.blake2b(payload, digest_size=32).hexdigest()

#: On-disk format version (bump on incompatible layout changes).
#: 1 — single ``{"world", "uid_next"}`` pickle; 2 — sectioned payload
#: (shared-memo multi-dump stream + section table in the header); 3 —
#: same layout, but a pickled ``Timer`` carries its ``_deadline`` (a
#: format-2 timer would load, then fail when it fires).
SNAPSHOT_FORMAT = 3

_MAGIC = "repro-snapshot"

#: Section holding the packet-uid counter (always first).
UID_SECTION = "__uid__"

#: Section holding the world object itself (always last).  Pickled
#: after the attribute sections, it resolves almost entirely to memo
#: references — the attribute sections carry the actual object graph.
WORLD_SECTION = "__world__"

#: Preferred order of world attributes in the section stream: stable,
#: data-heavy attributes first so a per-cell fork's delta (which
#: mutates link/loss state) shares the longest possible byte prefix
#: with its base snapshot.  Attributes not listed follow in the
#: world's own ``__dict__`` order.
_SECTION_ORDER = ("stats", "receivers", "sources", "senders", "dumbbell", "sim")


class SnapshotInfo(Record, frozen=True):
    """Cheap-to-read metadata, stored as a JSON header line on disk."""

    digest: str
    sim_time: float
    events_processed: int
    label: str
    format: int = SNAPSHOT_FORMAT
    #: ``(name, nbytes)`` per payload section, in stream order.
    sections: Tuple[Tuple[str, int], ...] = ()
    #: blake2b over the payload bytes; empty on files written before
    #: the integrity layer (then only the state-digest check applies).
    checksum: str = ""


def _default_getstate(cls: type):
    """The inherited-from-object ``__getstate__`` (absent before 3.11)."""
    return getattr(cls, "__getstate__", None)


_OBJECT_GETSTATE = getattr(object, "__getstate__", None)


def _sectionable(world: Any) -> bool:
    """True when ``world``'s attributes can be pickled as individual
    sections: a plain ``__dict__`` carrier with no custom pickling
    protocol (a record like ``ScenarioResult``).  Anything with a
    custom ``__getstate__``/``__reduce__`` (e.g. a bare
    :class:`Simulator`) is stored as a single world section instead —
    its canonicalization must run exactly once, at first reach."""
    cls = type(world)
    if getattr(cls, "__reduce__", None) is not object.__reduce__:
        return False
    if getattr(cls, "__reduce_ex__", None) is not object.__reduce_ex__:
        return False
    if _default_getstate(cls) is not _OBJECT_GETSTATE:
        return False
    if getattr(cls, "__setstate__", None) is not None:
        return False
    state = getattr(world, "__dict__", None)
    return isinstance(state, dict) and bool(state)


def _section_items(world: Any) -> List[Tuple[str, Any]]:
    """The ``(name, value)`` attribute sections for ``world`` (may be
    empty), ordered stable-first per ``_SECTION_ORDER``."""
    if not _sectionable(world):
        return []
    state: Dict[str, Any] = world.__dict__
    ordered = [name for name in _SECTION_ORDER if name in state]
    ordered += [name for name in state if name not in _SECTION_ORDER]
    return [(f"attr:{name}", state[name]) for name in ordered]


class Snapshot:
    """One frozen world.  Build with :meth:`capture` or :meth:`load`."""

    def __init__(self, payload: bytes, info: SnapshotInfo):
        self._payload = payload
        self.info = info

    # -- convenience accessors -----------------------------------------
    @property
    def digest(self) -> str:
        return self.info.digest

    @property
    def sim_time(self) -> float:
        return self.info.sim_time

    @property
    def nbytes(self) -> int:
        return len(self._payload)

    @property
    def payload(self) -> bytes:
        """The raw sectioned pickle stream (the delta layer diffs it)."""
        return self._payload

    def section_bytes(self) -> Dict[str, bytes]:
        """Per-section payload slices, in stream order."""
        out: Dict[str, bytes] = {}
        offset = 0
        for name, nbytes in self.info.sections:
            out[name] = self._payload[offset : offset + nbytes]
            offset += nbytes
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot(t={self.info.sim_time:.3f}, "
            f"digest={self.info.digest[:12]}…, {self.nbytes} bytes)"
        )

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, world: Any, label: str = "") -> "Snapshot":
        """Freeze ``world`` (anything holding a ``sim`` attribute, or a
        bare :class:`Simulator`).

        Raises :class:`SnapshotError` when the engine is inside
        :meth:`~repro.sim.engine.Simulator.run` (capture between
        events, e.g. after ``run(until=T)`` returns) or when part of
        the world is unpicklable (a closure in a scheduled event — use
        named callables).
        """
        sim = cls._find_sim(world)
        if sim._running:
            raise SnapshotError(
                "cannot capture while the engine is running; capture between "
                "run() calls (e.g. after sim.run(until=T) returns)"
            )
        digest = state_digest(world)
        stream = io.BytesIO()
        pickler = pickle.Pickler(stream, protocol=pickle.HIGHEST_PROTOCOL)
        sections: List[Tuple[str, int]] = []

        def dump(name: str, value: Any) -> None:
            start = stream.tell()
            pickler.dump(value)
            sections.append((name, stream.tell() - start))

        try:
            dump(UID_SECTION, uid_state())
            for name, value in _section_items(world):
                dump(name, value)
            dump(WORLD_SECTION, world)
        except Exception as exc:
            raise SnapshotError(
                f"world is not picklable: {type(exc).__name__}: {exc} "
                "(closures in scheduled events or callbacks are the usual "
                "culprit — use named callables)"
            ) from exc
        payload = stream.getvalue()
        info = SnapshotInfo(
            digest=digest,
            sim_time=sim.now,
            events_processed=sim.events_processed,
            label=label,
            sections=tuple(sections),
            checksum=payload_checksum(payload),
        )
        return cls(payload, info)

    @staticmethod
    def _find_sim(world: Any) -> Simulator:
        from repro.sim.engine import Simulator

        if isinstance(world, Simulator):
            return world
        sim = getattr(world, "sim", None)
        if isinstance(sim, Simulator):
            return sim
        raise SnapshotError(
            f"cannot locate a Simulator on {type(world).__name__!r}: pass the "
            "simulator itself or an object exposing it as `.sim`"
        )

    # ------------------------------------------------------------------
    # restore / fork
    # ------------------------------------------------------------------
    def _unpickle(self) -> Dict[str, Any]:
        """Load every section through one unpickler (shared memo)."""
        stream = io.BytesIO(self._payload)
        unpickler = pickle.Unpickler(stream)
        values: Dict[str, Any] = {}
        try:
            for name, _ in self.info.sections:
                values[name] = unpickler.load()
        except Exception as exc:
            raise SnapshotError(f"snapshot payload does not unpickle: {exc}") from exc
        if UID_SECTION not in values or WORLD_SECTION not in values:
            raise SnapshotError(
                "snapshot payload is missing its uid/world sections — "
                "truncated file or header drift"
            )
        return values

    def restore(self, verify: bool = True) -> Any:
        """Materialize an independent copy of the captured world.

        Also rewinds the process-global packet-uid counter to its
        captured position, so the continuation mints the same uids the
        uninterrupted run would (see the module docstring for the
        consequence: don't keep running the *original* world after a
        restore).

        With ``verify`` (the default) the restored world's state digest
        is recomputed and checked against the captured one.
        """
        if self.info.format != SNAPSHOT_FORMAT:
            raise SnapshotFormatError(
                f"snapshot format {self.info.format} is not supported "
                f"(this build reads format {SNAPSHOT_FORMAT})"
            )
        values = self._unpickle()
        world = values[WORLD_SECTION]
        if verify:
            digest = state_digest(world)
            if digest != self.info.digest:
                raise SnapshotError(
                    f"restored state digest {digest[:12]}… does not match "
                    f"captured {self.info.digest[:12]}… — payload corrupted "
                    "or digest encoding drifted"
                )
        set_uid_state(values[UID_SECTION])
        return world

    @property
    def uid_next(self) -> int:
        """The captured packet-uid position (what :meth:`restore` rewinds
        to).  Exposed so in-process forks can re-rewind between runs."""
        # The uid section is always first, so one load suffices.
        return pickle.Unpickler(io.BytesIO(self._payload)).load()

    def fork(
        self,
        n: int,
        mutate: Optional[Callable[[Any, int], Any]] = None,
        verify: bool = False,
    ) -> List[Any]:
        """Branch the frozen world into ``n`` independent continuations.

        Each fork is a separate :meth:`restore`; ``mutate(world, i)``
        (when given) edits fork ``i`` in place before it is returned —
        reprogram a loss module, swap a fault plan, change a variant
        knob.  Runs that must be bit-identical to each other should call
        :func:`repro.net.packet.set_uid_state(snapshot.uid_next)
        <repro.net.packet.set_uid_state>` before running each fork in
        the same process (restore leaves the counter positioned for the
        *last* fork restored; worker processes each restore exactly one
        fork, so the fan-out path needs no such care).
        """
        if n < 1:
            raise SnapshotError(f"fork count must be >= 1, got {n}")
        worlds = []
        for index in range(n):
            world = self.restore(verify=verify)
            if mutate is not None:
                mutated = mutate(world, index)
                if mutated is not None:
                    world = mutated
            worlds.append(world)
        return worlds

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Write ``<JSON header line>\\n<pickle payload>`` to ``path``."""
        path = Path(path)
        header = {"magic": _MAGIC, **asdict(self.info)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(self._payload)
        return path

    @classmethod
    def load(cls, path, verify_checksum: bool = True) -> "Snapshot":
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                header_line = fh.readline()
                payload = fh.read()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        info = cls._parse_header(path, header_line)
        if verify_checksum and info.checksum:
            actual = payload_checksum(payload)
            if actual != info.checksum:
                raise SnapshotError(
                    f"{path} payload checksum mismatch "
                    f"({actual[:12]}… != recorded {info.checksum[:12]}…) — "
                    "truncated or bit-flipped snapshot"
                )
        return cls(payload, info)

    @staticmethod
    def verify_file(path) -> SnapshotInfo:
        """Integrity-check a snapshot file without unpickling anything.

        Parses the header (raising :class:`~repro.errors.
        SnapshotFormatError` on a foreign format), re-hashes the
        payload against the recorded checksum, and cross-checks the
        section table against the payload length.  Returns the header
        info on success; raises :class:`~repro.errors.SnapshotError`
        on corruption.  The snapshot store checks every read with it.
        """
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                header_line = fh.readline()
                payload = fh.read()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        info = Snapshot._parse_header(path, header_line)
        if info.checksum:
            actual = payload_checksum(payload)
            if actual != info.checksum:
                raise SnapshotError(
                    f"{path} payload checksum mismatch — truncated or "
                    "bit-flipped snapshot"
                )
        expected = sum(nbytes for _, nbytes in info.sections)
        if info.sections and expected != len(payload):
            raise SnapshotError(
                f"{path} payload is {len(payload)} bytes but the section "
                f"table sums to {expected} — truncated snapshot"
            )
        return info

    @staticmethod
    def read_info(path) -> SnapshotInfo:
        """Header metadata without loading the payload."""
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                header_line = fh.readline()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        return Snapshot._parse_header(path, header_line)

    @staticmethod
    def _parse_header(path: Path, header_line: bytes) -> SnapshotInfo:
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"{path} is not a snapshot file") from exc
        if header.get("magic") != _MAGIC:
            raise SnapshotError(f"{path} is not a snapshot file (bad magic)")
        fmt = header.get("format", -1)
        if fmt != SNAPSHOT_FORMAT:
            raise SnapshotFormatError(
                f"{path} has snapshot format {fmt}; this build reads "
                f"format {SNAPSHOT_FORMAT}"
            )
        try:
            return SnapshotInfo(
                digest=header["digest"],
                sim_time=header["sim_time"],
                events_processed=header["events_processed"],
                label=header.get("label", ""),
                format=fmt,
                sections=tuple(
                    (str(name), int(nbytes))
                    for name, nbytes in header.get("sections", [])
                ),
                checksum=header.get("checksum", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"{path} has a malformed snapshot header: {exc!r}"
            ) from exc
