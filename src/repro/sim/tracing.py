"""A lightweight trace bus, the replacement for ns-2 trace files.

Components publish typed trace records (packet enqueued, dropped, ACK
received, cwnd changed, ...); metrics modules subscribe by category.
Tracing is pay-for-what-you-use: with no subscribers a publish is one
dictionary lookup.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Callable, DefaultDict, Dict, Iterable, List, NamedTuple, Optional

from repro.sim.engine import CORE_BACKEND


class TraceRecord(NamedTuple):
    """One trace event: an immutable tuple-backed record — one is built
    per emit on a subscribed category, so construction must stay cheap.

    Attributes
    ----------
    time:
        Simulation time the event occurred.
    category:
        Dotted category string, e.g. ``"queue.drop"`` or ``"tcp.cwnd"``.
    source:
        Name of the emitting component.
    fields:
        Category-specific payload.
    """

    time: float
    category: str
    source: str
    fields: Dict[str, Any]


Subscriber = Callable[[TraceRecord], None]


class TraceChannel:
    """A per-category emit handle with a live merged-subscriber list.

    Hot call sites hold one of these (obtained from
    :meth:`TraceBus.channel`) and guard on ``channel.subs`` *before*
    building the field dict, so an unsubscribed category costs one
    attribute load and one truthiness test — no kwargs dict, no
    :class:`TraceRecord`.  The bus keeps ``subs`` current on every
    subscribe/unsubscribe (including wildcard changes), so mid-run
    subscriptions re-enable the category immediately.
    """

    __slots__ = ("category", "subs")

    def __init__(self, category: str, subs: List[Subscriber]):
        self.category = category
        self.subs = subs

    def emit(self, time: float, source: str, **fields: Any) -> None:
        """Build and deliver a record.  Callers on hot paths should
        check ``self.subs`` first and skip the call entirely when it is
        empty; calling unconditionally is still correct."""
        subs = self.subs
        if subs:
            record = TraceRecord(time, self.category, source, fields)
            for fn in subs:
                fn(record)


if CORE_BACKEND == "compiled":  # pragma: no cover - compiled-core CI leg
    # The core builds each record and calls the subscribers itself: a
    # record costs no emit frame and no TraceRecord.__new__ frame.  The
    # method above stays the pure backend and the fallback for a call it
    # would bind differently (docs/PERFORMANCE.md, "Cost of
    # an ACK").
    from repro.sim import _engine_core

    TraceChannel.emit = _engine_core.install_tracing(
        TraceRecord, TraceChannel, TraceChannel.emit
    )


#: Shared no-op channel for components constructed without a trace bus:
#: ``subs`` is permanently empty, so the hot-path guard stays a single
#: attribute test with no ``trace is None`` special case.
NULL_CHANNEL = TraceChannel("<null>", [])


class TraceBus:
    """Publish/subscribe hub for :class:`TraceRecord` objects.

    Subscriptions are exact-category; subscribing to ``"*"`` receives
    every category except the by-name-only ones (:attr:`BY_NAME_ONLY`),
    which reach only their own subscribers.

    Delivery is driven by a per-category *merged* subscriber list
    (exact + wildcard, materialized lazily and invalidated on
    subscribe/unsubscribe), so the per-emit cost is a single dict
    lookup whether or not anyone is listening — emits happen millions
    of times per run, subscription changes a handful.
    """

    WILDCARD = "*"
    #: Categories a wildcard subscriber never receives: ``link.tx`` is
    #: one record per hop service start, and only a by-name subscriber
    #: (hop timing, backend parity) reads it.
    BY_NAME_ONLY = frozenset({"link.tx"})

    def __init__(self) -> None:
        self._subscribers: DefaultDict[str, List[Subscriber]] = defaultdict(list)
        # category -> snapshot of exact + wildcard subscribers.  An
        # empty snapshot is cached too: that is what keeps the
        # nobody-listening emit at one lookup.
        self._merged: Dict[str, List[Subscriber]] = {}
        # category -> TraceChannel handed to hot call sites.  Channels
        # are updated eagerly on subscription changes (rare) so the
        # per-emit fast path never has to revalidate.
        self._channels: Dict[str, TraceChannel] = {}

    def channel(self, category: str) -> TraceChannel:
        """A cacheable per-category emit handle (see
        :class:`TraceChannel`).  Repeated calls return the same object,
        and its ``subs`` list tracks subscription changes."""
        ch = self._channels.get(category)
        if ch is None:
            merged = self._merged.get(category)
            if merged is None:
                merged = self._merge(category)
            ch = TraceChannel(category, merged)
            self._channels[category] = ch
        return ch

    def _invalidate(self, category: str) -> None:
        # _merge refreshes any existing channel's subs as a side effect.
        if category == self.WILDCARD:
            self._merged.clear()
            for ch in self._channels.values():
                self._merge(ch.category)
        else:
            self._merged.pop(category, None)
            if category in self._channels:
                self._merge(category)

    def _merge(self, category: str) -> List[Subscriber]:
        merged = list(self._subscribers.get(category, ()))
        if category != self.WILDCARD and category not in self.BY_NAME_ONLY:
            merged.extend(self._subscribers.get(self.WILDCARD, ()))
        self._merged[category] = merged
        ch = self._channels.get(category)
        if ch is not None:
            ch.subs = merged
        return merged

    def subscribe(self, category: str, fn: Subscriber) -> None:
        """Register ``fn`` for records of ``category`` (or ``"*"``)."""
        self._subscribers[category].append(fn)
        self._invalidate(category)

    def unsubscribe(self, category: str, fn: Subscriber) -> None:
        """Remove a subscription added with :meth:`subscribe`; raises
        :class:`ValueError` for a pair that was never subscribed."""
        # .get, not []: indexing the defaultdict would leave an empty
        # list (and a different pickle and digest) behind the raise.
        subscribers = self._subscribers.get(category, [])
        subscribers.remove(fn)
        if not subscribers:
            # Prune the empty list: a leftover [] would make the
            # defaultdict read as "has subscribers" forever.
            del self._subscribers[category]
        self._invalidate(category)

    def subscribe_many(self, categories: Iterable[str], fn: Subscriber) -> None:
        """Register one ``fn`` across several exact categories — the
        trace-tap idiom used by metrics collectors that want a handful
        of related channels without paying for a wildcard."""
        for category in categories:
            self.subscribe(category, fn)

    def unsubscribe_many(self, categories: Iterable[str], fn: Subscriber) -> None:
        """Undo a :meth:`subscribe_many` with the same arguments."""
        for category in categories:
            self.unsubscribe(category, fn)

    def has_subscribers(self, category: str) -> bool:
        merged = self._merged.get(category)
        if merged is None:
            merged = self._merge(category)
        return bool(merged)

    def publish(self, record: TraceRecord) -> None:
        """Deliver ``record`` to exact-category and wildcard subscribers."""
        merged = self._merged.get(record.category)
        if merged is None:
            merged = self._merge(record.category)
        for fn in merged:
            fn(record)

    def emit(self, time: float, category: str, source: str, **fields: Any) -> None:
        """Convenience constructor + publish, skipping record creation
        entirely when nobody is listening."""
        merged = self._merged.get(category)
        if merged is None:
            merged = self._merge(category)
        if merged:
            record = TraceRecord(time, category, source, fields)
            for fn in merged:
                fn(record)

    # ------------------------------------------------------------------
    # checkpoint / restore (pickle protocol)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Subscriptions only — the merged cache is a lazily rebuilt
        derived structure, so dropping it keeps the pickled form (and
        the snapshot digest) independent of which categories happened
        to be emitted before capture."""
        return {"subscribers": {k: list(v) for k, v in self._subscribers.items()}}

    def __setstate__(self, state) -> None:
        self._subscribers = defaultdict(list)
        for category, subscribers in state["subscribers"].items():
            self._subscribers[category] = list(subscribers)
        self._merged = {}
        self._channels = {}


class TraceTail:
    """A bounded ring buffer of the most recent trace records.

    Post-mortem tooling (invariant checkers, the engine watchdog)
    attaches the tail to its failure report so "what just happened"
    survives the abort.  Subscribe it to a bus wildcard (every category
    but :attr:`TraceBus.BY_NAME_ONLY`), or let
    :class:`~repro.sim.invariants.InvariantSuite` feed it.
    """

    def __init__(self, capacity: int = 50):
        if capacity < 1:
            raise ValueError(f"tail capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        self._bus: Optional[TraceBus] = None

    def append(self, record: TraceRecord) -> None:
        self._records.append(record)

    def install(self, bus: "TraceBus") -> None:
        """Start capturing what ``bus``'s wildcard carries."""
        if self._bus is not None:
            raise ValueError("tail is already installed on a bus")
        self._bus = bus
        bus.subscribe(TraceBus.WILDCARD, self.append)

    def uninstall(self) -> None:
        """Stop capturing; the records held stay readable.  Until then
        the wildcard subscription makes every category it carries build
        records."""
        if self._bus is not None:
            self._bus.unsubscribe(TraceBus.WILDCARD, self.append)
            self._bus = None

    def records(self) -> List[TraceRecord]:
        """The captured records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)
