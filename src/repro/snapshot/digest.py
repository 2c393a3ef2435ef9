"""Canonical state digests: a process-stable SHA-256 over a live world.

The digest is the snapshot subsystem's equality oracle.  Two worlds get
the same digest exactly when their *observable* simulation state is the
same — so "restore then continue" can be checked against "never
interrupted" with one string comparison, and a golden digest committed
to the repo detects any behavioral drift in a TCP variant.

Why not ``hashlib.sha256(pickle.dumps(world))``?  Pickle output is not
canonical: memo numbering depends on traversal incidentals, and
container layouts that are behaviorally irrelevant (heap array order
after a compaction, a lazily-built cache, set iteration order under a
different ``PYTHONHASHSEED``) would all perturb the hash.  Instead we
walk the object graph ourselves and feed a type-tagged canonical
encoding into the hash incrementally:

* dict entries are sorted when every key is primitive (insertion order
  otherwise — pickle preserves it, so it round-trips);
* set/frozenset elements are sorted by their own encoded bytes, which
  makes the digest independent of ``PYTHONHASHSEED``;
* floats are encoded via ``repr`` (shortest round-trip form, exact);
* shared objects and cycles are handled with an identity memo — the
  second visit encodes as a back-reference index, which is stable
  because the traversal order is itself canonical;
* objects encode as their type name plus ``__getstate__()``, so classes
  can canonicalize themselves (the engine stores its heap sorted and
  drops cancelled entries; the trace bus drops its merged-subscriber
  cache);
* ``random.Random`` encodes via ``getstate()``; bound methods encode as
  the function's qualified name plus a reference to ``__self__``;
  module-level functions and classes encode by qualified name.

The encoding is versioned (`DIGEST_VERSION`) — bump it whenever the
framing changes so stale golden digests fail loudly.
"""

from __future__ import annotations

import hashlib
import random
import types
from collections import defaultdict, deque
from enum import Enum
from typing import Any, Dict, List

from repro.errors import SnapshotError

#: Mixed into every digest; bump on any change to the framing below.
DIGEST_VERSION = 1


def state_digest(obj: Any) -> str:
    """Canonical SHA-256 hex digest of ``obj``'s state."""
    hasher = hashlib.sha256()
    hasher.update(f"repro-state-digest.v{DIGEST_VERSION}\x00".encode("ascii"))
    _Encoder(hasher).encode(obj)
    return hasher.hexdigest()


def state_fingerprints(obj: Any) -> Dict[str, str]:
    """Per-attribute digests of ``obj`` — the unit of a state *diff*.

    When a golden digest mismatches, diffing these against the golden
    run's fingerprints names the sections (sender, queue, stats, ...)
    that actually drifted instead of leaving one opaque hash.  The
    sections are the ``__getstate__()`` the digest encodes, so an object
    with both slots and an instance dict is fingerprinted whole.
    """
    try:
        state = obj.__getstate__()
    except Exception as exc:  # pragma: no cover - defensive
        raise SnapshotError(f"cannot fingerprint {type(obj).__name__}") from exc
    if isinstance(state, tuple):  # default slots form: (dict_state, slots_state)
        merged: Dict[str, Any] = {}
        for part in state:
            if isinstance(part, dict):
                merged.update(part)
        state = merged
    return {name: state_digest(value) for name, value in sorted((state or {}).items())}


class _Encoder:
    """Streams a canonical encoding of an object graph into a hasher."""

    def __init__(self, sink) -> None:
        self._sink = sink
        self._memo: Dict[int, int] = {}
        # Encoded objects must stay alive for the whole walk or their
        # ids could be recycled and alias a later object in the memo.
        self._keepalive: List[Any] = []

    def _u(self, data: bytes) -> None:
        self._sink.update(data)

    def _tag(self, tag: str, payload: str = "") -> None:
        self._u(f"{tag}:{payload}\x00".encode("utf-8", "surrogatepass"))

    # ------------------------------------------------------------------
    def encode(self, obj: Any) -> None:
        # --- primitives: encoded by value, never memoized -------------
        if obj is None:
            self._tag("N")
        elif obj is True:
            self._tag("T")
        elif obj is False:
            self._tag("F")
        elif isinstance(obj, int):
            self._tag("I", repr(obj))
        elif isinstance(obj, float):
            self._tag("D", repr(obj))
        elif isinstance(obj, str):
            self._tag("S", f"{len(obj)}")
            self._u(obj.encode("utf-8", "surrogatepass"))
        elif isinstance(obj, (bytes, bytearray)):
            self._tag("B", f"{len(obj)}")
            self._u(bytes(obj))
        elif isinstance(obj, tuple):
            self._tag("U", f"{len(obj)}")
            for item in obj:
                self.encode(item)
        # --- shared/cyclic structures: memoized by identity -----------
        elif id(obj) in self._memo:
            self._tag("@", f"{self._memo[id(obj)]}")
        else:
            self._memo[id(obj)] = len(self._memo)
            self._keepalive.append(obj)
            self._encode_compound(obj)

    def _encode_compound(self, obj: Any) -> None:
        if isinstance(obj, list):
            self._tag("L", f"{len(obj)}")
            for item in obj:
                self.encode(item)
        elif isinstance(obj, deque):
            self._tag("Q", f"{len(obj)}/{obj.maxlen}")
            for item in obj:
                self.encode(item)
        elif isinstance(obj, defaultdict):
            self._tag("MD")
            self.encode(obj.default_factory)
            self._encode_dict(obj)
        elif isinstance(obj, dict):
            self._encode_dict(obj)
        elif isinstance(obj, (set, frozenset)):
            # Sort by each element's own canonical bytes: stable across
            # processes regardless of PYTHONHASHSEED.  Elements are
            # encoded with a fresh memo (their bytes must not depend on
            # what the outer walk has already seen).
            encoded = []
            for item in obj:
                accum = _Accumulator()
                _Encoder(accum).encode(item)
                encoded.append(bytes(accum.data))
            self._tag("E", f"{len(obj)}")
            for blob in sorted(encoded):
                self._u(blob)
        elif isinstance(obj, Enum):
            self._tag("G", f"{_qualname(type(obj))}.{obj.name}")
        elif isinstance(obj, random.Random):
            self._tag("R")
            self.encode(obj.getstate())
        elif isinstance(obj, types.MethodType):
            self._tag("BM", _qualname(obj.__func__))
            self.encode(obj.__self__)
        elif isinstance(obj, (types.FunctionType, types.BuiltinFunctionType)):
            self._tag("FN", _qualname(obj))
        elif isinstance(obj, type):
            self._tag("C", _qualname(obj))
        else:
            self._encode_object(obj)

    def _encode_dict(self, obj: dict) -> None:
        self._tag("M", f"{len(obj)}")
        items = list(obj.items())
        if all(_primitive_key(key) for key, _ in items):
            items.sort(key=lambda kv: (type(kv[0]).__name__, repr(kv[0])))
        for key, value in items:
            self.encode(key)
            self.encode(value)

    def _encode_object(self, obj: Any) -> None:
        self._tag("O", _qualname(type(obj)))
        try:
            state = obj.__getstate__()
        except Exception as exc:
            raise SnapshotError(
                f"cannot digest {type(obj).__name__}: __getstate__ failed ({exc})"
            ) from exc
        self.encode(state)


class _Accumulator:
    """A hashlib-shaped sink that collects bytes (for set elements)."""

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data = bytearray()

    def update(self, chunk: bytes) -> None:
        self.data.extend(chunk)


def _qualname(obj: Any) -> str:
    module = getattr(obj, "__module__", "?")
    name = getattr(obj, "__qualname__", getattr(obj, "__name__", repr(obj)))
    return f"{module}.{name}"


def _primitive_key(key: Any) -> bool:
    if isinstance(key, (str, int, float, bool, bytes)) or key is None:
        return True
    if isinstance(key, tuple):
        return all(_primitive_key(item) for item in key)
    return False
