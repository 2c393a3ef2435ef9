"""Serializable descriptions of one simulation cell.

A :class:`TaskSpec` names a module-level callable by dotted path plus
the arguments to call it with.  Two properties make the whole sweep
layer work:

* **Picklable** — the spec (not a closure) crosses the process
  boundary, so any harness cell that is a top-level function of
  picklable arguments can fan out over a worker pool unchanged.
* **Canonically hashable** — :meth:`TaskSpec.digest` is a stable
  SHA-256 over a canonical JSON encoding of the call (record
  configs included, field by field), so a spec is usable as a
  content-address for its result.  Equal work -> equal digest,
  regardless of which process, session or argument spelling
  (tuple vs list) produced it.

Determinism contract: a spec must describe a *pure* cell — every
random draw inside the callable must derive from arguments captured in
the spec (seeds, configs).  All harness cells in
:mod:`repro.experiments` satisfy this, which is why ``--jobs 4`` is
bit-identical to ``--jobs 1``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from typing import Any, Callable, Dict, Tuple

from repro._record import Record, field, fields
from repro.errors import ConfigurationError


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to JSON-encodable primitives, deterministically.

    Records (:class:`repro._record.Record`) become tagged dicts (type
    name + per-field canonical values), sequences become lists, mappings
    are key-sorted.  The tag is still ``"__dataclass__"``, the name from
    when configs were ``@dataclass`` classes: renaming it would change
    every spec digest, cache key and manifest ``args`` block.
    Anything else (callables, open handles, live simulators) is
    rejected: if it cannot be named, it cannot be hashed honestly.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Record):
        cls = type(value)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: canonicalize(getattr(value, f.name))
                for f in fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(canonicalize(item) for item in value)}
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"task-spec dict keys must be strings, got {key!r}"
                )
            out[key] = canonicalize(value[key])
        return out
    raise ConfigurationError(
        f"cannot canonicalize {type(value).__name__!r} for a task spec; "
        "specs may only carry primitives, sequences, mappings and records"
    )


def uncanonicalize(value: Any) -> Any:
    """Rebuild a live value from its :func:`canonicalize` encoding.

    The inverse, up to canonical equivalence: tagged record dicts
    are re-instantiated (the class is imported by its recorded dotted
    name), ``__set__`` tags become sets, and JSON arrays come back as
    lists (tuples canonicalize to the same JSON, so the round-tripped
    value has the same digest even when the original held tuples).
    Used by :mod:`repro.scenes.spec` to rebuild a stored scene spec.
    """
    if isinstance(value, dict):
        if "__dataclass__" in value and "fields" in value:
            dotted = value["__dataclass__"]
            # ``module.qualname`` where both halves may contain dots
            # (packages / nested classes): import the longest prefix
            # that is a module, getattr the rest.
            parts = dotted.split(".")
            target: Any = None
            for split in range(len(parts) - 1, 0, -1):
                try:
                    target = importlib.import_module(".".join(parts[:split]))
                except ImportError:
                    continue
                for part in parts[split:]:
                    target = getattr(target, part)
                break
            if target is None:
                raise ConfigurationError(f"cannot import record {dotted!r}")
            kwargs = {
                name: uncanonicalize(child)
                for name, child in value["fields"].items()
            }
            try:
                return target(**kwargs)
            except TypeError as exc:
                raise ConfigurationError(
                    f"cannot rebuild {dotted!r} from canonical fields: {exc}"
                ) from exc
        if "__set__" in value and len(value) == 1:
            return {uncanonicalize(item) for item in value["__set__"]}
        return {key: uncanonicalize(child) for key, child in value.items()}
    if isinstance(value, list):
        return [uncanonicalize(item) for item in value]
    return value


def resolve(path: str) -> Callable[..., Any]:
    """Import the callable named by ``"package.module:attr"``."""
    module_name, _, attr = path.partition(":")
    if not attr:
        raise ConfigurationError(
            f"task-spec fn must look like 'module:callable', got {path!r}"
        )
    target: Any = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


class TaskSpec(Record):
    """One unit of sweep work: ``resolve(fn)(*args, **kwargs)``.

    ``label`` is cosmetic (progress lines, cache debugging) and is
    excluded from the digest.
    """

    fn: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        self.args = tuple(self.args)

    def canonical(self) -> str:
        """The canonical JSON encoding of this call (digest preimage)."""
        payload = {
            "fn": self.fn,
            "args": canonicalize(self.args),
            "kwargs": canonicalize(self.kwargs),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Stable SHA-256 content address of the call."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def run(self) -> Any:
        """Execute the cell in the current process."""
        return resolve(self.fn)(*self.args, **self.kwargs)

    def describe(self) -> str:
        return self.label or f"{self.fn}({len(self.args)} args)"

    def __hash__(self) -> int:  # usable as a dict key for result routing
        return hash(self.digest())
