"""Records: the ``@dataclass`` behaviour this package uses, with no code generation.

``@dataclass`` writes each class's ``__init__``, ``__repr__`` and
``__eq__`` as source text and ``exec``s it at every import (bytecode
cannot cache that), and importing :mod:`dataclasses` loads
:mod:`inspect`.  A :class:`Record` subclass gets the same behaviour from
methods shared by every record, so declaring one compiles nothing::

    class FlowSpec(Record):                      # was @dataclass
        variant: str
        start: float = 0.0
        tags: List[str] = field(default_factory=list)

    class SackBlock(Record, frozen=True):        # was @dataclass(frozen=True)
        ...

What stays as the standard library has it:

* **Fields** are the class's own annotations, after the fields of its
  nearest record base, with ``ClassVar`` skipped.  Plain defaults stay
  class attributes; a ``field(default_factory=...)`` one is removed.
  A subclass of a frozen record is frozen.
* **``__init__``** takes the fields positionally or by name, in
  declaration order, raises ``TypeError`` for a missing, unknown or
  doubled argument, then calls ``__post_init__`` if the class has one.
  Instance ``__dict__``s, and so pickles and state digests, keep the
  field order.
* **``__repr__``** is ``qualname(f=v!r, ...)``; **``__eq__``** compares
  field tuples of two instances of the same class and returns
  ``NotImplemented`` otherwise.  A mutable record is unhashable; a
  frozen one hashes its field tuple and raises
  :class:`FrozenInstanceError` on assignment or deletion.
* A method the class defines itself always wins (``TaskSpec.__hash__``,
  ``SackBlock.__contains__``, a hand-written ``__init__``).

:func:`fields`, :func:`asdict` and :func:`replace` replace their
:mod:`dataclasses` namesakes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

_MISSING: Any = object()
_ATOMIC = (type(None), bool, int, float, complex, str, bytes)


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


class Field:
    """One declared field: its ``name`` and its default, if any."""

    __slots__ = ("name", "default", "default_factory")

    def __init__(self, default: Any = _MISSING, default_factory: Any = _MISSING) -> None:
        self.name = ""
        self.default = default
        self.default_factory = default_factory


def field(*, default_factory: Callable[[], Any]) -> Any:
    """A field whose default is a fresh ``default_factory()`` per instance."""
    return Field(default_factory=default_factory)


def _frozen_setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen_hash(self: Any) -> int:
    return hash(tuple([getattr(self, f.name) for f in self.__record_fields__]))


class Record:
    """Base class of every record; see the module docstring."""

    __slots__ = ()
    __record_fields__: Tuple[Field, ...] = ()
    __record_frozen__ = False

    def __init_subclass__(cls, frozen: Any = None, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        declared: Dict[str, Field] = {f.name: f for f in cls.__record_fields__}
        for name, kind in own.get("__annotations__", {}).items():
            if str(kind).startswith(("ClassVar", "typing.ClassVar")):
                continue
            value = own.get(name, _MISSING)
            if isinstance(value, Field):
                spec = value
                delattr(cls, name)
            else:
                if type(value).__hash__ is None:
                    raise ValueError(
                        f"mutable default {type(value)} for field {name} "
                        "is not allowed: use default_factory"
                    )
                spec = Field(value)
            spec.name = name
            declared[name] = spec
        defaulted = ""
        for spec in declared.values():
            if spec.default is not _MISSING or spec.default_factory is not _MISSING:
                defaulted = spec.name
            elif defaulted:
                raise TypeError(
                    f"non-default argument {spec.name!r} follows default argument"
                )
        cls.__record_fields__ = tuple(declared.values())
        if frozen is not None:
            cls.__record_frozen__ = bool(frozen)
        own_hash = own.get("__hash__", _MISSING)
        if own_hash is _MISSING or (own_hash is None and "__eq__" in own):
            cls.__hash__ = _frozen_hash if cls.__record_frozen__ else None  # type: ignore[assignment]
        if cls.__record_frozen__:
            if "__setattr__" not in own:
                cls.__setattr__ = _frozen_setattr  # type: ignore[assignment]
            if "__delattr__" not in own:
                cls.__delattr__ = _frozen_delattr  # type: ignore[assignment]

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = type(self)
        declared = cls.__record_fields__
        if len(args) > len(declared):
            raise TypeError(
                f"{cls.__qualname__}.__init__() takes {len(declared) + 1} "
                f"positional arguments but {len(args) + 1} were given"
            )
        assign = object.__setattr__ if cls.__record_frozen__ else setattr
        for spec, value in zip(declared, args):
            if spec.name in kwargs:
                raise TypeError(
                    f"{cls.__qualname__}.__init__() got multiple values "
                    f"for argument {spec.name!r}"
                )
            assign(self, spec.name, value)
        for spec in declared[len(args):]:
            name = spec.name
            if name in kwargs:
                value = kwargs.pop(name)
            elif spec.default is not _MISSING:
                value = spec.default
            elif spec.default_factory is not _MISSING:
                value = spec.default_factory()
            else:
                raise TypeError(
                    f"{cls.__qualname__}.__init__() missing required argument: {name!r}"
                )
            assign(self, name, value)
        if kwargs:
            raise TypeError(
                f"{cls.__qualname__}.__init__() got an unexpected keyword "
                f"argument {next(iter(kwargs))!r}"
            )
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __repr__(self) -> str:
        body = ", ".join(
            [f"{f.name}={getattr(self, f.name)!r}" for f in self.__record_fields__]
        )
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = [f.name for f in self.__record_fields__]
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]


def fields(record: Any) -> Tuple[Field, ...]:
    """The fields of a record instance or class, in declaration order."""
    if not isinstance(record, Record) and not (
        isinstance(record, type) and issubclass(record, Record)
    ):
        raise TypeError(f"fields() takes a record or record class, not {record!r}")
    return record.__record_fields__


def asdict(record: Record) -> Dict[str, Any]:
    """``{field: value}``, recursing into records, lists, tuples and dicts;
    any other value is deep-copied."""
    if not isinstance(record, Record):
        raise TypeError("asdict() should be called on record instances")
    return _asdict(record)


def _asdict(value: Any) -> Any:
    if isinstance(value, _ATOMIC):
        return value
    if isinstance(value, Record):
        return {f.name: _asdict(getattr(value, f.name)) for f in value.__record_fields__}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return type(value)(*[_asdict(item) for item in value])
    if isinstance(value, (list, tuple)):
        return type(value)(_asdict(item) for item in value)
    if isinstance(value, dict):
        return type(value)((_asdict(k), _asdict(v)) for k, v in value.items())
    import copy

    return copy.deepcopy(value)


def replace(record: Record, **changes: Any) -> Any:
    """A new record of the same class with ``changes`` applied."""
    for spec in fields(record):
        if spec.name not in changes:
            changes[spec.name] = getattr(record, spec.name)
    return type(record)(**changes)
