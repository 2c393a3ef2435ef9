"""Checkpoint state for the slotted network classes.

:class:`~repro.net.link.Link`, the queue disciplines and the nodes keep
their fields in ``__slots__``, so the compiled hop
(``repro/sim/_engine_core.c``) reads and writes them at fixed offsets.
Their pickled and digested state is still the mapping their
``__dict__`` held before they had slots: the set slots in declaration
order (which is ``__init__``'s assignment order), then a subclass's own
``__dict__`` (a slot-less subclass's own fields), minus the class's derived
caches.  Golden digests and snapshots therefore do not depend on the
layout.
"""

from __future__ import annotations


class SlotState:
    """Mixin: ``__getstate__``/``__setstate__`` over ``__slots__``."""

    __slots__ = ()

    #: Slots holding derived caches: left out of the state, rebuilt by
    #: the class's ``__setstate__``.
    _DERIVED: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Computed once per class: a class write at first pickle would
        # move its version tag and briefly disarm the compiled hop.
        cls._STATE_SLOTS = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())
            if name not in cls._DERIVED and name not in ("__dict__", "__weakref__")
        )

    def __getstate__(self):
        state = {}
        for name in self._STATE_SLOTS:
            try:
                state[name] = getattr(self, name)
            except AttributeError:  # an unset slot, like an absent key
                pass
        extra = getattr(self, "__dict__", None)
        if extra:
            state.update(extra)
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
