"""Lazy package surfaces (PEP 562): a name costs its import on first use.

Every re-exporting ``__init__`` in this tree declares its public names
as one ``{submodule: names}`` table and binds the three module hooks::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "engine": ("Event", "Simulator"),
        ...
    })

``import repro.sim`` then imports nothing else.  ``repro.sim.Simulator``
(or ``from repro.sim import Simulator``, or ``from repro.sim import *``)
imports ``repro.sim.engine`` on first access and caches the object in the
package namespace, so the hook runs once per name.  Submodules resolve
the same way (``repro.sim.engine`` after a bare ``import repro``).
Objects are the defining module's own, so classes pickle by reference
exactly as with an eager ``from .engine import Simulator``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Callable, List, Mapping, Sequence, Tuple


class _ShadowingPackage(ModuleType):
    """A package re-exporting a name equal to the submodule defining it
    (``repro.runner.fsck``).  The import system binds a freshly imported
    submodule on its parent; keep the re-export there instead, as the
    eager ``from repro.runner.fsck import fsck`` did."""

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, ModuleType) and value.__name__ == f"{self.__name__}.{name}":
            value = getattr(value, name, value)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a submodule path relative to ``package`` (``"engine"``,
    ``"net.red"``) to the names re-exported from it.
    """
    origin = {name: sub for sub, names in table.items() for name in names}
    exported = list(origin)
    namespace = sys.modules[package].__dict__
    if any(origin[name] == name for name in origin):
        sys.modules[package].__class__ = _ShadowingPackage

    def __getattr__(name: str) -> object:
        if name in origin:
            value = getattr(import_module(f"{package}.{origin[name]}"), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exported))

    return __getattr__, __dir__, exported
