"""Code fingerprint: one hash over everything that defines a result.

The result cache keys every entry by ``(task digest, code
fingerprint)`` so that *any* source edit invalidates *all* cached
results — coarse, but safe: a cached cell can never survive a change
to the code that produced it, and an unrelated edit elsewhere on the
machine (docs, most tests, scripts) costs nothing because only the
inputs below participate:

* every ``*.py`` and ``*.c`` under the installed ``repro`` package
  (the C source is ``sim/_engine_core.c``, the event loop that runs
  the cells on the compiled backend), hashed as ``relative-path + NUL
  + content`` pairs in sorted path order (so both renames and edits
  change the fingerprint);
* the snapshot/digest format constants (``SNAPSHOT_FORMAT``,
  ``DIGEST_VERSION``) — warm-started cells embed
  snapshot digests, and a format bump changes what those digests mean
  even when no ``repro`` source under the walk changed (e.g. an
  editable install pointing at a different checkout);
* the committed golden state digests
  (``tests/golden/state_digests.json``), when present — refreshing the
  goldens via ``scripts/update_golden.py`` declares "behaviour
  intentionally changed", and stale cached rows must not outlive that
  declaration;
* the committed behavior-class reference model
  (``repro/ident/reference_model.json``) — identification verdicts
  cached by sweep cells depend on the model bytes, and the model is
  data, not a ``*.py`` file the walk would catch.

Computing the fingerprint costs a few milliseconds; it is memoized per
process.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

_CACHE: dict = {}

#: Source files that define a result: the package's python and the
#: compiled event core's C.
SOURCE_SUFFIXES = (".py", ".c")


def package_root() -> Path:
    """Directory of the installed ``repro`` package (``src/repro``)."""
    return Path(__file__).resolve().parents[1]


def golden_digests_path(root: Optional[Path] = None) -> Path:
    """The committed golden-state digests for the checkout ``root``
    belongs to (``<repo>/tests/golden/state_digests.json``)."""
    root = Path(root) if root is not None else package_root()
    return root.resolve().parents[1] / "tests" / "golden" / "state_digests.json"


def code_fingerprint(root: Optional[Path] = None) -> str:
    """SHA-256 over the cache-relevant inputs (see module docstring)."""
    root = Path(root) if root is not None else package_root()
    key = str(root)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    sources = []
    for directory, subdirs, names in os.walk(root):
        if "__pycache__" in subdirs:
            subdirs.remove("__pycache__")
        sources.extend(
            Path(directory, name) for name in names if name.endswith(SOURCE_SUFFIXES)
        )
    for path in sorted(sources):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    # Imported here, from the modules that define them: repro.snapshot.*
    # sits above repro.runner in the import graph.
    from repro.snapshot.core import SNAPSHOT_FORMAT
    from repro.snapshot.digest import DIGEST_VERSION

    digest.update(f"formats:{SNAPSHOT_FORMAT}.{DIGEST_VERSION}".encode("utf-8"))
    digest.update(b"\0")
    golden = golden_digests_path(root)
    if golden.exists():
        digest.update(b"golden\0")
        digest.update(golden.read_bytes())
        digest.update(b"\0")
    reference_model = root / "ident" / "reference_model.json"
    if reference_model.exists():
        digest.update(b"ident-model\0")
        digest.update(reference_model.read_bytes())
        digest.update(b"\0")
    result = digest.hexdigest()
    _CACHE[key] = result
    return result
