"""Setup shim.

Metadata lives in pyproject.toml; this file adds the *optional*
compiled engine core (``repro.sim._engine_core``: the event heap and
dispatch loop, and the DropTail and RED link hop that
``repro.net.node`` installs).  The extension is a pure accelerator —
the engine and the links fall back to their pure-python code whenever
the module is missing — so a failed build must never fail the install.
It is built at ``-O2``: the build is most of the benchmark's
``setup_s``, and ``-O3`` takes the compiler 13 % longer for run times
within 0.5 % (docs/PERFORMANCE.md, "The compiled core and its
fallback"); ``-g0`` pays for the bytecode below.  Build it explicitly
with:

    python setup.py build_ext --inplace

which also writes the package's bytecode, as ``pip install`` would, so
a ``PYTHONDONTWRITEBYTECODE=1`` interpreter does not compile ``repro``
at every start.  Hash-checked, so an edited module is recompiled on
import, never run stale (docs/PERFORMANCE.md "Cost of a CLI call").

Set ``REPRO_REQUIRE_COMPILED=1`` to turn a failure of either step into
a hard error (the compiled-core CI leg does, so a silently broken
toolchain cannot masquerade as a passing run).
"""

import compileall
import os
import py_compile

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

REQUIRED = os.environ.get("REPRO_REQUIRE_COMPILED", "").strip() not in ("", "0")


class OptionalBuildExt(build_ext):
    """Build the accelerator if we can; fall back quietly if we cannot."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            self._tolerate(exc)
        if self.inplace:
            try:
                mode = py_compile.PycInvalidationMode.CHECKED_HASH
                if not compileall.compile_dir("src/repro", quiet=1, invalidation_mode=mode):
                    raise RuntimeError("src/repro did not byte-compile")
            except Exception as exc:  # noqa: BLE001 - unwritable tree, syntax error
                self._tolerate(exc, "bytecode")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            self._tolerate(exc)

    @staticmethod
    def _tolerate(exc, what="compiled core"):
        if REQUIRED:
            raise
        print(f"warning: skipping optional {what}: {exc}")


setup(
    ext_modules=[
        Extension(
            "repro.sim._engine_core",
            sources=["src/repro/sim/_engine_core.c"],
            # Not when required: setuptools would demote its failure to a warning.
            optional=not REQUIRED,
            # -O2 and -g0 come after sysconfig's -O3 and -g, so they win;
            # -g0 drops DWARF only (no strip: backtraces name C functions).
            # No FMA contraction: RED's EWMA must round like Python's.
            extra_compile_args=["-O2", "-g0", "-ffp-contract=off"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
