"""Setup shim.

Metadata lives in pyproject.toml; this file adds the *optional*
compiled engine core (``repro.sim._engine_core``: the event heap and
dispatch loop, and the DropTail and RED link hop that
``repro.net.node`` installs).  The extension is a pure accelerator —
the engine and the links fall back to their pure-python code whenever
the module is missing — so a failed build must never fail the install.
It is built at ``-O2``: the build is most of the benchmark's
``setup_s``, and ``-O3`` takes the compiler 13 % longer for run times
within 0.5 % (docs/PERFORMANCE.md, "The compiled hop").  Build it
explicitly with:

    python setup.py build_ext --inplace

Set ``REPRO_REQUIRE_COMPILED=1`` to turn a build failure into a hard
error (the compiled-core CI leg does, so a silently broken toolchain
cannot masquerade as a passing run).
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the accelerator if we can; fall back quietly if we cannot."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            self._tolerate(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            self._tolerate(exc)

    @staticmethod
    def _tolerate(exc):
        if os.environ.get("REPRO_REQUIRE_COMPILED", "").strip() not in ("", "0"):
            raise
        print(f"warning: skipping optional compiled core: {exc}")


setup(
    ext_modules=[
        Extension(
            "repro.sim._engine_core",
            sources=["src/repro/sim/_engine_core.c"],
            optional=True,
            # -O2 comes after sysconfig's -O3, so it wins.  No FMA
            # contraction: RED's EWMA must round like Python's.
            extra_compile_args=["-O2", "-ffp-contract=off"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
