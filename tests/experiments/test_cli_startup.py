"""Import budget of the experiments CLI: a call pays for what it runs.

Counts of loaded modules (``sys.modules`` of a fresh interpreter) and of
code generated at run time (``compile`` audit events), not timings — see
docs/PERFORMANCE.md "Cost of a CLI call".
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.cli import EXPERIMENTS

HARNESSES = {f"repro.experiments.{module}" for module in EXPERIMENTS.values()}
#: Sub-packages no default path needs: the chaos harness, the
#: identification oracle and the scene generator.
HEAVY = ("repro.faults", "repro.ident", "repro.scenes")
#: ``import repro.experiments.cli`` loaded 110 ``repro.*`` modules before
#: the package surfaces became lazy and 19 after.
CLI_IMPORT_BUDGET = 25
#: The simulator proper: what a cell runs and a cached replay never loads.
SIMULATOR_PACKAGES = ("repro.tcp.", "repro.app.")
SIMULATOR_MODULES = {
    "repro.tcp",
    "repro.app",
    "repro.net.node",
    "repro.net.link",
    "repro.net.network",
    "repro.net.topology",
    "repro.sim.engine",
    "repro.sim._engine_core",
    "repro.metrics.flowstats",
}


def loaded_modules(code, env=None):
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {})},
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def heavy(modules):
    return {m for m in modules if m.startswith(HEAVY)}


def simulator(modules):
    return {m for m in modules if m in SIMULATOR_MODULES or m.startswith(SIMULATOR_PACKAGES)}


@pytest.mark.parametrize("module", ["repro", "repro.experiments", "repro.experiments.cli"])
def test_import_loads_no_harness(module):
    modules = loaded_modules(f"import {module}")
    assert not modules & HARNESSES
    assert not heavy(modules)


def test_cli_import_budget():
    modules = loaded_modules("import repro.experiments.cli")
    ours = {m for m in modules if m == "repro" or m.startswith("repro.")}
    assert len(ours) <= CLI_IMPORT_BUDGET, sorted(ours)
    # Run ids come from os.urandom, not uuid (which also loads platform).
    assert not modules & {"uuid", "platform"}


def cli_call(*argv):
    return (
        "import contextlib, io\n"
        "from repro.experiments.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )


def test_fig5_loads_only_its_own_harness(tmp_path):
    env = {
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        "REPRO_ARTIFACT_DIR": str(tmp_path / "artifacts"),
    }
    call = cli_call("fig5", "--quick", "--quiet", "--jobs", "1")
    for phase in ("cold", "replay"):
        modules = loaded_modules(call, env)
        assert modules & HARNESSES == {"repro.experiments.figure5"}, phase
        assert not heavy(modules), phase
        # --jobs 1 runs in-process.
        assert "concurrent.futures.process" not in modules, phase
        assert "multiprocessing" not in modules, phase
        # ... unprofiled, and cold (the CLI never warm-starts).
        assert not modules & {"cProfile", "pstats"}, phase
        assert not modules & {"repro.runner.warmstart", "repro.snapshot.golden"}, phase
        if phase == "cold":
            assert "repro.sim.engine" in modules
        else:
            assert not simulator(modules), sorted(simulator(modules))
    assert (tmp_path / "cache").is_dir()


@pytest.mark.parametrize(
    "experiment,harness",
    [("fig6", "figure6"), ("fig7", "figure7"), ("ackloss", "ackloss")],
)
def test_cold_grid_loads_no_warm_start_machinery(tmp_path, experiment, harness):
    """The other CLI-reachable grids of the benchmark sweep, cold: the
    grid executor loads, the snapshot store behind ``warm_start=True``
    does not (``step_until`` lives in the executor).  Replayed from the
    cache, they load no simulator module at all."""
    env = {
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        "REPRO_ARTIFACT_DIR": str(tmp_path / "artifacts"),
    }
    call = cli_call(experiment, "--quick", "--quiet", "--jobs", "1")
    modules = loaded_modules(call, env)
    assert modules & HARNESSES == {f"repro.experiments.{harness}"}
    assert "repro.runner.grid" in modules
    assert "repro.runner.warmstart" not in modules
    assert "repro.sim.engine" in modules
    replay = loaded_modules(call, env)
    assert replay & HARNESSES == {f"repro.experiments.{harness}"}
    assert not simulator(replay), sorted(simulator(replay))


def test_tools_load_no_harness(tmp_path):
    env = {"REPRO_CACHE_DIR": str(tmp_path / "cache")}
    snap = str(tmp_path / "rr.snap")
    loaded_modules(cli_call("snapshot", "capture", "rr", "--checkpoint-at", "1", "--out", snap))
    for argv in (
        ("--list",),
        ("snapshot", "inspect", snap),
    ):
        assert not loaded_modules(cli_call(*argv), env) & HARNESSES, argv


#: Prepended to a child's script: collect the source of every ``compile``
#: audit event that is not a module being compiled from its file (that
#: depends on whether bytecode is cached, not on the code).
GENERATED_CODE_HOOK = (
    "import sys\n"
    "generated = []\n"
    "def _hook(event, args):\n"
    "    if event == 'compile' and not str(args[1]).endswith('.py'):\n"
    "        source = args[0]\n"
    "        generated.append(source.decode() if isinstance(source, bytes) else str(source))\n"
    "sys.addaudithook(_hook)\n"
)


def generated_code(argv, env):
    """``(generated sources, code-generating stdlib modules loaded)`` of
    one CLI call in a fresh interpreter."""
    script = (
        GENERATED_CODE_HOOK
        + cli_call(*argv)
        + "import json\n"
        "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "print(json.dumps([generated, loaded]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, **env},
    )
    return json.loads(done.stdout.splitlines()[-1])


def trace_record_code():
    """What declaring ``TraceRecord`` compiles: ``typing.NamedTuple``
    compiles each string annotation, ``collections.namedtuple`` its
    ``__new__``.  The C core fills it as a plain tuple, so it stays one."""
    from repro.sim.tracing import TraceRecord

    return sorted(ref.__forward_arg__ for ref in TraceRecord.__annotations__.values())


@pytest.mark.parametrize("experiment", ["fig5", "fig7"])
def test_a_call_generates_no_code(tmp_path, experiment):
    """Records are built without ``exec``: a cached replay compiles
    nothing, a cold call only ``TraceRecord``, and neither loads
    ``dataclasses`` or ``inspect`` (at the parent, with ``@dataclass``:
    68 and 91 events)."""
    env = {
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        "REPRO_ARTIFACT_DIR": str(tmp_path / "artifacts"),
    }
    argv = (experiment, "--quick", "--quiet", "--jobs", "1")
    cold, loaded = generated_code(argv, env)
    assert loaded == []
    new = [source for source in cold if source.startswith("lambda _cls, ")]
    assert len(new) == 1 and "time, category, source, fields" in new[0]
    assert sorted(source for source in cold if source not in new) == trace_record_code()
    replay, loaded = generated_code(argv, env)
    assert replay == []
    assert loaded == []
