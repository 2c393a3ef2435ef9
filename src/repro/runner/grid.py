"""One grid executor: a harness lists its cells, the runner runs them
cold or warm.

A warm-startable harness describes each cell as a :class:`GridCell`: a
named *prefix* function that builds a world and advances it to the
point where the grid's cells diverge, and a named *finish* function
that applies the cell's own divergence (reprogram a loss module, attach
a flow) and reduces the run to a result row.  :func:`run_grid` maps the
cells onto one task entry point, :func:`run_grid_cell`, which hands the
finish function a zero-argument ``fresh_world`` — the prefix function
itself cold, a restore of the prefix's frozen snapshot warm.  Both
yield the same world, so warm rows are bit-identical to cold rows by
construction rather than by keeping two cell functions in step.

A warm :func:`run_grid` call captures each distinct prefix once into a
:class:`~repro.runner.warmstart.SnapshotStore` and hands its cells the
snapshot digest; the snapshot serves that one call.  A cell whose
snapshot is missing, corrupt or foreign runs the prefix cold, so a
damaged store never fails or changes a warm sweep.
:mod:`repro.runner.warmstart` is imported only when a caller asks for
a warm start.  No CLI flag does: at paper size forking beats running
cold on no grid and loses 1.2-1.5x on most (docs/WARMSTART.md "What
warm start costs"), so the path is kept for library callers, the
bit-identity suite and the benchmark probe; see docs/WARMSTART.md.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._record import Record
from repro.errors import SnapshotError
from repro.runner.pool import SweepRunner
from repro.runner.spec import TaskSpec, resolve


class GridCell(Record, frozen=True):
    """One cell of a warm-startable grid.

    ``prefix_fn`` / ``finish_fn`` are ``"module:callable"`` paths (task
    specs carry names, not closures).  ``prefix_fn(*prefix_args)``
    returns the world at the capture point; cells whose prefix function
    and arguments are equal share one capture.  The cell's result is
    ``finish_fn(fresh_world, *finish_args)``.
    """

    prefix_fn: str
    prefix_args: Tuple[Any, ...]
    finish_fn: str
    finish_args: Tuple[Any, ...]
    label: str = ""

    def spec(self, digest: Optional[str] = None, store_root: Optional[str] = None) -> TaskSpec:
        """The cell's task spec: cold, or forking the stored prefix
        snapshot ``digest`` — which makes the prefix's content part of
        a warm cell's cache identity."""
        args = (self.prefix_fn, self.prefix_args, self.finish_fn, self.finish_args)
        label = self.label
        if digest is not None:
            args += (digest, store_root)
            label += " (warm)"
        return TaskSpec("repro.runner.grid:run_grid_cell", args, label=label)


def run_grid_cell(
    prefix_fn: str,
    prefix_args: Sequence[Any],
    finish_fn: str,
    finish_args: Sequence[Any],
    digest: Optional[str] = None,
    store_root: Optional[str] = None,
) -> Any:
    """Task entry point of every grid cell, cold (``digest`` None) or
    warm.  ``fresh_world`` may be called once per replication; every
    call yields an independent world at the capture point."""
    fresh_world = partial(resolve(prefix_fn), *prefix_args)
    if digest is not None:
        from repro.runner.warmstart import SnapshotStore

        # verify=False: the store key IS the state digest taken at
        # capture, and re-hashing the world per fork would eat the
        # warm-start win; the grid tests assert the stronger property
        # (warm rows == cold rows).
        try:
            snapshot = SnapshotStore(store_root).get(digest)
        except SnapshotError:
            pass  # gone, corrupt (now quarantined) or foreign: run cold
        else:
            fresh_world = partial(snapshot.restore, verify=False)
    return resolve(finish_fn)(fresh_world, *finish_args)


def run_grid(
    cells: Sequence[GridCell],
    runner: Optional[SweepRunner] = None,
    warm_start: bool = False,
    store: Optional["SnapshotStore"] = None,
) -> List[Any]:
    """Run ``cells`` through one ``runner.map``; results in cell order.

    ``warm_start`` is tested for truth.  When true, every cell forks
    its prefix's frozen snapshot: this process runs each distinct
    prefix once (cells with equal prefix function and arguments share
    it) and puts the capture into ``store``, then the forks fan out
    over the runner like any sweep.
    """
    runner = runner or SweepRunner()
    if not warm_start:
        return runner.map([cell.spec() for cell in cells])
    from repro.runner.warmstart import SnapshotStore
    from repro.snapshot import Snapshot

    store = store or SnapshotStore()
    store_root = str(store.root)
    digests: Dict[str, str] = {}
    specs = []
    for cell in cells:
        key = TaskSpec(cell.prefix_fn, cell.prefix_args).digest()
        if key not in digests:
            world = resolve(cell.prefix_fn)(*cell.prefix_args)
            digests[key] = store.put(
                Snapshot.capture(world, label=f"prefix of {cell.label}")
            )
        specs.append(cell.spec(digests[key], store_root))
    return runner.map(specs)


def step_until(
    sim,
    predicate: Callable[[], bool],
    step: float = 0.02,
    deadline: Optional[float] = None,
) -> bool:
    """Advance ``sim`` in ``step``-second increments until ``predicate()``
    holds (returns True) or ``deadline`` (absolute sim time) passes
    (returns False).

    This is the prefix-builder's stepping loop: run close to — but
    provably short of — a divergence point that is defined by *state*
    (a sender's highest transmitted sequence) rather than by a known
    wall time.  Callers pick ``step`` smaller than the state's growth
    per check so the loop cannot overshoot.
    """
    while not predicate():
        if deadline is not None and sim.now >= deadline:
            return False
        sim.run(until=sim.now + step)
    return True
