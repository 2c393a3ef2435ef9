"""State digests of RED, Python-queue and WAN worlds, pinned.

``tests/golden/state_digests.json`` covers drop-tail dumbbells only, so
nothing there pins a ``RedQueue``'s state or that of a queue the
compiled hop hands to Python (the tests' ``FlowCountingQueue``, whose
own field sits in an instance dict next to its slots).  The digests
below were recorded on the commit before the hop classes got
``__slots__`` (8158602), with the same script, and must not move: the
slotted classes' ``__getstate__`` must give exactly the mapping their
``__dict__`` held.  Each world runs to two checkpoints on the pure
backend in one process and on the default backend (compiled when built)
in another; a pickle round trip at the first checkpoint, run on to the
second, must give the second digest too.

The ``wan`` pair was re-recorded once, when RR stopped setting its
re-entry guard at exit (that guard could never block an entry):
writing the old guard values back into the six RR senders gives the
old pair exactly.  The ``fq`` pair was re-recorded when its queue, a
deficit-round-robin fair queue, left the library and the tests'
``FlowCountingQueue`` took its place: only the fixture changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")

#: world -> (digest at the first checkpoint, digest at the second).
PARENT_DIGESTS = {
    "red-dumbbell": (
        "ce23cadff659a5cca6f71a17b50a575805c7bc8690fa2e83eea6e1e8dcb98273",
        "5616f37acc5ddda7d438025b8eec69d4ac95a39b26a93423430ca437edbb6503",
    ),
    "fq-dumbbell": (
        "fd8e2122f8657bcb82a57e839d40156792533058e4a29ccbf7d1d45e0361e762",
        "e0917b7b87cca2671c65b2141d048689322758266c11ef39d1149424cf776e50",
    ),
    "wan": (
        "b19d04a66379f77e1fd6324f853654c847b0a9a20f3ce5c8bea87143542de015",
        "7f4c3a56b908e5d92281bbcbd5a6c07703566df15cf3bf262c16a818e080c4c6",
    ),
}

_SCRIPT = """\
import json, pickle
from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.packet import set_uid_state, uid_state
from repro.net.red import RedParams, RedQueue
from repro.net.topology import DumbbellParams
from repro.scenes import FlowPopulation, SceneSpec, WaxmanParams, build_scene
from repro.sim.engine import CORE_BACKEND, Simulator
from repro.sim.rng import RngStream
from repro.snapshot import state_digest
from repro.snapshot.golden import TRANSFER_PACKETS
from tests.snapshot.helpers import FlowCountingQueue


def dumbbell(queue):
    # The golden dumbbell (no injected drops) with its bottleneck queue
    # replaced: RED as in tests/sim/test_queue_probe_mutation.py, or a
    # queue only Python serves.
    sim = Simulator()
    factories = {
        "red": lambda name: RedQueue(sim, RedParams(limit=25), RngStream(7, name), name=name),
        "fq": lambda name: FlowCountingQueue(25, name=name),
    }
    return build_dumbbell_scenario(
        flows=[FlowSpec(variant="rr", amount_packets=TRANSFER_PACKETS)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
        bottleneck_queue_factory=factories[queue],
        sim=sim,
    )


def wan():
    return build_scene(SceneSpec(
        family="wan",
        topology=WaxmanParams(n_routers=8, graph_seed=3),
        flows=FlowPopulation(count=6),
        red=RedParams(min_th=10.0, max_th=40.0, max_p=0.02, limit=120),
        seed=5,
        duration=1.0,
    ))


WORLDS = {
    "red-dumbbell": (lambda: dumbbell("red"), (1.5, 3.0)),
    "fq-dumbbell": (lambda: dumbbell("fq"), (1.5, 3.0)),
    "wan": (wan, (0.4, 1.0)),
}
out = {"backend": CORE_BACKEND}
for name, (build, (first, second)) in WORLDS.items():
    set_uid_state(1)
    world = build()
    world.sim.run(until=first)
    digests = [state_digest(world)]
    copy, uid = pickle.loads(pickle.dumps(world)), uid_state()
    world.sim.run(until=second)
    digests.append(state_digest(world))
    set_uid_state(uid)  # packet uids are process-global
    copy.sim.run(until=second)
    digests.append(state_digest(copy))
    out[name] = digests
print(json.dumps(out))
"""


def _run(env_extra):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((SRC, str(ROOT)))}
    env.pop("REPRO_PURE_PYTHON", None)
    env.update(env_extra)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return {"pure": _run({"REPRO_PURE_PYTHON": "1"}), "default": _run({})}


@pytest.mark.parametrize("backend", ["pure", "default"])
@pytest.mark.parametrize("world", sorted(PARENT_DIGESTS))
def test_digests_match_the_parent(runs, backend, world):
    first, second, resumed = runs[backend][world]
    assert (first, second) == PARENT_DIGESTS[world]
    assert resumed == second, "a pickle round trip changed the run"


def test_the_pure_run_is_the_pure_backend(runs):
    assert runs["pure"]["backend"] == "python"
