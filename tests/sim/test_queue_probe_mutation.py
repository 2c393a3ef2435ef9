"""The queue probes still catch a corrupted queue mid-run.

``link.tx`` is by-name only, so the invariant suite's wildcard no longer
receives a record per hop service start, and the probes
(``queue-occupancy``, ``red-average``) sample the queue at the records
it does receive: ``tcp.*``, drops and link-state changes.  Each case
below corrupts the bottleneck of the golden dumbbell mid-run, under the
full observation stack, and requires the suite to stop the run with the
matching invariant before it ends, the offending record last in the
tail.  Each runs on the pure backend in one process and on the default
backend (compiled when built) in another, and both must stop at the
same record.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

CORRUPT_AT = 1.1  # slow start has a standing queue of 10 at the bottleneck
UNTIL = 30.0  # both uncorrupted transfers complete by t=4

_SCRIPT = """\
import json, sys
from repro.config import TcpConfig
from repro.errors import InvariantViolation
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.ident.features import FlowTraceCollector
from repro.net.red import RedParams, RedQueue
from repro.net.topology import DumbbellParams
from repro.sim.engine import CORE_BACKEND, Simulator
from repro.sim.invariants import InvariantSuite
from repro.sim.rng import RngStream
from repro.sim.watchdog import Watchdog
from repro.snapshot.golden import TRANSFER_PACKETS, build_golden_scenario

case, corrupt_at, until = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
if case == "queue-occupancy":
    scenario = build_golden_scenario("rr")
else:
    # The golden dumbbell with a RED bottleneck and no injected drops.
    sim = Simulator()
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant="rr", amount_packets=TRANSFER_PACKETS)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
        bottleneck_queue_factory=lambda name: RedQueue(
            sim, RedParams(limit=25), RngStream(7, name), name=name
        ),
        sim=sim,
    )
bus, queue = scenario.dumbbell.net.trace, scenario.dumbbell.bottleneck_queue
scenario.stats[1].watch_drops(bus)
suite = InvariantSuite.standard().watch_queue(queue)
suite.install(bus)
FlowTraceCollector().install(bus)
Watchdog(scenario.sim, scenario.senders, tail=suite.tail).arm()
standing = []

def corrupt():
    standing.append(len(queue))
    if case == "queue-occupancy":
        queue.limit = len(queue) // 2
    else:
        queue.avg = queue.limit + 5.0

scenario.sim.schedule_at(corrupt_at, corrupt)
out = {"backend": CORE_BACKEND, "standing": standing, "invariant": None}
try:
    scenario.sim.run(until=until)
except InvariantViolation as violation:
    record = violation.record
    out.update(
        invariant=violation.invariant,
        record=[record.time, record.category, record.source],
        last_in_tail=violation.tail[-1] is record,
        suite_tail_last=suite.tail.records()[-1] is record,
        stopped_at=scenario.sim.now,
    )
print(json.dumps(out))
"""


def _run(case, env_extra):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("REPRO_PURE_PYTHON", None)
    env.update(env_extra)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, case, str(CORRUPT_AT), str(UNTIL)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", ["queue-occupancy", "red-average"])
def test_corrupted_bottleneck_stops_the_run_on_both_backends(case):
    pure = _run(case, {"REPRO_PURE_PYTHON": "1"})
    default = _run(case, {})
    assert pure.pop("backend") == "python"
    default.pop("backend")
    assert pure == default
    assert pure["standing"][0] >= 2, "no standing queue to corrupt"
    assert pure["invariant"] == case
    # The first record after the corruption is flow 1's next ACK: the
    # probes must catch that one, not wait for a drop or a later record.
    time, category, source = pure["record"]
    assert CORRUPT_AT <= time == pure["stopped_at"] < CORRUPT_AT + 0.001
    assert (category, source) == ("tcp.ack", "rr/f1")
    assert pure["last_in_tail"] and pure["suite_tail_last"]
