"""Budget: Python calls per trace record under the observation stack.

A watched run (``chaos``, ``identify``, the ``observed_recovery``
benchmark) puts every record through the same stack: the invariant
suite, the flow-trace collector, the watchdog on the suite's tail and
``FlowStats.watch_drops``.  What a record costs in Python is its
subscribers' frames; on the compiled backend ``TraceChannel.emit``
builds the record and calls them from C, so there is no emit frame and
no ``TraceRecord.__new__`` frame.  These budgets sit a little above the
measured calls per record (``sys.setprofile`` "call" events across
``sim.run``, over everything the run does, divided by the records the
suite saw) on whichever backend the suite runs under.  A breach means a
frame came back between the emit site and the subscribers;
docs/PERFORMANCE.md "Records without frames" lists the frames that are
meant to be there.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.ident.features import FlowTraceCollector
from repro.net.loss import UniformLoss
from repro.net.topology import DumbbellParams
from repro.sim.engine import CORE_BACKEND
from repro.sim.invariants import InvariantSuite
from repro.sim.rng import RngStream
from repro.sim.watchdog import Watchdog

#: Calls per record allowed, by backend (measured: RR 7.26 and SACK 8.42
#: compiled, 15.03 and 16.24 pure; with the emit and TraceRecord.__new__
#: frames the compiled backend read 9.24 and 10.41).
BUDGETS = {
    "compiled": {"rr": 7.6, "sack": 8.8},
    "python": {"rr": 15.5, "sack": 16.7},
}


def calls_by_function(variant):
    """Python calls per trace record, by function, on the Figure-7
    dumbbell cell of tests/tcp/test_endpoint_call_budget.py with the
    full observation stack attached: a ``{"file:function": calls per
    record}`` dict."""
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=1500)],
        params=DumbbellParams(
            n_pairs=1,
            bottleneck_bandwidth_bps=10e6,
            bottleneck_delay=0.097,
            side_bandwidth_bps=100e6,
            buffer_packets=200,
        ),
        default_config=TcpConfig(receiver_window=200, initial_ssthresh=100.0),
        forward_loss=UniformLoss(0.01, RngStream(41, "hop-budget")),
    )
    bell, trace = scenario.dumbbell, scenario.dumbbell.net.trace
    scenario.stats[1].watch_drops(trace)
    suite = InvariantSuite.standard().watch_queue(bell.bottleneck_queue)
    suite.install(trace)
    FlowTraceCollector().install(trace)
    Watchdog(scenario.sim, scenario.senders, tail=suite.tail).arm()
    calls = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(count)
    try:
        scenario.sim.run(until=600.0)
    finally:
        sys.setprofile(None)
    assert scenario.senders[1].completed
    records = suite.records_seen
    by_function = Counter()
    for code, n in calls.items():
        by_function[f"{Path(code.co_filename).name}:{code.co_qualname}"] += n / records
    return dict(by_function)


@pytest.mark.parametrize("variant", ["rr", "sack"])
def test_calls_per_record_on_the_figure7_dumbbell(variant):
    assert sum(calls_by_function(variant).values()) <= BUDGETS[CORE_BACKEND][variant]
