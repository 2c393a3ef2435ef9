"""Budget: Python calls per ACK under the observation stack.

A watched run (``chaos``, ``identify``, the ``observed_recovery``
benchmark) puts every record through the same stack: the invariant
suite, the flow-trace collector, the watchdog on the suite's tail and
``FlowStats.watch_drops``.  What a record costs in Python is its
subscribers' frames; on the compiled backend ``TraceChannel.emit``
builds the record and calls them from C, so there is no emit frame and
no ``TraceRecord.__new__`` frame.  ``link.tx`` is by-name only, so the
stack's wildcard listeners make no hop build a record.  These budgets
sit a little above the measured calls per ACK (``sys.setprofile``
"call" events across ``sim.run``, over everything the run does,
divided by the ACKs the receiver sent, which do not change when a
category leaves the stack) on whichever backend the suite runs under.  A breach means a frame came back
between the emit site and the subscribers, or a category came back
onto the stack; docs/PERFORMANCE.md "Cost of an ACK" lists
the frames that are meant to be there.
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

#: Calls per ACK allowed, by backend (measured: RR 35.18 and SACK 42.13
#: compiled, 89.68 and 96.56 pure; while packets and events were pooled,
#: 37.21 / 44.16 compiled; before that, 37.33 / 44.07 and 91.85 / 98.53;
#: while the armed-timer test, the RTO
#: read and the loss coin flip were calls and SACK rebuilt its
#: scoreboard on every ACK, 40.36 / 50.23 and 94.88 / 104.68; while a
#: host send went through ``Node._forward``, 96.90 / 106.70 pure; while
#: every timer restart cancelled and rescheduled, 42.85 / 52.67 and
#: 100.29 / 110.01; while the suite's wildcard still received link.tx,
#: 64.90 / 74.71 and 134.36 / 144.08).
BUDGETS = {
    "compiled": {"rr": 36.5, "sack": 43.5},
    "python": {"rr": 91.0, "sack": 98.0},
}


def watched_cell(variant):
    """The Figure-7 dumbbell cell of tests/tcp/test_endpoint_call_budget.py
    with the full observation stack attached, not yet run."""
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
    return scenario


def calls_by_function(variant):
    """Python calls per ACK, by function, on :func:`watched_cell`: a
    ``{"file:function": calls per ACK}`` dict."""
    scenario = watched_cell(variant)
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
    acks = scenario.receivers[1].acks_sent
    by_function = Counter()
    for code, n in calls.items():
        by_function[f"{Path(code.co_filename).name}:{code.co_qualname}"] += n / acks
    return dict(by_function)


def test_no_hop_builds_a_record_under_the_watched_stack():
    trace = watched_cell("rr").dumbbell.net.trace
    assert trace.channel("link.tx").subs == []
    assert trace.channel("tcp.ack").subs


@pytest.mark.parametrize("variant", ["rr", "sack"])
def test_calls_per_ack_on_the_figure7_dumbbell(variant):
    assert sum(calls_by_function(variant).values()) <= BUDGETS[CORE_BACKEND][variant]
