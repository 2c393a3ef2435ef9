"""Budget: Python calls per ACK on the endpoint path.

Every packet a TCP endpoint sends or takes in runs some Python: the
sender's ACK processing and transmit, the receiver's ACK generation,
the host hand-off, the timer restart.  These budgets sit a little above
the measured calls per ACK (``sys.setprofile`` "call" events across
``sim.run``, divided by the ACKs the receiver sent), on whichever
backend the suite runs under.  A breach means a glue frame — a property
getter, a one-line helper, an ``Agent`` indirection — came back onto
the per-packet path; docs/PERFORMANCE.md "The endpoint path" lists the
frames that are meant to be there.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.loss import UniformLoss
from repro.net.topology import DumbbellParams
from repro.sim.engine import CORE_BACKEND
from repro.sim.rng import RngStream

#: Calls per ACK allowed, by backend (measured: RR 21.2, SACK 28.5 and
#: New-Reno 21.4 compiled, 70.0, 77.3 and 70.2 pure; while each variant
#: wrote out its own recovery skeleton, RR 21.3 and SACK 28.4 compiled,
#: 70.1 and 77.2 pure; while the armed-timer test, the RTO
#: read and the loss coin flip were calls and SACK rebuilt its
#: scoreboard on every ACK, 24.3 / 34.5 and 73.1 / 83.3; while a host
#: send went through ``Node._forward``, 75.2 / 85.3 pure; while every
#: timer restart cancelled and rescheduled, 26.8 / 37.0 and 78.6 / 88.7;
#: before the glue came out, 54.9 / 65.5 and 112.0 / 122.6).
BUDGETS = {
    "compiled": {"rr": 23.0, "sack": 30.0, "newreno": 23.0},
    "python": {"rr": 72.0, "sack": 78.5, "newreno": 72.0},
}


def calls_by_function(variant):
    """Python calls per ACK, by function, on the Figure-7 dumbbell cell
    of tests/net/test_hop_event_budget.py with one finite flow of
    ``variant``: a ``{"file:function": calls per ACK}`` dict."""
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


@pytest.mark.parametrize("variant", ["rr", "sack", "newreno"])
def test_calls_per_ack_on_the_figure7_dumbbell(variant):
    assert sum(calls_by_function(variant).values()) <= BUDGETS[CORE_BACKEND][variant]
