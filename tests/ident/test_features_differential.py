"""``extract_features`` against its scanning definition.

``repro.ident.features.extract_features`` answers every "cwnd around
time t" and "events between two arrival orders" question by binary
search; ``tests/ident/reference_features.py`` is the version it
replaced, which rescans the series each time and so *defines* the
features.  The two must return exactly equal tuples — no tolerance: the
committed classifier, the behaviour-class goldens and every cached
sweep cell hold vectors the scanning version produced.

Three angles: hypothesis-generated traces (the corner cases a live run
rarely produces), live traces of every registered sender, and a
clock-free complexity witness that counts element visits.
"""

from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.ident.features import FlowTrace, FlowTraceCollector, extract_features
from repro.net.loss import UniformLoss
from repro.net.packet import set_uid_state
from repro.net.topology import DumbbellParams
from repro.sim.rng import RngStream
from repro.tcp.factory import VARIANTS
from tests.ident.reference_features import extract_features as reference_features


def assert_same_vector(trace):
    new, old = extract_features(trace), reference_features(trace)
    assert new.names == old.names
    # repr, not ==: -0.0 vs 0.0 and the last bit both count.
    assert repr(new.values) == repr(old.values)


# ----------------------------------------------------------------------
# (a) generated traces
# ----------------------------------------------------------------------
def build_trace(events):
    """A FlowTrace from ``(kind, dt, a, b)`` steps, the way the
    collector would have recorded it: one global arrival index, a clock
    that only moves forward (``dt == 0`` gives same-timestamp ties)."""
    trace = FlowTrace(flow_id=1)
    t = 0.0
    for order, (kind, dt, number, flag, cwnd) in enumerate(events):
        t += dt
        if kind == "send":
            trace.sends.append((order, t, number, flag))
        elif kind == "ack":
            trace.acks.append((order, t, number, flag))
        elif kind == "cwnd":
            trace.cwnd.append((order, t, cwnd))
        elif kind == "enter":
            trace.enters.append((order, t, number))
        elif kind == "exit":
            trace.exits.append((order, t))
        else:
            trace.timeouts.append((order, t))
    return trace


# Steps of 0 (ties), a fraction of an RTT, about an RTT, several RTTs:
# responses land both closer and further apart than the 3-RTT windows.
steps = st.sampled_from([0.0, 0.0, 0.001, 0.01, 0.04, 0.1, 0.35, 1.0])
# Sub-packet, one-packet (collapse), halvings, growth of +1 and +1/cwnd.
windows = st.sampled_from([0.5, 1.0, 1.0, 2.0, 2.5, 3.0, 4.0, 4.25, 8.0, 9.0, 16.0])
events = st.tuples(
    st.sampled_from(
        ["send", "send", "ack", "ack", "cwnd", "cwnd", "cwnd", "enter", "exit", "timeout"]
    ),
    steps,
    st.integers(min_value=0, max_value=12),  # seqno / ackno / recover
    st.booleans(),                           # retransmit / duplicate
    windows,
)


class TestGeneratedTraces:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(events, max_size=120))
    def test_any_event_sequence(self, steps_):
        # Unconstrained interleavings: empty series, nested and
        # unterminated entries, exits with no entry, ends by timeout.
        assert_same_vector(build_trace(steps_))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(events.filter(lambda e: e[0] in ("send", "ack", "cwnd")), max_size=8),
                st.lists(events.filter(lambda e: e[0] in ("send", "ack", "cwnd")), max_size=12),
                st.sampled_from(["exit", "timeout", "open"]),
                steps,
            ),
            max_size=8,
        )
    )
    def test_well_formed_episodes(self, cycles):
        # Sender-shaped traces: [traffic, enter, traffic, exit|timeout]*
        # — many complete episodes, back to back when the in-between
        # traffic is empty, the last one possibly left open.
        steps_ = []
        for before, inside, end, dt in cycles:
            steps_.extend(before)
            steps_.append(("enter", dt, 7, False, 0.0))
            steps_.extend(inside)
            if end != "open":
                steps_.append((end, dt, 0, False, 0.0))
        assert_same_vector(build_trace(steps_))


class TestNamedCorners:
    """The cases ISSUE 18 lists, pinned as plain examples as well."""

    def test_empty_series(self):
        assert_same_vector(FlowTrace(flow_id=1))
        only_cwnd = FlowTrace(flow_id=1, cwnd=[(0, 0.0, 1.0), (1, 0.1, 2.0)])
        assert_same_vector(only_cwnd)

    def test_same_timestamp_ties(self):
        # Halving, entry marker, retransmit and a dup ACK all at t=2.0.
        trace = FlowTrace(flow_id=1)
        trace.sends = [(0, 0.0, 0, False), (5, 2.0, 0, True), (9, 3.0, 1, False)]
        trace.acks = [(1, 1.0, 1, False), (6, 2.0, 1, True), (7, 3.0, 2, False)]
        trace.cwnd = [(2, 1.0, 8.0), (3, 2.0, 4.0), (10, 3.0, 4.0), (11, 3.0, 5.0)]
        trace.enters = [(4, 2.0, 10)]
        trace.exits = [(8, 3.0)]
        assert_same_vector(trace)

    def test_episode_ended_by_timeout_then_one_left_open(self):
        trace = FlowTrace(flow_id=1)
        trace.cwnd = [(0, 0.0, 8.0), (2, 1.0, 4.0), (4, 2.0, 1.0), (5, 2.5, 2.0), (7, 3.0, 1.0)]
        trace.enters = [(1, 1.0, 10), (6, 3.0, 20)]
        trace.timeouts = [(3, 2.0)]
        assert_same_vector(trace)

    def test_back_to_back_episodes_closer_than_three_rtts(self):
        trace = FlowTrace(flow_id=1)
        trace.sends = [(0, 0.0, 0, False)]
        trace.acks = [(1, 0.1, 1, False)]
        trace.cwnd = [(2, 0.1, 8.0), (4, 0.2, 4.0), (7, 0.3, 2.0), (9, 0.35, 3.0)]
        trace.enters = [(3, 0.2, 10), (6, 0.25, 12)]
        trace.exits = [(5, 0.25), (8, 0.3)]
        assert_same_vector(trace)

    def test_nested_entries_overlap(self):
        # Two entries before the first end: the episodes overlap, and
        # membership must still read "inside any of them".
        trace = FlowTrace(flow_id=1)
        trace.cwnd = [(0, 0.0, 8.0), (3, 0.2, 1.0), (5, 0.4, 1.0), (7, 0.6, 0.5)]
        trace.enters = [(1, 0.1, 10), (2, 0.15, 12)]
        trace.exits = [(4, 0.3), (6, 0.5)]
        assert_same_vector(trace)


# ----------------------------------------------------------------------
# (b) live traces
# ----------------------------------------------------------------------
def live_trace(variant, loss_rate, packets=500):
    set_uid_state(1)
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=packets)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
        forward_loss=UniformLoss(loss_rate, RngStream(18, f"diff/{loss_rate}")),
    )
    collector = FlowTraceCollector().install(scenario.dumbbell.net.trace)
    scenario.sim.run(until=120.0)
    collector.uninstall()
    return collector.flows[1]


class TestLiveTraces:
    @pytest.mark.parametrize("loss_rate", [0.01, 0.03, 0.06])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_sender(self, variant, loss_rate):
        trace = live_trace(variant, loss_rate)
        assert any(retransmit for *_, retransmit in trace.sends)  # loss was felt
        assert_same_vector(trace)

    def test_live_traces_meet_the_ordering_precondition(self):
        trace = live_trace("newreno", 0.03)
        for series in (trace.cwnd, trace.acks, trace.sends,
                       trace.enters, trace.exits, trace.timeouts):
            orders = [row[0] for row in series]
            times = [row[1] for row in series]
            assert all(a < b for a, b in zip(orders, orders[1:]))
            assert all(a <= b for a, b in zip(times, times[1:]))


# ----------------------------------------------------------------------
# (c) complexity witness
# ----------------------------------------------------------------------
class CountingSeries(Sequence):
    """A series that counts every element handed out, by iteration,
    index or slice."""

    def __init__(self, rows, tally):
        self._rows = rows
        self._tally = tally

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, index):
        got = self._rows[index]
        self._tally[0] += len(got) if isinstance(index, slice) else 1
        return got

    def __iter__(self):
        for row in self._rows:
            self._tally[0] += 1
            yield row


def sawtooth_trace(cycles):
    """``cycles`` identical loss cycles of a halving sender: grow by one
    per ACK, three dup ACKs, enter + halve + retransmit, a partial and a
    full ACK, exit.  Every fifth cycle ends in a timeout instead."""
    steps_ = []
    seq = 0
    for cycle in range(cycles):
        for i in range(8):
            steps_.append(("send", 0.01, seq, False, 0.0))
            steps_.append(("ack", 0.09, seq + 1, False, 0.0))
            steps_.append(("cwnd", 0.0, 0, False, 8.0 + i))
            seq += 1
        for _ in range(3):
            steps_.append(("ack", 0.01, seq, True, 0.0))
        steps_.append(("cwnd", 0.0, 0, False, 8.0))
        steps_.append(("enter", 0.0, seq + 4, False, 0.0))
        steps_.append(("send", 0.0, seq, True, 0.0))
        steps_.append(("ack", 0.1, seq + 2, False, 0.0))
        steps_.append(("send", 0.0, seq + 2, True, 0.0))
        if cycle % 5 == 4:
            steps_.append(("timeout", 1.0, 0, False, 0.0))
            steps_.append(("cwnd", 0.0, 0, False, 1.0))
        else:
            steps_.append(("ack", 0.1, seq + 4, False, 0.0))
            steps_.append(("exit", 0.0, 0, False, 0.0))
            steps_.append(("cwnd", 0.0, 0, False, 8.0))
        seq += 4
    return build_trace(steps_)


def counted(trace):
    """Wrap every series of ``trace`` in place; returns the shared tally."""
    tally = [0]
    for name in ("cwnd", "acks", "sends", "enters", "exits", "timeouts"):
        setattr(trace, name, CountingSeries(getattr(trace, name), tally))
    return tally


def visits(extract, cycles):
    trace = sawtooth_trace(cycles)
    tally = counted(trace)
    extract(trace)
    return tally[0]


class TestComplexityWitness:
    def test_visits_grow_linearly_with_trace_length(self):
        small, large = visits(extract_features, 50), visits(extract_features, 200)
        assert small > 0
        assert large <= 5 * small

    def test_the_witness_can_tell(self):
        # The same count convicts the scanning version (~16x for 4x the
        # length), so a pass above is not an artefact of the counter.
        small, large = visits(reference_features, 50), visits(reference_features, 200)
        assert large >= 10 * small

    def test_counted_series_change_no_answer(self):
        trace = sawtooth_trace(30)
        plain = repr(extract_features(trace).values)
        counted(trace)
        assert repr(extract_features(trace).values) == plain
        assert repr(reference_features(trace).values) == plain
