"""Differential test of the link's event economy.

The link serves an idle egress inside ``send`` and books a ``_serve``
event only for packets that find the transmitter occupied.  Whatever
the mechanism, the observable schedule must be plain store-and-forward
FIFO: ``start_i = max(arrival_i, done_{i-1})``, ``done_i = start_i +
size_i * 8 / bw``, far-end arrival ``done_i + delay``.  The reference
below computes that by recurrence — no engine, no events — driving a
twin queue object at the same instants, and every float the link
produces must equal the reference's exactly.
"""

from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.packet import data_packet
from repro.net.queues import DropTailQueue
from repro.net.red import RedParams, RedQueue
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.sim.tracing import TraceBus
from repro.snapshot import Snapshot, state_digest
from repro.snapshot.golden import build_golden_scenario

RED = RedParams(min_th=1.0, max_th=4.0, max_p=0.5, weight=0.5, limit=6)


def make_queue(kind, clock):
    if kind == "red":
        return RedQueue(clock, RED, RngStream(2024, "hop-timing-red"))
    return DropTailQueue(limit=kind)


def tell_rate(queue, bw):
    """What a link tells its queue about its rate (RED ages its average
    over idle spans in units of a typical packet time)."""
    setter = getattr(queue, "set_mean_packet_time", None)
    if setter is not None:
        setter(8.0 * 1000 / bw)


def reference(specs, queue, clock, bw, delay, ops_win_ties):
    """Store-and-forward FIFO by recurrence.  ``specs`` is a list of
    ``(gap, size)`` packets and ``(gap, ("rate", bps))`` rate steps;
    a gap is seconds since the previous op, or ``"at_free"`` for "the
    instant the transmitter frees up".  Returns the absolute-time op
    list and, per packet seqno, ``(arrival, start, done, far_end)`` or
    ``(arrival, None)`` for a queue drop.  ``ops_win_ties`` says whether
    an op at the very instant a waiting packet enters service is
    ordered before it."""
    ops, expect, waiting = [], {}, deque()
    t = done_prev = 0.0
    tell_rate(queue, bw)

    def serve():
        nonlocal done_prev
        packet, arrived = waiting.popleft()
        start = clock.now = max(arrived, done_prev)
        assert queue.dequeue() is packet
        done_prev = start + packet.size * 8.0 / bw
        expect[packet.seqno] = (arrived, start, done_prev, done_prev + delay)

    for seqno, (gap, what) in enumerate(specs):
        t = max(t, done_prev) if gap == "at_free" else t + gap
        while waiting and (done_prev < t or (done_prev == t and not ops_win_ties)):
            serve()
        ops.append((t, seqno, what))
        if isinstance(what, tuple):
            bw = what[1]
            tell_rate(queue, bw)
            continue
        clock.now = t
        packet = data_packet(1, "S", "K", seqno, size=what)
        if not queue.enqueue(packet):
            expect[seqno] = (t, None)
            continue
        waiting.append((packet, t))
        if len(waiting) == 1 and done_prev <= t:
            serve()
    while waiting:
        serve()
    return ops, expect


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = {}

    def receive(self, packet):
        self.arrivals[packet.seqno] = self.sim.now


gaps = st.one_of(
    st.just(0.0),  # exact back-to-back
    st.just("at_free"),  # lands on the instant the transmitter frees up
    st.sampled_from([0.0078125, 0.015625, 0.125]),  # dyadic: ties recur
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
)
rates = st.sampled_from([8192.0, 65536.0, 1.0e6, 1.5e6])
packets = st.tuples(gaps, st.sampled_from([40, 128, 512, 1000, 1500]))
rate_steps = st.tuples(gaps, st.tuples(st.just("rate"), rates))


@given(
    before=st.lists(packets, min_size=1, max_size=25),
    step=rate_steps,
    after=st.lists(packets, max_size=25),
    bw=rates,
    delay=st.sampled_from([0.0, 0.125, 0.0137]),
    kind=st.sampled_from([1, 3, "red"]),
    ops_win_ties=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_link_matches_store_and_forward_reference(
    before, step, after, bw, delay, kind, ops_win_ties
):
    specs = before + [step] + after
    clock = SimpleNamespace(now=0.0)
    ops, expect = reference(specs, make_queue(kind, clock), clock, bw, delay, ops_win_ties)

    sim = Simulator()
    trace = TraceBus()
    tx, drops = [], []
    trace.subscribe("link.tx", tx.append)
    trace.subscribe("link.drop", drops.append)
    link = Link(sim, "A->B", bw, delay, make_queue(kind, sim), trace=trace)
    sink = Sink(sim)
    link.connect(sink)

    def apply(seqno, what):
        if isinstance(what, tuple):
            link.set_bandwidth(what[1])
        else:
            link.send(data_packet(1, "S", "K", seqno, size=what))

    if ops_win_ties:
        # Every op is on the heap before the link books anything, so at
        # a shared instant the op's serial is the smaller one.
        for t, seqno, what in ops:
            sim.schedule_abs(t, apply, seqno, what)
        own_events = len(ops)
    else:
        # run(until=t) fires the link's events at t before the op.
        for t, seqno, what in ops:
            sim.run(until=t)
            apply(seqno, what)
        own_events = 0
    sim.run()

    served = {s: e for s, e in expect.items() if e[1] is not None}
    assert {r.fields["packet"].seqno for r in drops} == set(expect) - set(served)
    # One link.tx per served packet, emitted at service start, in FIFO
    # order, carrying the instant the transmitter frees up.
    assert [r.fields["packet"].seqno for r in tx] == sorted(served)
    for record in tx:
        seqno = record.fields["packet"].seqno
        arrived, start, done, far_end = served[seqno]
        assert (record.time, record.fields["done"], sink.arrivals[seqno]) == (
            start,
            done,
            far_end,
        )
    assert link.packets_delivered == len(served)
    # The event budget: one arrival per served packet, plus one service
    # event per packet that found the transmitter occupied.
    waited = sum(1 for arrived, start, _, _ in served.values() if start > arrived)
    assert sim.events_processed - own_events == len(served) + waited
    assert not link.busy and len(link.queue) == 0


def test_tx_record_done_is_start_plus_service_time():
    sim = Simulator()
    trace = TraceBus()
    tx = []
    trace.subscribe("link.tx", tx.append)
    link = Link(sim, "A->B", 1.5e6, 0.01, DropTailQueue(limit=10), trace=trace)
    link.connect(Sink(sim))
    for seqno, size in enumerate([1000, 40, 1500]):
        link.send(data_packet(1, "S", "K", seqno, size=size))
    assert len(tx) == 1  # only the head has entered the transmitter
    sim.run()
    assert [r.fields["packet"].seqno for r in tx] == [0, 1, 2]
    for previous, record in zip([None] + tx, tx):
        assert record.fields["done"] == record.time + record.fields["packet"].size * 8 / 1.5e6
        if previous is not None:
            assert record.time == previous.fields["done"]


def test_capture_with_service_event_pending_continues_identically():
    """Freeze the golden world at an instant where the bottleneck has a
    packet in the transmitter, packets waiting behind it (so a
    ``_serve`` is on the heap) and arrivals in flight; the restored
    copy must finish in the same state as an uninterrupted run."""
    reference_world = build_golden_scenario("rr")
    reference_world.sim.run(until=12.0)

    world = build_golden_scenario("rr")
    link = world.dumbbell.forward_link
    while not (link.busy and len(link.queue) >= 2):
        assert world.sim.now < 5.0, "bottleneck never backlogged"
        world.sim.run(max_events=1)
    assert world.sim.pending_events > 2
    snapshot = Snapshot.capture(world)

    restored = snapshot.restore()
    restored_link = restored.dumbbell.forward_link
    assert restored_link.busy and len(restored_link.queue) == len(link.queue)
    restored.sim.run(until=12.0)
    assert state_digest(restored) == state_digest(reference_world)
