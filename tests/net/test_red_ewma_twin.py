"""RED's EWMA step in C is the Python step, arrival for arrival.

On the compiled backend the link hop runs ``RedQueue._update_average``
in C for an arrival that ends as an accept below ``min_th`` with room in
the buffer, and leaves every other arrival to ``RedQueue.enqueue``.  The
C copy must round exactly like the Python one.  Generated arrival
schedules — bursts into overflow, idle gaps from none to thousands of
packet times, ``weight`` anywhere in (0, 1], rate steps that rescale the
idle clock — go through one RED link with no TCP, in a pure-python worker
process and a default-backend one.  After every arrival ``avg``,
``_idle_since``, ``_count`` and the verdict must be equal.

The compiled worker also proves that the fast path ran: after a first
``state_digest`` a profiler must see no Python ``Link._serve`` or
``RedQueue.dequeue`` frame, and one ``RedQueue.enqueue`` frame per arrival
that is not an accept below ``min_th`` — a silent fallback would pass the
comparison and only show up as a missing speed-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

SRC = str(Path(__file__).resolve().parents[2] / "src")

_WORKER = """\
import json
import sys
import repro.net.node  # installs the compiled hop
from repro.net.link import Link
from repro.net.packet import data_packet
from repro.net.red import RedParams, RedQueue
from repro.sim.engine import CORE_BACKEND, Simulator
from repro.sim.rng import RngStream
from repro.snapshot import state_digest


class Sink:
    def receive(self, packet):
        pass


def run(case):
    sim = Simulator()
    queue = RedQueue(sim, RedParams(**case["red"]), RngStream(case["seed"], "twin"))
    link = Link(sim, "A->B", case["bw"], 0.01, queue)
    link.connect(Sink())
    seen = []

    def apply(seqno, what):
        if isinstance(what, list):
            link.set_bandwidth(what[1])
            return
        accepted = queue.enqueues
        link.send(data_packet(1, "S", "K", seqno, size=what))
        seen.append([
            queue.enqueues > accepted, repr(queue.avg), repr(queue._idle_since), queue._count,
        ])

    for seqno, (time, what) in enumerate(case["ops"]):
        sim.schedule_abs(time, apply, seqno, what)
    state_digest(link)
    watched = {
        code: 0
        for code in (Link._serve.__code__, RedQueue.dequeue.__code__, RedQueue.enqueue.__code__)
    }

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            watched[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    return {"backend": CORE_BACKEND, "seen": seen, "frames": list(watched.values())}


for line in sys.stdin:
    print(json.dumps(run(json.loads(line))), flush=True)
"""


class Worker:
    """One interpreter on one backend, running a case per line."""

    def __init__(self, pure):
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_PURE_PYTHON="1" if pure else "0")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def run(self, case):
        self.proc.stdin.write(json.dumps(case) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        assert line, f"worker exited with {self.proc.wait(timeout=30)}"
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


@pytest.fixture(scope="module")
def workers():
    pure, default = Worker(pure=True), Worker(pure=False)
    try:
        yield pure, default
    finally:
        pure.close()
        default.close()


RATES = [65536.0, 1.0e6, 1.5e6]

#: Seconds since the previous op, in units of a 1 Mb/s packet time
#: (8 ms): back-to-back bursts, less than one packet time, a few, and
#: silences of thousands.
gaps = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=30.0),
    st.floats(min_value=1000.0, max_value=20000.0),
)
packets = st.tuples(gaps, st.sampled_from([40, 500, 1000, 1500]))
rate_steps = st.tuples(gaps, st.tuples(st.just("rate"), st.sampled_from(RATES)))
weights = st.one_of(
    st.just(1.0), st.just(0.002), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
)


@st.composite
def red_params(draw):
    min_th = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0]))
    return {
        "min_th": min_th,
        "max_th": min_th + draw(st.sampled_from([0.5, 1.0, 4.0])),
        "max_p": draw(st.sampled_from([0.1, 0.5, 1.0])),
        "weight": draw(weights),
        "limit": draw(st.integers(min_value=1, max_value=8)),
        "gentle": draw(st.booleans()),
    }


@given(
    red=red_params(),
    ops=st.lists(st.one_of(packets, packets, packets, rate_steps), min_size=1, max_size=60),
    bw=st.sampled_from(RATES),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=200, deadline=None)
def test_c_ewma_is_the_python_ewma_per_arrival(workers, red, ops, bw, seed):
    t, timed = 0.0, []
    for gap, what in ops:
        t += gap * 0.008
        timed.append([t, what])
    case = {"red": red, "ops": timed, "bw": bw, "seed": seed}
    pure, default = (worker.run(case) for worker in workers)
    assert pure["backend"] == "python"
    assert default["seen"] == pure["seen"]
    if default["backend"] != "compiled":
        return
    serve, dequeue, enqueue = default["frames"]
    below_min_th = sum(
        1 for accepted, avg, _, _ in pure["seen"] if accepted and float(avg) < red["min_th"]
    )
    assert (serve, dequeue) == (0, 0)
    assert enqueue == len(pure["seen"]) - below_min_th
