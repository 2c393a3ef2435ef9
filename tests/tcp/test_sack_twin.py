"""SACK's per-ACK bookkeeping equals the plain definitions it replaced.

``Scoreboard.update`` leaves a set alone when nothing in it falls below
the cumulative ACK, and ``SackReceiver._sack_blocks`` builds only the
blocks it returns from one walk down the held runs.  The plain
definitions stay here as references: ``update`` rebuilt both sets on
every ACK, ``_sack_blocks`` built one ``SackBlock`` per held run and
sorted them all with a key function.  Hypothesis drives both sides with
generated ACK sequences and receive buffers; after every step the state
and the blocks must be equal.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TcpConfig
from repro.net.packet import SackBlock, merge_ranges
from repro.sim.engine import Simulator
from repro.tcp.receiver import SackReceiver
from repro.tcp.scoreboard import Scoreboard


def reference_update(board, ackno, blocks):
    for block in blocks:
        board._sacked.update(range(block.start, block.end))
    board._sacked = {s for s in board._sacked if s >= ackno}
    board._retransmitted = {s for s in board._retransmitted if s >= ackno}


def reference_sack_blocks(held, last_seqno, limit):
    if not held:
        return []
    ranges = merge_ranges([(s, s + 1) for s in held])
    blocks = [SackBlock(start, end) for start, end in ranges]
    if last_seqno is not None:
        blocks.sort(key=lambda b: (0 if last_seqno in b else 1, -b.start))
    return blocks[:limit]


def _blocks(ranges):
    return [SackBlock(start, start + length) for start, length in ranges]


_step = st.one_of(
    st.tuples(
        st.just("ack"),
        st.integers(0, 6),  # cumulative advance
        st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)), max_size=4),
    ),
    st.tuples(st.just("retransmit"), st.integers(0, 40)),
    st.tuples(st.just("clear")),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_step, max_size=40))
def test_scoreboard_update_matches_the_rebuilding_definition(steps):
    board, twin = Scoreboard(), Scoreboard()
    ackno = 0
    for step in steps:
        if step[0] == "ack":
            ackno += step[1]
            blocks = _blocks((ackno + start, length) for start, length in step[2])
            board.update(ackno, blocks)
            reference_update(twin, ackno, blocks)
        elif step[0] == "retransmit":
            board.mark_retransmitted(ackno + step[1])
            twin.mark_retransmitted(ackno + step[1])
        else:
            board.clear()
            twin.clear()
        assert board._sacked == twin._sacked
        assert board._retransmitted == twin._retransmitted
        for seqno in range(ackno, ackno + 50):
            assert (board.highest_sacked() > seqno) == (twin.sacked_above(seqno) > 0)


@settings(max_examples=600, deadline=None)
@given(
    held=st.sets(st.integers(1, 60), max_size=40),
    last=st.one_of(st.none(), st.integers(0, 62)),
    limit=st.integers(1, 5),
    pick_held=st.booleans(),
)
def test_sack_blocks_match_the_sorting_definition(held, last, limit, pick_held):
    if pick_held and held and last is not None:
        last = sorted(held)[last % len(held)]  # a block contains it
    receiver = SackReceiver(Simulator(), 1, TcpConfig(sack_block_limit=limit))
    receiver._out_of_order = set(held)
    receiver._last_seqno = last
    assert receiver._sack_blocks() == reference_sack_blocks(held, last, limit)
