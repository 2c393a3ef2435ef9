"""Property: the ``p_b`` a :class:`RedQueue` realises is ``red_drop_curve``.

``red_drop_curve`` is the one definition of RED's marking probability —
the queue evaluates it per early-region arrival and the mean-field
oracle (:mod:`repro.models.meanfield`) solves its fixed point on it.
The queue still owns the *region* decisions (accept below ``min_th``,
forced drop past the cliff), so a queue whose thresholds drift from the
curve's would drop where the oracle predicts a coin flip.  These tests
drive a real queue to arbitrary averages in all four regions, gentle on
and off, and compare what it does with what the curve says.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.models import red_drop_curve as exported_curve
from repro.net.packet import data_packet
from repro.net.red import RedParams, RedQueue, red_drop_curve
from repro.sim.engine import Simulator

MIN_TH, MAX_TH, MAX_P, LIMIT = 4.0, 12.0, 0.1, 40


class RecordingCoin:
    """Stands in for the queue's RngStream: records each ``p_a`` asked
    for and answers with a fixed outcome."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.asked = []

    def bernoulli(self, p):
        self.asked.append(p)
        return self.outcome


def offer(gentle, prior_avg, backlog, outcome):
    """One arrival at a queue holding ``backlog`` packets whose average
    was ``prior_avg``; returns ``(queue, coin, accepted)``.  The EWMA
    step runs for real — ``queue.avg`` afterwards is the average the
    drop decision saw."""
    params = RedParams(
        min_th=MIN_TH, max_th=MAX_TH, max_p=MAX_P, weight=0.25, limit=LIMIT,
        gentle=gentle,
    )
    coin = RecordingCoin(outcome)
    queue = RedQueue(Simulator(), params, coin)
    queue._items.extend(data_packet(1, "S1", "K1", i) for i in range(backlog))
    queue.avg = prior_avg
    accepted = queue.enqueue(data_packet(1, "S1", "K1", backlog))
    return queue, coin, accepted


@given(
    gentle=st.booleans(),
    prior_avg=st.floats(min_value=0.0, max_value=3 * MAX_TH),
    backlog=st.integers(min_value=0, max_value=LIMIT - 1),
    outcome=st.booleans(),
)
# Region boundaries (weight 0.25, backlog b: avg = 0.75 * prior + 0.25 * b).
@example(gentle=False, prior_avg=MIN_TH, backlog=4, outcome=True)
@example(gentle=False, prior_avg=MAX_TH, backlog=12, outcome=False)
@example(gentle=True, prior_avg=MAX_TH, backlog=12, outcome=True)
@example(gentle=True, prior_avg=2 * MAX_TH, backlog=24, outcome=False)
def test_realised_pb_equals_the_drop_curve(gentle, prior_avg, backlog, outcome):
    queue, coin, accepted = offer(gentle, prior_avg, backlog, outcome)
    avg = queue.avg
    pb = red_drop_curve(avg, queue.params)
    forced_th = 2 * MAX_TH if gentle else MAX_TH
    if avg < MIN_TH:
        assert pb == 0.0
        assert accepted and coin.asked == [] and queue._count == -1
    elif avg >= forced_th:
        assert pb == 1.0
        assert not accepted and coin.asked == [] and queue.forced_drops == 1
    else:
        # First early-region arrival since the queue was below min_th:
        # count is 0, so p_a = p_b / (1 - 0 * p_b) is p_b itself.
        assert 0.0 <= pb < 1.0
        assert coin.asked == [pb]
        assert accepted == (not outcome)
        assert queue.early_drops == (1 if outcome else 0)


def test_models_reexports_the_queues_curve():
    assert exported_curve is red_drop_curve
