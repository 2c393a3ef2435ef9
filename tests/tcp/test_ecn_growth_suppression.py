"""RFC 3168: no sender grows cwnd on an ACK that carries an ECN echo.

The echo either triggers the once-per-window reaction or, when one was
already taken this window, only holds the window where it is.  The base
sender skips the variant's increase law on such an ACK, so the rule
holds for every growth law: slow start, AIMD, CUBIC, Vegas and
smooth-start alike.
"""

import pytest

from repro.config import TcpConfig
from repro.experiments.ablation import ABLATIONS
from repro.tcp.factory import VARIANTS
from tests.conftest import SenderHarness

SENDERS = {**{name: cls for name, (cls, _) in VARIANTS.items()}, **ABLATIONS}


@pytest.mark.parametrize("name", sorted(SENDERS))
def test_an_ece_ack_after_the_reaction_does_not_grow_cwnd(name):
    harness = SenderHarness(
        SENDERS[name], TcpConfig(initial_cwnd=4.0, initial_ssthresh=64, ecn_enabled=True)
    )
    harness.start()
    sender = harness.sender
    # The reaction for this window was already taken.
    sender._ecn_react_marker = sender.snd_nxt
    harness.ack(1, ecn_echo=True)
    assert sender.ecn_reactions == 0
    assert sender.cwnd == 4.0
    harness.ack(2)  # the next clean ACK grows again
    assert sender.cwnd > 4.0
