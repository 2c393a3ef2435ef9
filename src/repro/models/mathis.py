"""The Mathis square-root model (Mathis, Semke, Mahdavi & Ott, CCR'97).

The macroscopic behaviour of the congestion-avoidance algorithm:

    BW = (MSS / RTT) * C / sqrt(p)

where ``p`` is the random packet-loss rate and ``C`` lumps the ACK
strategy and the loss-arrival assumptions into one constant.  With one
ACK per packet and periodic losses the standard derivation gives
``C = sqrt(3/2) ≈ 1.22``.  The paper states "Since the receiver sends
an ACK for every data packet received, C is set to 4" — that constant
is preserved here as :data:`PAPER_C` so Figure 7 can be regenerated
both ways (see DESIGN.md §4).

Section 4 plots the *window* rather than bandwidth:

    W = BW * RTT / MSS = C / sqrt(p)

which is what :func:`mathis_window` returns.  The model assumes no
timeouts; both the paper and our reproduction observe the measured
points falling below the bound at high ``p`` precisely because that
assumption breaks.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

#: C for the ACK-every-packet strategy under the standard derivation.
MATHIS_C_ACK_EVERY_PACKET = math.sqrt(3.0 / 2.0)

#: The constant the paper says it used for Figure 7.
PAPER_C = 4.0


def _check_loss_rate(loss_rate: float) -> None:
    if not 0.0 < loss_rate <= 1.0:
        raise ConfigurationError(f"loss rate must be in (0, 1], got {loss_rate}")


def mathis_window(loss_rate: float, c: float = MATHIS_C_ACK_EVERY_PACKET) -> float:
    """Upper-bound window size in packets: W = C / sqrt(p)."""
    _check_loss_rate(loss_rate)
    return c / math.sqrt(loss_rate)
