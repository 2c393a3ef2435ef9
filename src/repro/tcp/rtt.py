"""RTO estimation: RFC 6298 SRTT/RTTVAR with Karn's rule and
exponential back-off.

Karn's rule itself (never sample a retransmitted packet) is enforced by
the sender's bookkeeping; this class handles the arithmetic:

* first sample:  SRTT = R,  RTTVAR = R/2
* afterwards:    RTTVAR = (1-β)·RTTVAR + β·|SRTT - R|   (β = 1/4)
                 SRTT   = (1-α)·SRTT   + α·R            (α = 1/8)
* RTO = SRTT + max(G, 4·RTTVAR), clamped to [min_rto, max_rto]
* back-off doubles the effective RTO per consecutive timeout; a new
  sample resets the back-off.
"""

from __future__ import annotations

from typing import Optional

from repro.config import TcpConfig
from repro.errors import ConfigurationError

ALPHA = 1.0 / 8.0
BETA = 1.0 / 4.0


class RtoEstimator:
    """Retransmission-timeout estimator.

    Parameters
    ----------
    config:
        Supplies ``initial_rto``, ``min_rto``, ``max_rto`` and
        ``timer_granularity`` (the ``G`` in RFC 6298).
    """

    def __init__(self, config: Optional[TcpConfig] = None):
        self._config = config or TcpConfig()
        self._config.validate()
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._rto = max(self._config.initial_rto, self._config.min_rto)
        self._backoff = 1
        self.samples = 0
        #: The RTO to arm the retransmission timer with, back-off applied
        #: (what :meth:`current` returns), kept current by every update
        #: so the sender's per-packet read is an attribute load.  Derived
        #: from ``_rto`` and ``_backoff``: left out of the checkpoint
        #: state and rebuilt on restore.
        self.value = self._with_backoff()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["value"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.value = self._with_backoff()

    def on_sample(self, rtt: float) -> None:
        """Feed one RTT measurement (seconds)."""
        if rtt < 0:
            raise ConfigurationError(f"negative RTT sample: {rtt}")
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - BETA) * self.rttvar + BETA * abs(self.srtt - rtt)
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * rtt
        g = self._config.timer_granularity
        raw = self.srtt + max(g, 4.0 * self.rttvar)
        self._rto = min(max(raw, self._config.min_rto), self._config.max_rto)
        self._backoff = 1
        self.samples += 1
        self.value = self._rto  # already within max_rto, back-off 1

    def current(self) -> float:
        """The RTO to arm the retransmission timer with, back-off applied."""
        return self.value

    def _with_backoff(self) -> float:
        return min(self._rto * self._backoff, self._config.max_rto)

    def backoff(self) -> None:
        """Double the RTO after a timeout (capped at max_rto)."""
        if self._rto * self._backoff < self._config.max_rto:
            self._backoff *= 2
            self.value = self._with_backoff()

    def reset(self) -> None:
        """Forget all history (e.g. for a brand-new connection)."""
        self.srtt = None
        self.rttvar = None
        self._rto = max(self._config.initial_rto, self._config.min_rto)
        self._backoff = 1
        self.samples = 0
        self.value = self._with_backoff()
