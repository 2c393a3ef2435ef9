"""Cancellable, restartable timers on top of the event engine.

TCP needs a retransmission timer that is constantly restarted as ACKs
arrive; doing that with raw events invites leaks.  :class:`Timer` wraps
one logical timer with ``start``/``restart``/``stop`` semantics and an
optional coarse *granularity* that rounds expirations up to a tick
boundary, mimicking the coarse-grained timers of classic BSD/ns-2 TCP
implementations.

A restart usually moves the expiration later, so the timer keeps a
*deadline* next to at most one pending event and only moves the
deadline; the event, when it fires early, re-arms itself at the exact
deadline (docs/PERFORMANCE.md "Cost of an ACK").
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Event, Simulator


class Timer:
    """One restartable timeout: a deadline plus at most one pending event.

    ``expiry`` is the deadline.  A (re)start to a time later than the
    pending event's only records the new deadline -- no cancel, no
    second heap entry; when the event fires before the deadline it
    re-arms at the deadline (:meth:`Simulator.schedule_abs`, so the
    callback runs at the float-identical time an eager reschedule would
    have used).  A (re)start to an earlier or equal time cancels and
    reschedules as before, and :meth:`stop` always cancels at once.

    Parameters
    ----------
    sim:
        The simulator that provides the clock.
    callback:
        Called (with no arguments) when the timer expires.
    granularity:
        If > 0, expiration delays are rounded up to the next multiple of
        this tick (seconds), emulating coarse-grained kernel timers.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], Any],
        granularity: float = 0.0,
    ):
        if granularity < 0:
            raise ConfigurationError("timer granularity must be >= 0")
        self._sim = sim
        self._callback = callback
        self._granularity = granularity
        self._event: Optional[Event] = None
        # When the callback is due; the pending event may be earlier.
        self._deadline = 0.0

    @property
    def pending(self) -> bool:
        """True while the timer is armed."""
        event = self._event
        return event is not None and not (event._cancelled or event._fired)

    @property
    def granularity(self) -> float:
        """Current tick size in seconds (0 = exact timers)."""
        return self._granularity

    def set_granularity(self, granularity: float) -> None:
        """Change the tick size.  Applies to subsequent (re)starts; an
        already-armed expiration is left where it is.  Fault injection
        uses this to model clock-granularity skew between hosts."""
        if granularity < 0:
            raise ConfigurationError("timer granularity must be >= 0")
        self._granularity = granularity

    @property
    def expiry(self) -> Optional[float]:
        """Absolute expiration time (the deadline), or None when not armed."""
        return self._deadline if self.pending else None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now (rounded up to a
        whole, nonzero number of ticks when a granularity is set).

        Restarting an armed timer replaces the previous expiration.
        """
        granularity = self._granularity
        if granularity > 0:
            delay = max(1, math.ceil(delay / granularity - 1e-12)) * granularity
        event = self._event
        if event is not None:
            deadline = self._sim.now + delay
            if deadline > event.time and not event._cancelled:
                self._deadline = deadline
                return
            self.stop()
        self._event = event = self._sim.schedule(delay, self._fire)
        self._deadline = event.time

    # ``restart`` reads better at call sites that always rearm.
    restart = start

    def stop(self) -> None:
        """Disarm the timer.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        sim = self._sim
        if self._deadline > sim.now:
            self._event = sim.schedule_abs(self._deadline, self._fire)
            return
        self._event = None
        self._callback()
