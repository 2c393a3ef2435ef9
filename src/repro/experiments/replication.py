"""Multi-seed replication: run a seeded scenario across seeds and
summarise with mean / standard deviation / a Student-t confidence
interval.

The RED and random-loss experiments are stochastic; single-seed numbers
(which the paper reports) can mislead.  ``replicate`` is the harness
the benches use to state results as ``mean ± half-width``.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, Sequence

from repro._record import Record

# two-sided z quantiles for the supported confidence levels
_Z = {0.90: 1.6448536, 0.95: 1.9599640, 0.99: 2.5758293}

# two-sided Student-t quantiles for 1..30 degrees of freedom
_T = {
    0.90: (
        6.3138, 2.9200, 2.3534, 2.1318, 2.0150, 1.9432, 1.8946, 1.8595,
        1.8331, 1.8125, 1.7959, 1.7823, 1.7709, 1.7613, 1.7531, 1.7459,
        1.7396, 1.7341, 1.7291, 1.7247, 1.7207, 1.7171, 1.7139, 1.7109,
        1.7081, 1.7056, 1.7033, 1.7011, 1.6991, 1.6973,
    ),
    0.95: (
        12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
        2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
        2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
        2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
    ),
    0.99: (
        63.6567, 9.9248, 5.8409, 4.6041, 4.0321, 3.7074, 3.4995, 3.3554,
        3.2498, 3.1693, 3.1058, 3.0545, 3.0123, 2.9768, 2.9467, 2.9208,
        2.8982, 2.8784, 2.8609, 2.8453, 2.8314, 2.8188, 2.8073, 2.7969,
        2.7874, 2.7787, 2.7707, 2.7633, 2.7564, 2.7500,
    ),
}


def t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t quantile: ``mean ± t * s / sqrt(n)`` covers
    ``confidence`` with ``df = n - 1``.  A table up to 30 degrees of
    freedom, the Cornish-Fisher series in ``1/df`` beyond it
    (Abramowitz & Stegun 26.7.5)."""
    z = _Z.get(confidence)
    if z is None:
        raise ValueError(f"unsupported confidence level {confidence}")
    if df < 1:
        raise ValueError("t_quantile() needs df >= 1")
    if df <= 30:
        return _T[confidence][df - 1]
    z2 = z * z
    g1 = (z2 + 1) * z / 4
    g2 = ((5 * z2 + 16) * z2 + 3) * z / 96
    g3 = (((3 * z2 + 19) * z2 + 17) * z2 - 15) * z / 384
    g4 = ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) * z / 92160
    return z + g1 / df + g2 / df**2 + g3 / df**3 + g4 / df**4


class Summary(Record, frozen=True):
    """Aggregate of one metric across seeds."""

    n: int
    mean: float
    stdev: float
    ci_half_width: float
    minimum: float
    maximum: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_half_width

    def __str__(self) -> str:
        return f"{self.mean:.3g} ± {self.ci_half_width:.2g} (n={self.n})"


def summarize(values: Sequence[float], confidence: float = 0.95) -> Summary:
    """Summarise raw values; the CI is Student-t with ``n - 1`` degrees
    of freedom."""
    xs = [float(v) for v in values]
    if not xs:
        raise ValueError("summarize() needs at least one value")
    mean = statistics.fmean(xs)
    stdev = statistics.stdev(xs) if len(xs) > 1 else 0.0
    n = len(xs)
    t = t_quantile(confidence, max(n - 1, 1))  # rejects an unsupported level
    half = t * stdev / math.sqrt(n) if n > 1 else 0.0
    return Summary(
        n=n,
        mean=mean,
        stdev=stdev,
        ci_half_width=half,
        minimum=min(xs),
        maximum=max(xs),
    )


def replicate(
    run: Callable[[int], Dict[str, float]],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> Dict[str, Summary]:
    """Run ``run(seed)`` for every seed and summarise each metric.

    ``run`` returns a flat dict of metric name -> value; every seed
    must return the same keys.
    """
    if not seeds:
        raise ValueError("replicate() needs at least one seed")
    collected: Dict[str, List[float]] = {}
    for seed in seeds:
        metrics = run(seed)
        if not collected:
            collected = {key: [] for key in metrics}
        if set(metrics) != set(collected):
            raise ValueError(
                f"seed {seed} returned keys {sorted(metrics)} != {sorted(collected)}"
            )
        for key, value in metrics.items():
            collected[key].append(float(value))
    return {key: summarize(values, confidence) for key, values in collected.items()}
