"""Model-fitting utilities for Section 4.

The paper eyeballs fitness of measured windows against the square-root
bound; :func:`estimate_mathis_c` quantifies it with a least-squares
estimate of the constant C in ``W = C/sqrt(p)`` from measured (p, W)
points.  Interesting for the paper's curious statement "C is set to 4":
fitting the *measured* points recovers something near the theoretical
sqrt(3/2) at low p.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.errors import ConfigurationError

Point = Tuple[float, float]


def estimate_mathis_c(points: Sequence[Point]) -> float:
    """Least-squares C for ``W = C / sqrt(p)``.

    With the model linear in C, the optimum is
    ``C = sum(W_i x_i) / sum(x_i^2)`` where ``x_i = 1/sqrt(p_i)``.
    """
    if not points:
        raise ConfigurationError("need at least one (p, W) point")
    num = 0.0
    den = 0.0
    for p, w in points:
        if not 0 < p <= 1:
            raise ConfigurationError(f"loss rate must be in (0, 1], got {p}")
        x = 1.0 / math.sqrt(p)
        num += w * x
        den += x * x
    return num / den
