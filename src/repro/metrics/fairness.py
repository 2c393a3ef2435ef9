"""Fairness indices for multi-flow experiments (Section 5)."""

from __future__ import annotations

from typing import Sequence


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n · Σx²), in (0, 1]; 1 = equal.

    Returns 1.0 for an empty input (vacuously fair).
    """
    xs = [x for x in allocations]
    if not xs:
        return 1.0
    total = sum(xs)
    squares = sum(x * x for x in xs)
    if squares == 0:
        return 1.0
    return (total * total) / (len(xs) * squares)
