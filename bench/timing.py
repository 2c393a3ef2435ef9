"""Reference-normalised timing of segments (see bench/README.md, "Timing method").

A run is cut into *segments* — one simulated cell, one 0.25-simulated-
second slice, one CLI call.  A fixed *reference* runs right before and
right after each segment; the segment's score is

    segment_cpu_seconds / mean(reference_before, reference_after)

and its cost in **normalised seconds** is the score times the
reference's nominal cost.  A time metric is the sum, over segments, of
the median normalised seconds over rounds.  Raw CPU and wall seconds
are kept beside every score as information only.

The reference is of the segment's own kind: in-process segments are
scored against the in-process kernel (``kernel.run_kernel``), child
processes against a reference *child* (``python bench/kernel.py``:
interpreter start, a fixed set of stdlib imports, one kernel run) —
exec, page faults and imports do not slow down in step with a
cache-resident loop when the box gets busy, a child of the same shape
does.
"""

import gc
import statistics
import time

#: Rounds per backend: at least two whatever ``--seconds`` says (a
#: median needs them), and no more than seven.
MIN_ROUNDS = 2
MAX_ROUNDS = 7

#: A reference run may serve as the "after" of one segment and the
#: "before" of the next only if the next starts this soon after it.
REFERENCE_REUSE_S = 0.05


class Normaliser:
    """Times segments against an interleaved reference.

    ``reference()`` runs the reference once and returns its CPU
    seconds; ``nominal_s`` is its nominal cost (what one run takes on
    the box the baseline was recorded on)."""

    def __init__(self, reference, nominal_s):
        self.reference = reference
        self.nominal_s = nominal_s
        self.reference_runs = []
        self._last = None
        self._last_end = 0.0

    def _reference(self, reuse=False):
        if (
            reuse
            and self._last is not None
            and time.perf_counter() - self._last_end < REFERENCE_REUSE_S
        ):
            return self._last
        seconds = self.reference()
        self.reference_runs.append(seconds)
        self._last = seconds
        self._last_end = time.perf_counter()
        return seconds

    def _timing(self, before, cpu, wall):
        reference = (before + self._reference()) / 2.0
        return {
            "norm_s": self.nominal_s * cpu / reference,
            "cpu_s": cpu,
            "wall_s": wall,
            "reference_s": reference,
        }

    def time_call(self, fn):
        """Time ``fn()`` in this process.  Returns ``(timing, result)``."""
        before = self._reference(reuse=True)
        gc.collect()
        gc.disable()
        try:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            result = fn()
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
        finally:
            gc.enable()
        return self._timing(before, cpu, wall), result

    def time_child(self, run):
        """Time one child process by its user+system CPU.  ``run()``
        starts the child, waits for it and returns an object with a
        ``cpu_s`` attribute.  Returns ``(timing, that object)``."""
        before = self._reference(reuse=True)
        wall0 = time.perf_counter()
        child = run()
        wall = time.perf_counter() - wall0
        return self._timing(before, child.cpu_s, wall), child

    def reference_summary(self):
        runs = self.reference_runs
        if not runs:
            return {"n": 0}
        return {
            "n": len(runs),
            "min_s": min(runs),
            "median_s": statistics.median(runs),
            "max_s": max(runs),
        }


def normalised_seconds(rounds):
    """``rounds`` is a list of ``{segment_key: timing}`` dicts, one per
    round.  Sum, over segment keys, of the median normalised seconds
    across the rounds that ran the segment."""
    keys = []
    for round_ in rounds:
        for key in round_:
            if key not in keys:
                keys.append(key)
    return sum(
        statistics.median(round_[key]["norm_s"] for round_ in rounds if key in round_)
        for key in keys
    )


def round_total(round_):
    """Normalised seconds of one round (information beside the metric)."""
    return sum(timing["norm_s"] for timing in round_.values())


def round_info(rounds, scale=1.0):
    """Per-round totals beside a time metric, as information."""
    norm = [scale * round_total(r) for r in rounds]
    wall = [sum(t["wall_s"] for t in r.values()) for r in rounds]
    return {"norm_per_round": spread(norm), "raw_wall_per_round_s": spread(wall)}


def spread(values):
    """min / median / max and n of a list — with 2-7 samples nothing
    above the median is supported, so nothing else is reported."""
    return {
        "n": len(values),
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
    }
