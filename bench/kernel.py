"""The reference kernel every timed segment is normalised against.

A fixed amount of pure-Python work of the same kind the simulator
spends its time on: heap push/pop of ``(time, serial, obj)`` tuples,
method calls on a slotted object, and dict stores.  It runs right
before and right after every timed segment; a segment's score is its
CPU time divided by the mean of the two kernel runs, so whatever makes
the whole box slower for a while (a busy neighbour, a frequency step)
moves numerator and denominator together.

Run as a script (``python bench/kernel.py``) it is the reference
*child*: interpreter start, the stdlib imports below, one kernel run.
Child-process segments (CLI calls, the extension build) are scored
against it, measured from outside like they are.

DO NOT EDIT.  Every number ever recorded by this benchmark is a
multiple of this kernel's cost; its source hash is pinned in
``bench/tests/test_bench_contract.py``.
"""

import heapq
import time

#: Nominal cost of one kernel run on the sandbox the baseline was
#: recorded on; scores are multiplied by it so that a "normalised
#: second" reads as roughly one wall second on a calm box.
KERNEL_NOMINAL_S = 0.025

KERNEL_ITERATIONS = 16000

#: Nominal cost of the reference child, same convention.
CHILD_NOMINAL_S = 0.09

#: What the reference child imports: the stdlib modules the experiments
#: CLI pulls in anyway, so its start-up is work of the same shape.
CHILD_IMPORTS = (
    "argparse", "bisect", "collections", "concurrent.futures", "dataclasses",
    "datetime", "functools", "hashlib", "itertools", "json", "math",
    "multiprocessing", "pathlib", "pickle", "random", "re", "statistics",
    "subprocess", "tempfile", "typing", "uuid",
)


class _Cell:
    __slots__ = ("count", "last")

    def __init__(self):
        self.count = 0
        self.last = 0.0

    def touch(self, now):
        self.count += 1
        self.last = now
        return self.count


def kernel_work(iterations=KERNEL_ITERATIONS):
    """The fixed work; returns a checksum so nothing is optimised away."""
    heap = []
    push = heapq.heappush
    pop = heapq.heappop
    table = {}
    cells = [_Cell() for _ in range(16)]
    now = 0.0
    serial = 0
    checksum = 0
    for i in range(iterations):
        cell = cells[i & 15]
        push(heap, (now + ((i * 7919) % 101) * 0.001, serial, cell))
        serial += 1
        if i & 1:
            now, _, fired = pop(heap)
            checksum += fired.touch(now)
            table[i & 1023] = now
    while heap:
        now, _, fired = pop(heap)
        checksum += fired.touch(now)
    return checksum + len(table)


def run_kernel():
    """CPU seconds one kernel run took in this process."""
    start = time.process_time()
    kernel_work()
    return time.process_time() - start


if __name__ == "__main__":
    import importlib

    for _name in CHILD_IMPORTS:
        importlib.import_module(_name)
    kernel_work()
