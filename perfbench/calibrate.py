"""How fast the host runs Python right now, from a fixed burst of work.

The benchmark shares a few cores of a host with other machines, and the
speed it gets drifts: by up to a factor of two, in steps that last from
seconds to minutes, the same for wall and CPU time. A pass over a workload
cannot tell that drift from a change in the program. So every pass
interleaves short bursts of the fixed, program-independent work below with
its cells, and scales its times by ``(REFERENCE_S / burst time) **
SENSITIVITY``: times are reported in seconds of a host on which one burst
takes ``REFERENCE_S``.

The library follows the drift less strongly than the burst does, because
part of its time waits on memory or on system calls (argparse's gettext
lookups, file reads and writes). ``SENSITIVITY`` is the slope of log time
against log burst time. On the 2-CPU x86-64 VM the benchmark was sized on,
over three sets of ten runs per workload, it was 0.55 to 0.72 for ``cli``
passes, 0.64 to 0.93 for ``refute``, 0.7 to 0.83 for ``witness`` and 0.6 to
0.72 for set-ups; scaling by the burst alone over-corrected ``cli`` by up
to a sixth.

The burst is interpreter work of the kind the library does (recursion, set
and dict lookups, small tuples, frozensets and dicts made and dropped), not
memory traffic: a burst that chased pointers through a large table followed
the drift only half as much as the library did.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.018  # about the median burst on the 2-CPU x86-64 VM the benchmark was sized on
EVERY_S = 0.25  # seconds of cells between two bursts
SENSITIVITY = 0.7
GRAPHS = 260
CHURN = 4000


def _colour(adjacent: dict[int, set[int]], colour: dict[int, int], node: int, count: list[int]) -> bool:
    if node == len(adjacent):
        return True
    for c in range(3):
        count[0] += 1
        if all(colour.get(m) != c for m in adjacent[node]):
            colour[node] = c
            if _colour(adjacent, colour, node + 1, count):
                return True
            del colour[node]
    return False


def _work() -> int:
    count = [0]
    for seed in range(GRAPHS):
        adjacent: dict[int, set[int]] = {i: set() for i in range(12)}
        for i in range(12):
            for j in ((i * 7 + seed) % 12, (i + 1) % 12, (i * i + seed) % 12):
                if j != i:
                    adjacent[i].add(j)
                    adjacent[j].add(i)
        _colour(adjacent, {}, 0, count)
    kept: list[tuple] = []
    for i in range(CHURN):
        d = {("a", i): frozenset({i, i + 1, i % 7}), ("b", i): (i, str(i))}
        kept.append(tuple(sorted(d)))
        if len(kept) > 400:
            kept = []
    return count[0] + len(kept)


def scale(burst_s: float) -> float:
    """Factor that turns a time measured next to a burst of ``burst_s``
    into seconds of the reference host."""
    return (REFERENCE_S / burst_s) ** SENSITIVITY


def burst() -> float:
    """Seconds one burst takes now; the collector is off, so the library's
    heap does not enter the measure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
