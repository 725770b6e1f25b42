"""Host speed probe: times reported at one reference speed.

The benchmark runs on shared virtual machines whose CPU speed drifts by
a quarter and more over seconds to minutes, as other tenants load the
same physical cores.  A drift moves every timing of a run alike, so the
benchmark measures the host's speed next to the work and reports each
time as it would read on a host that runs the probe in
:data:`REFERENCE_MS`:

    reported = measured * REFERENCE_MS / probe_ms

where ``probe_ms`` is the probe time measured around that work.  The
probe is fixed code of the benchmark's own, shaped like the analysis
(small objects, attribute access, memoised recursion, dicts of tuples,
sorting, JSON and regex), so a slow spell slows it as it slows the
system under test, while no change to the system can move it.  Garbage
collection is off while a probe runs, so the size of the system's heap
does not reach the probe either.

The speed of a vCPU flips between two levels about a factor of two
apart, each held for a second or a few, and the two vCPUs flip on their
own.  So the timed work and the probes next to it run pinned to one
CPU (:func:`pinned`), and a probe sits next to every op or every few
ops.

    python3 perfbench/hostspeed.py      # print ten probes, in ms
"""

from __future__ import annotations

import gc
import json
import os
import re
import statistics
import sys
import time
from contextlib import contextmanager

#: Probe time, in ms, at the reference speed: about the median probe on
#: the 2-vCPU x86-64 host the bounds of ``BENCHMARK.json`` were set on.
#: Only a fixed scale: every reported time is measured time times this
#: over the probe time measured with it.
REFERENCE_MS = 10.0

_NUMBER = re.compile(r"\d+")


class _Node:
    __slots__ = ("name", "lo", "hi", "kids")

    def __init__(self, name, lo, hi):
        self.name = name
        self.lo = lo
        self.hi = hi
        self.kids = []

    def span(self):
        return self.hi - self.lo


def _work() -> int:
    nodes = [_Node(f"n{i}", i % 13, i % 13 + i % 7) for i in range(3000)]
    for i, node in enumerate(nodes[1:], 1):
        nodes[(i * 7) % i].kids.append(node)
    memo = {}

    def walk(node, depth):
        key = (node.name, depth)
        if key not in memo:
            memo[key] = node.span() + sum(walk(k, depth + 1)
                                          for k in node.kids)
        return memo[key]

    total = walk(nodes[0], 0)
    terms = {}
    for node in nodes:
        terms.setdefault(frozenset((node.lo % 5, node.hi % 3)), []).append(
            node.span())
    rows = sorted((sum(v), len(v), tuple(sorted(k)))
                  for k, v in terms.items())
    text = json.dumps([[a, b, list(c)] for a, b, c in rows], sort_keys=True)
    return total + len(text) + len(_NUMBER.findall(text))


def probe_ms() -> float:
    """The host's current speed: the time of :func:`_work`, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return (time.perf_counter() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


def scale(*probes: float) -> float:
    """Factor from measured to reference time for work measured between
    (or next to) the given probes."""
    return REFERENCE_MS / statistics.fmean(probes)


def timed_cpu() -> int:
    """The CPU the timed work of a pass runs on."""
    return min(os.sched_getaffinity(0))


@contextmanager
def pinned(cpu: int):
    """Run the calling thread, and the threads it starts, on ``cpu``
    only; restore its CPUs after (so processes it spawns later, such as
    the check pool, run on every CPU)."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


if __name__ == "__main__":
    print(" ".join(f"{probe_ms():.3f}" for _ in range(10)))
    sys.exit(0)
