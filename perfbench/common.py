"""Helpers shared by ``run.py`` and its worker processes.

Nothing here imports ``repro``: ``run.py`` must be able to
load this module in a directory that holds only the benchmark, where it
then refuses to run.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

#: Where runs leave worker results, span files and server logs,
#: relative to the checkout root (listed in the root ``.gitignore``).
OUT_DIR = ".perfbench_out"


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the base is empty."""
    return num / den if den else 0.0


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Spans:
    """In-memory span recorder: (name, start, end, parent, op).

    Spans are kept as plain dicts and written out once, when the worker
    ends, so recording costs one ``perf_counter`` pair per span.  Each
    thread nests its own spans; ``parent`` is the index of the enclosing
    span of the same thread.
    """

    def __init__(self):
        self.records: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: int):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"name": name, "op": op,
                  "parent": stack[-1] if stack else None,
                  "start": time.perf_counter(), "end": None}
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()


def self_times(records) -> dict:
    """Per-name self time: duration minus the time child spans cover.

    Children of one span never overlap (one thread records them), so
    the covered part is the sum of the children's durations.
    """
    child_time = [0.0] * len(records)
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] += r["end"] - r["start"]
    out: dict = {}
    for i, r in enumerate(records):
        own = (r["end"] - r["start"]) - child_time[i]
        out[r["name"]] = out.get(r["name"], 0.0) + own
    return out


def ensure_out_dir(root: str) -> str:
    path = os.path.join(root, OUT_DIR)
    os.makedirs(path, exist_ok=True)
    return path
