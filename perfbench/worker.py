"""One pass of one workload, in a fresh process; started by ``run.py``.

A pass generates its seeded inputs (that and the imports are its
set-up), runs the timed ops with its share of the output checks between
slices of them, reads its peak resident memory, and writes everything
to a JSON file for ``run.py``.  A ``setup`` pass stops after set-up, so
``run.py`` can take several set-up samples per run.  Every time a pass
reports is scaled to the reference host speed by the probes of
:mod:`hostspeed` taken next to it; the measured times are kept beside.

    python3 perfbench/worker.py --workload corpus_batch --seed 1 \\
        --mode untraced --spawn-probe-ms <ms> --spawned-at <monotonic> \\
        --out FILE
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import signal
import sys
import time

import hostspeed

#: ``serve_zipf`` requests per second of ``--seconds``.  Every one of
#: the 130 keys is requested at least once, so at 10 s three quarters
#: of the 500 requests repeat: the median request is then a cache hit
#: and p95 lies among the misses, each away from the hit/miss boundary
#: where a percentile jumps with the request order.
SERVE_REQUESTS_PER_S = 50
SHORT_OPS = 15
#: Timed slices per pass, with a chunk of output checks after each.
SLICES = 4


def _mix(items, distinct_keys: int) -> dict:
    """The input properties a run generated: size, sharing, H mix."""
    specs = {item[0] for item in items}
    return {
        "ops": len(items),
        "distinct_programs": len(specs),
        "distinct_keys": distinct_keys,
        "repeat_share": 1 - distinct_keys / len(items),
        "H": dict(collections.Counter(item[-1] for item in items)),
        "kinds": dict(collections.Counter(s[0] for s in specs)),
    }


class Workload:
    """Set-up in the constructor; then ``run_slice`` over consecutive op
    ranges, ``finish``, ``check_plan`` and ``mix`` (of the inputs and,
    where it matters, of the answers the ops gave).

    ``check_plan`` returns ``(tasks, expect)``: check tasks for
    :mod:`checks` and, per op, ``(task, position)`` pairs — the op's
    document at ``position`` must equal the task's reference document
    (``position`` ``None``: only the task's verdict counts).  Tasks
    depend on the inputs only, so they can run while ops still remain.
    """

    setup_s = None  # measured from process spawn unless a server boots
    #: Ops between two host-speed probes (see ``timed_with_checks``).
    ops_per_segment = 1

    def finish(self, counts) -> None:
        pass

    def close(self) -> None:
        pass


class AnalysisWorkload(Workload):
    """``corpus_batch`` and ``exec_heavy``: one ``analyze()`` per item."""

    task_kind = "analysis"

    @property
    def n_ops(self):
        return len(self.items)

    def run_slice(self, ops, traced, spans, counts):
        from workloads import analysis_pass

        return analysis_pass(self.items, ops, self.root, traced, spans,
                             counts)

    def check_plan(self):
        tasks = [(self.task_kind, self.root, spec, env, H)
                 for spec, env, H in self.items]
        return tasks, [[(i, 0)] for i in range(len(tasks))]

    def mix(self, records):
        return _mix(self.items, len(self.items))


class CorpusBatch(AnalysisWorkload):
    def __init__(self, args, root, cpu):
        from programs import corpus_batch_items

        self.root = root
        self.items = corpus_batch_items(args.seed, args.pass_index, root,
                                        args.short)


class ExecHeavy(AnalysisWorkload):
    task_kind = "exec"

    def __init__(self, args, root, cpu):
        from programs import exec_heavy_items

        self.root = root
        self.items = exec_heavy_items(args.seed, args.short)

    def mix(self, records):
        mix = super().mix(records)
        mix["sizes"] = sorted(
            f"{spec[1]}:" + ",".join(f"{k}={v}" for k, v in sorted(env.items()))
            for spec, env, _ in self.items
        )
        return mix


class ServeZipf(Workload):
    # The two clients drain at each probe, so segments are longer here.
    ops_per_segment = 12

    def __init__(self, args, root, cpu):
        from programs import fixtures, serve_zipf_stream
        from workloads import Server

        self.root = root
        fixtures(root)
        n = SHORT_OPS if args.short else SERVE_REQUESTS_PER_S * args.seconds
        self.stream = serve_zipf_stream(args.seed, n, root, args.short)
        self.server = Server(root, f"{args.workload}-{args.seed}-"
                             f"{args.pass_index}-{os.getpid()}", cpu)
        self.setup_s = self.server.setup_s

    @property
    def n_ops(self):
        return len(self.stream)

    def run_slice(self, ops, traced, spans, counts):
        from workloads import serve_pass

        return serve_pass(self.stream, ops, self.root, traced, spans, counts,
                          self.server)

    def finish(self, counts):
        from workloads import server_snapshot

        counts["server"] = server_snapshot(self.server)
        self.server.stop()

    def close(self):
        self.server.stop()

    def check_plan(self):
        """Every served document must equal an in-process ``analyze()``.
        The LCG oracle runs on the bindings ``corpus_batch`` does not
        check itself (bundled codes at H=8 and H=32): the others are the
        very (program, env, H) triples it validates on every run, and
        repeating those oracles here would double this run's length."""
        from programs import CORPUS_H

        distinct = sorted(set(map(repr, self.stream)))
        index = {key: k for k, key in enumerate(distinct)}
        item = {repr(it): it for it in self.stream}
        tasks = [("analysis", self.root, *item[key],
                  item[key][2] not in CORPUS_H) for key in distinct]
        return tasks, [[(index[repr(it)], 0)] for it in self.stream]

    def mix(self, records):
        return _mix(self.stream, len(set(map(repr, self.stream))))


class WhatifSession(Workload):
    # Ops of a few ms: a probe per op would cost as much as the op.
    ops_per_segment = 4

    def __init__(self, args, root, cpu):
        from programs import materialize, whatif_plan
        from repro.codes import ALL_CODES
        from workloads import make_sessions

        self.root = root
        phases_of = {
            name: [p.name for p in
                   materialize(("code", name), root)[0].phases]
            for name in ALL_CODES
        }
        initial, self.ops = whatif_plan(args.seed, args.short, phases_of)
        self.sessions = make_sessions(initial, root)

    @property
    def n_ops(self):
        return len(self.ops)

    def run_slice(self, ops, traced, spans, counts):
        from workloads import whatif_pass

        return whatif_pass(self.sessions, self.ops, ops, traced, spans,
                           counts)

    def finish(self, counts):
        for session in self.sessions.values():
            for key, value in session.memo.stats().items():
                counts[f"term_memo.{key}"] = (
                    counts.get(f"term_memo.{key}", 0) + value)

    def _points(self):
        """Per op, ``(code, env, H, alpha, beta, bounds)`` of each answer
        in the order the session returns them, hashable."""
        from programs import sweep_points

        return [
            [(name, tuple(sorted(env.items())), H, alpha, beta,
              tuple(sorted(bounds.items())))
             for env, H, alpha, beta, bounds in sweep_points(
                 state, grid if kind == "sweep" else {})]
            for name, kind, grid, state in self.ops
        ]

    def check_plan(self):
        points = self._points()
        distinct = sorted({p for pts in points for p in pts}, key=repr)
        index = {p: k for k, p in enumerate(distinct)}
        tasks = [("session_point", self.root, ("code", name), dict(env), H,
                  alpha, beta, dict(bounds))
                 for name, env, H, alpha, beta, bounds in distinct]
        bindings = sorted({p[:3] for p in distinct}, key=repr)
        binding_task = {b: len(tasks) + k for k, b in enumerate(bindings)}
        tasks += [("lcg", self.root, ("code", name), dict(env), H)
                  for name, env, H in bindings]
        expect = [
            [(index[p], pos) for pos, p in enumerate(pts)]
            + [(binding_task[b], None) for b in sorted({p[:3] for p in pts},
                                                       key=repr)]
            for pts in points
        ]
        return tasks, expect

    def mix(self, records):
        from checks import infeasible

        points = [p for pts in self._points() for p in pts]
        distinct = set(points)
        marker = infeasible("")
        return {
            "ops": len(self.ops),
            "edits": sum(op[1] == "edit" for op in self.ops),
            "sweeps": sum(op[1] == "sweep" for op in self.ops),
            "points": len(points),
            "distinct_points": len(distinct),
            "infeasible_answers": sum(
                str(doc).startswith(marker)
                for r in records for doc in r["docs"]),
            "distinct_programs": len(self.sessions),
            "repeat_share": 1 - len(distinct) / len(points),
            "H": dict(collections.Counter(p[2] for p in points)),
        }


WORKLOADS = {
    "corpus_batch": CorpusBatch,
    "serve_zipf": ServeZipf,
    "whatif_session": WhatifSession,
    "exec_heavy": ExecHeavy,
}


def compare(records, tasks, expect, results: dict) -> dict:
    """Mark each op record ``check_ok`` against the references this
    pass computed (tasks checked by another pass are skipped here)."""
    failures = []
    for record, pairs in zip(records, expect):
        record["check_ok"] = record["ok"]
        if not record["ok"]:
            continue  # already a failed op; there is no output to check
        for t, pos in pairs:
            res = results.get(t)
            if res is None:
                continue
            docs = record["docs"]
            same = pos is None or (pos < len(docs) and docs[pos] == res["sha"])
            if not (res["ok"] and same):
                record["check_ok"] = False
                failures.append({
                    "op": record["id"],
                    "check": tasks[t][0],
                    "detail": res["detail"] or "document differs from "
                    "the in-process analyze() reference",
                })
                break
    return {"tasks": len(results), "failures": failures}


def timed_with_checks(workload, args, cpu, spans, counts, out) -> list:
    """Run the ops in ``SLICES`` consecutive slices; after each, one
    chunk of this pass's check tasks.  Of ``--passes`` passes over the
    same inputs, pass ``k`` takes every ``passes``-th task (in a
    canonical order), so together they check every task once.

    Each slice runs in segments of ``workload.ops_per_segment`` ops,
    pinned to ``cpu``, with a host-speed probe between them; a
    segment's op times and wall time are scaled by the mean of the
    probes before and after it."""
    from checks import check_pool

    traced = args.mode == "traced"
    tasks, expect = workload.check_plan()
    order = sorted(range(len(tasks)), key=lambda t: repr(tasks[t]))
    mine = order[args.pass_index::args.passes]
    n = workload.n_ops
    records, results = [], {}
    timed = measured = checking = 0.0
    with check_pool() as run_tasks:
        for j in range(SLICES):
            lo, hi = n * j // SLICES, n * (j + 1) // SLICES
            step = workload.ops_per_segment
            with hostspeed.pinned(cpu):
                before = hostspeed.probe_ms()
                for k in range(lo, hi, step):
                    t0 = time.perf_counter()
                    segment = workload.run_slice(
                        range(k, min(k + step, hi)), traced, spans, counts)
                    t1 = time.perf_counter()
                    after = hostspeed.probe_ms()
                    factor = hostspeed.scale(before, after)
                    for record in segment:
                        record["measured_ms"] = record["ms"]
                        record["ms"] *= factor
                    records += segment
                    timed += (t1 - t0) * factor
                    measured += t1 - t0
                    before = after
            t2 = time.perf_counter()
            chunk = mine[j::SLICES]
            results.update(zip(chunk, run_tasks([tasks[t] for t in chunk])))
            checking += time.perf_counter() - t2
    out["timed_s"] = timed
    out["measured_timed_s"] = measured
    out["checks"] = compare(records, tasks, expect, results)
    out["checks"]["seconds"] = checking
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--mode", choices=("untraced", "traced", "setup"),
                        default="untraced")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--spawn-probe-ms", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: the server and the check pool stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from common import Spans, vm_hwm_mb

    cpu = hostspeed.timed_cpu()
    workload = WORKLOADS[args.workload](args, root, cpu)
    ready = time.monotonic()
    setup = (workload.setup_s if workload.setup_s is not None
             else ready - args.spawned_at)
    out = {"setup_s": setup * hostspeed.scale(args.spawn_probe_ms,
                                              hostspeed.probe_ms()),
           "measured_setup_s": setup}
    try:
        if args.mode != "setup":
            spans, counts = Spans(), {}
            records = timed_with_checks(workload, args, cpu, spans, counts,
                                        out)
            workload.finish(counts)
            server = counts.pop("server", None)
            out["rss_mb"] = server["rss_mb"] if server else vm_hwm_mb()
            out.update(server=server, records=records,
                       inputs=workload.mix(records), counts=counts)
            if args.mode == "traced":
                out["spans"] = spans.records
    finally:
        workload.close()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
