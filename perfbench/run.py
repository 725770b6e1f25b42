"""Repository benchmark: one seeded workload, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus_batch --seed 1 --seconds 10 --trace 0

Each pass of a workload runs in a fresh worker process (``worker.py``),
so set-up time covers interpreter start, imports and input generation
(and, for ``serve_zipf``, booting ``repro serve`` until ``/healthz``
answers), and peak memory is that of the process doing the analysis.
Outputs are checked after the timed phase against independent
references (``checks.py``); a wrong output counts as a failed op.

``--trace 0`` reports the end-to-end metrics.  Their times are at the
reference host speed of :mod:`hostspeed`: each is the measured time
scaled by a host-speed probe taken next to it, so a shared host's
drifting CPU speed does not move them; the measured figures are printed
beside.  ``--trace 1`` runs an untraced pass and then a traced pass
over the same inputs, verifies that both answered with byte-identical
documents, writes the traced pass's spans to
``.perfbench_out/spans-<workload>-<seed>.json`` and reports the
per-layer metrics (measured times), the share of the measured op time
the layer spans cover, and the tracing overhead (traced over untraced
op time, both at reference speed).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it
print every metric with its unit, failed_ratio, the input mix the seed
produced and the check summary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from common import (  # noqa: E402
    OUT_DIR, ensure_out_dir, percentile, ratio, self_times,
)

WORKLOADS = ("corpus_batch", "serve_zipf", "whatif_session", "exec_heavy")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("ir.busy_s", "s"),
    ("ir.programs", "count"),
    ("locality.busy_s", "s"),
    ("locality.edges", "count"),
    ("locality.edge_cache_hit_ratio", "ratio"),
    ("locality.intra_lookups", "count"),
    ("locality.intra_cache_hit_ratio", "ratio"),
    ("descriptors.accesses", "count"),
    ("symbolic.prover_queries", "count"),
    ("symbolic.prover_cache_hit_ratio", "ratio"),
    ("symbolic.compile_lookups", "count"),
    ("symbolic.compile_reuse_ratio", "ratio"),
    ("symbolic.refuted", "count"),
    ("distribution.busy_s", "s"),
    ("distribution.ilp_candidates", "count"),
    ("distribution.ilp_components", "count"),
    ("distribution.term_memo_lookups", "count"),
    ("distribution.term_memo_hit_ratio", "ratio"),
    ("dsm.busy_s", "s"),
    ("dsm.accesses", "count"),
    ("dsm.enumerated_phases", "count"),
    ("dsm.symbolic_fallbacks", "count"),
    ("document.busy_s", "s"),
    ("document.bytes", "bytes"),
    ("plan.compiled", "count"),
    ("plan.installed", "count"),
    ("plan.install_ratio", "ratio"),
    ("service.requests", "count"),
    ("service.result_cache_hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.rejected", "count"),
    ("service.server_p50_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("session.edit_busy_s", "s"),
    ("session.solve_busy_s", "s"),
    ("session.edge_lookups", "count"),
    ("session.edges_reused_ratio", "ratio"),
    ("workload.repeat_share", "ratio"),
    ("workload.distinct_programs", "count"),
    ("trace.layer_coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

#: Set-up samples per untraced run (passes plus set-up-only launches).
SETUP_SAMPLES = 3
#: Cold passes per untraced ``corpus_batch`` run: one pass holds only
#: 106 ops, two hold 212, so at least ten lie beyond p95.  (Three make
#: p95 a little steadier but the run half again as long.)
CORPUS_PASSES = 2
#: The whole run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (not: the system answered wrongly)."""


class Runner:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def spawn(self, pass_index: int, mode: str, passes: int = 1) -> dict:
        a = self.args
        out = os.path.join(self.root, OUT_DIR, f"{a.workload}-{a.seed}-"
                           f"{pass_index}-{mode}-{os.getpid()}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--pass-index", str(pass_index),
               "--mode", mode, "--passes", str(passes), "--out", out]
        if a.short:
            cmd.append("--short")
        # The host's speed just before the spawn and, in the worker,
        # just after set-up scale the set-up time between them.
        cmd += ["--spawn-probe-ms", repr(hostspeed.probe_ms()),
                "--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=self.root, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{a.workload} pass {pass_index} ran past "
                             f"the {RUN_BUDGET_S:.0f} s budget") from None
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if code != 0:
            raise BenchError(f"{a.workload} pass {pass_index} ({mode}) "
                             f"exited with code {code}")
        with open(out, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(out)
        return result

    def passes(self) -> list:
        """Untraced: ``CORPUS_PASSES`` cold passes for ``corpus_batch``,
        one pass otherwise.  Traced: an untraced pass, then a traced one.
        The passes of a run split the output checks between them."""
        if self.args.trace:
            return [self.spawn(0, "untraced", 2), self.spawn(1, "traced", 2)]
        n = CORPUS_PASSES if self.args.workload == "corpus_batch" else 1
        return [self.spawn(k, "untraced", n) for k in range(n)]

    def setup_samples(self, passes) -> list:
        extra = [self.spawn(len(passes) + k, "setup")
                 for k in range(SETUP_SAMPLES - len(passes))]
        return [(p["setup_s"], p["measured_setup_s"])
                for p in passes + extra]


def cross_pass_mismatches(passes) -> list:
    """Ops whose documents differ from pass 0's answer to the same op."""
    ref = {r["id"]: r["docs"] for r in passes[0]["records"] if r["ok"]}
    bad = []
    for p in passes[1:]:
        for r in p["records"]:
            if r["ok"] and r["id"] in ref and r["docs"] != ref[r["id"]]:
                r["check_ok"] = False
                bad.append(r["id"])
    return bad


def end_to_end(passes, setups) -> tuple:
    """The end-to-end metrics, times at the reference host speed; the
    notes give the measured figures next to them."""
    records = [r for p in passes for r in p["records"]]
    ms = [r["ms"] for r in records]
    measured_ms = [r["measured_ms"] for r in records]
    timed = sum(p["timed_s"] for p in passes)
    measured = sum(p["measured_timed_s"] for p in passes)
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": len(records) / timed,
        "op_p50_ms": percentile(ms, 50),
        "op_p95_ms": percentile(ms, 95),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; measured "
                   f"{statistics.median(m for _, m in setups):.4f} s",
        "ops_per_s": f"{len(records)} ops / {timed:.3f} s timed; measured "
                     f"{len(records) / measured:.4g} 1/s, host at "
                     f"{timed / measured:.3f}x reference speed",
        "op_p50_ms": f"{len(ms)} samples; measured "
                     f"{percentile(measured_ms, 50):.4g} ms",
        "op_p95_ms": f"{len(ms)} samples, "
                     f"{sum(v > values['op_p95_ms'] for v in ms)} beyond; "
                     f"measured {percentile(measured_ms, 95):.4g} ms",
        "peak_rss_mb": "VmHWM of the analysing process"
                       + (" (the server)" if passes[0]["server"] else ""),
    }
    return values, notes


def _sum(counts, *keys) -> float:
    return sum(counts.get(k, 0) for k in keys)


def per_layer(passes) -> tuple:
    """Layer metrics of the traced pass ``passes[1]``; ratio bases noted."""
    base, traced = passes
    spans = traced["spans"]
    counts = traced["counts"]
    server = traced["server"]
    c = dict(counts)
    if server:
        # The server folds each request's pipeline counters in under
        # ``pipeline.``; its own counters (``analyze.*``) stay as they are.
        for key, value in server["metrics"]["counters"].items():
            c[key.removeprefix("pipeline.")] = value

    def busy(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    edge_lookups = c.get("analysis_cache.edge_lookups", 0)
    intra_lookups = c.get("analysis_cache.intra_lookups", 0)
    prover = _sum(c, "prover.cache_hits", "prover.proved", "prover.disproved",
                  "prover.fallback", "prover.timeouts")
    compiles = _sum(c, "compile.compiled", "compile.reused")
    memo_lookups = _sum(c, "term_memo.component_hits",
                        "term_memo.component_misses", "term_memo.term_hits",
                        "term_memo.term_misses")
    plans = _sum(c, "plan.compiled", "plan.installed")
    session_edges = session_reused = 0
    if any(s["name"] == "session.solve" for s in spans):
        # Every session solve of the traced pass goes through the stage
        # functions, so its edge lookups are the pass's edge lookups.
        session_edges = edge_lookups
        session_reused = edge_lookups - c.get("analysis_cache.edge_misses", 0)
    client_p50 = percentile([r["measured_ms"] for r in traced["records"]], 50)
    if server:
        metrics = server["metrics"]
        cache = metrics["result_cache"]
        requests = len(traced["records"])
        server_p50 = metrics["latency"]["p50_ms"]
        service = {
            "service.requests": requests,
            "service.result_cache_hit_ratio": ratio(
                cache["hits"], cache["hits"] + cache["misses"]),
            "service.coalesced": metrics["coalesce"]["coalesced_hits"],
            "service.rejected": c.get("analyze.rejected_busy", 0),
            "service.server_p50_ms": server_p50,
            "service.overhead_ms": client_p50 - server_p50,
        }
        cache_base = cache["hits"] + cache["misses"]
    else:
        service = {k: 0 for k, _ in PER_LAYER if k.startswith("service.")}
        cache_base = 0
    # Spans are measured time, so coverage compares them with measured
    # op time; the overhead compares the two passes at reference speed,
    # which takes the host's drift between them out.
    measured_ms = sum(r["measured_ms"] for r in traced["records"])
    untraced_ms = sum(r["ms"] for r in base["records"])
    traced_ms = sum(r["ms"] for r in traced["records"])
    own = self_times(spans)
    covered_s = sum(v for k, v in own.items() if k != "op")
    values = {
        "ir.busy_s": busy("ir"),
        "ir.programs": c.get("ir.programs", 0),
        "locality.busy_s": busy("locality"),
        "locality.edges": edge_lookups,
        "locality.edge_cache_hit_ratio": ratio(
            edge_lookups - c.get("analysis_cache.edge_misses", 0),
            edge_lookups),
        "locality.intra_lookups": intra_lookups,
        "locality.intra_cache_hit_ratio": ratio(
            intra_lookups - c.get("analysis_cache.intra_misses", 0),
            intra_lookups),
        "descriptors.accesses": c.get("descriptors.accesses", 0),
        "symbolic.prover_queries": prover,
        "symbolic.prover_cache_hit_ratio": ratio(
            c.get("prover.cache_hits", 0), prover),
        "symbolic.compile_lookups": compiles,
        "symbolic.compile_reuse_ratio": ratio(
            c.get("compile.reused", 0), compiles),
        "symbolic.refuted": c.get("refute.refuted", 0),
        "distribution.busy_s": busy("distribution"),
        "distribution.ilp_candidates": c.get("ilp.candidates", 0),
        "distribution.ilp_components": c.get("ilp.components", 0),
        "distribution.term_memo_lookups": memo_lookups,
        "distribution.term_memo_hit_ratio": ratio(
            _sum(c, "term_memo.component_hits", "term_memo.term_hits"),
            memo_lookups),
        "dsm.busy_s": busy("dsm"),
        "dsm.accesses": _sum(c, "dsm.local", "dsm.remote"),
        "dsm.enumerated_phases": _sum(c, "dsm.fast_path.wide",
                                      "dsm.fast_path.legacy",
                                      "dsm.fast_path.interp"),
        "dsm.symbolic_fallbacks": c.get("dsm.symbolic.fallback", 0),
        "document.busy_s": busy("document"),
        "document.bytes": c.get("document.bytes", 0),
        "plan.compiled": c.get("plan.compiled", 0),
        "plan.installed": c.get("plan.installed", 0),
        "plan.install_ratio": ratio(c.get("plan.installed", 0), plans),
        **service,
        "session.edit_busy_s": busy("session.edit"),
        "session.solve_busy_s": busy("session.solve", "session.sweep"),
        "session.edge_lookups": session_edges,
        "session.edges_reused_ratio": ratio(session_reused, session_edges),
        "workload.repeat_share": traced["inputs"]["repeat_share"],
        "workload.distinct_programs": traced["inputs"]["distinct_programs"],
        "trace.layer_coverage": ratio(covered_s * 1000.0, measured_ms),
        "trace.overhead": ratio(traced_ms, untraced_ms) - 1.0,
    }
    notes = {
        "locality.edge_cache_hit_ratio": f"of {edge_lookups} edge lookups",
        "locality.intra_cache_hit_ratio": f"of {intra_lookups} lookups",
        "symbolic.prover_cache_hit_ratio": f"of {prover} prover queries",
        "symbolic.compile_reuse_ratio": f"of {compiles} compile lookups",
        "distribution.term_memo_hit_ratio": f"of {memo_lookups} lookups",
        "plan.install_ratio": f"of {plans} plan lookups",
        "service.result_cache_hit_ratio": f"of {cache_base} lookups",
        "session.edges_reused_ratio": f"of {session_edges} edge lookups",
        "trace.layer_coverage": f"{covered_s:.3f} s of layer self time / "
                                f"{measured_ms / 1000.0:.3f} s of traced ops",
        "trace.overhead": f"{traced_ms / 1000.0:.3f} s traced / "
                          f"{untraced_ms / 1000.0:.3f} s untraced, at "
                          f"reference speed",
    }
    return values, notes


def run(args, root: str) -> dict:
    runner = Runner(args, root)
    passes = runner.passes()
    mismatched = cross_pass_mismatches(passes)
    if args.trace:
        values, notes = per_layer(passes)
        units = dict(PER_LAYER)
        path = os.path.join(root, OUT_DIR,
                            f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": passes[1]["spans"]}, fh)
        print(f"spans: {os.path.relpath(path, root)} "
              f"({len(passes[1]['spans'])} spans)")
    else:
        values, notes = end_to_end(passes, runner.setup_samples(passes))
        units = dict(END_TO_END)

    records = [r for p in passes for r in p["records"]]
    attempted = len(records)
    failed = sum(1 for r in records
                 if not r["ok"] or r.get("check_ok") is False)
    tasks = sum(p["checks"]["tasks"] for p in passes)
    failures = [f for p in passes for f in p["checks"]["failures"]]
    check_s = sum(p["checks"]["seconds"] for p in passes)
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, {len(passes)} "
          f"pass{'es' if len(passes) > 1 else ''})")
    print("inputs: " + json.dumps(passes[0]["inputs"], sort_keys=True))
    print(f"checks: {tasks} reference checks, {len(failures)} failed in "
          f"{check_s:.1f} s; {len(mismatched)} ops differ between passes")
    for failure in failures[:10]:
        print(f"  FAILED {failure['op']} [{failure['check']}]: "
              f"{failure['detail']}")
    for r in records:
        if not r["ok"]:
            print(f"  ERROR {r['id']}: {r['error']}")
            break
    for name, value in values.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {value:14.6g} {units[name]:6s} {note}")
    print(f"  {'failed_ratio':34s} {ratio(failed, attempted):14.6g} "
          f"{'ratio':6s} {failed} of {attempted} ops")
    return {
        "correct": failed == 0 and tasks > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the running worker is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="a few ops per workload (the benchmark's "
                        "own tests)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/repro/__init__.py", "corpus/generated"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the root of a "
                  f"repro checkout", file=sys.stderr)
            return 2
    ensure_out_dir(root)
    try:
        result = run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
