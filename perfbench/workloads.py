"""The timed operations of each workload, untraced and traced.

An untraced op calls the system the way a user does: ``analyze()``, a
``Session`` edit or sweep, or an HTTP request to ``repro serve``.  A
traced op drives the same work stage by stage through the public stage
functions and records a span around each layer call; its documents must
be byte-identical to the untraced op's, which ``run.py`` verifies.

Every op produces a record ``{"id", "ms", "ok", "docs", "error"}``;
``docs`` holds the SHA-256 of each canonical result document the op
returned, which the checks compare with independent references.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

from repro import AnalysisResult, Collector, analyze
from repro.distribution import (
    extract_constraints, objective_breakdown, pareto_front,
    solve_enumerative,
)
from repro.document import dumps_canonical
from repro.dsm import execute_with_plan
from repro.locality import build_lcg
from repro.service.client import ServiceClient, ServiceError
from repro.session import (
    Session, SessionError, apply_edit, apply_edits, run_sweep,
)
from repro.symbolic.compile import compile_stats

from checks import infeasible, sha_of
from common import OUT_DIR, vm_hwm_mb
from programs import fixtures, label, materialize, sweep_points


def add_counts(totals: dict, counts: dict) -> None:
    for key, value in counts.items():
        totals[key] = totals.get(key, 0) + value


def _timed(records, op_id, fn):
    """Run one op, timing it; an exception is a failed op.

    ``fn`` returns the hashes of the documents the op answered with.
    """
    t0 = time.perf_counter()
    try:
        docs = fn()
        error = None
    except Exception as exc:  # any failure of the system under test
        docs, error = [], f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1000.0
    records.append({"id": op_id, "ms": ms, "ok": error is None,
                    "docs": docs, "error": error})


def compile_delta(before: dict) -> dict:
    """Symbolic compile-memo misses and hits since ``before``."""
    after = compile_stats()
    return {"compile.compiled": after["misses"] - before["misses"],
            "compile.reused": after["hits"] - before["hits"]}


# -- one analysis, whole or stage by stage -----------------------------------


def analyze_op(spec, env, H, root) -> list:
    program, back = materialize(spec, root)
    result = analyze(program, env=env, H=H, back_edges=back)
    return [sha_of(dumps_canonical(result.to_document()))]


def staged_op(spec, env, H, root, spans, op, counts) -> list:
    """``analyze()``'s default path, one layer call per span."""
    with spans.span("ir", op):
        program, back = materialize(spec, root)
    obs = Collector(metrics=True)
    compile_before = compile_stats()
    ctx = program.context
    ctx.obs = obs
    try:
        with spans.span("locality", op):
            lcg = build_lcg(program, env=env, H_value=H, back_edges=back)
        with spans.span("distribution", op):
            constraints = extract_constraints(lcg)
            plan = solve_enumerative(constraints, env, H=H)
        with spans.span("dsm", op):
            report = execute_with_plan(program, lcg, plan, env, H)
    finally:
        ctx.obs = None
    compiles = compile_delta(compile_before)
    with spans.span("document", op):
        text = dumps_canonical(AnalysisResult(
            program=program, lcg=lcg, constraints=constraints, plan=plan,
            report=report, env=dict(env), H=int(H),
        ).to_document())
    add_counts(counts, obs.counters)
    add_counts(counts, compiles)
    add_counts(counts, {
        "ir.programs": 1,
        "descriptors.accesses": sum(
            len(phase.accesses()) for phase in program.phases
        ),
        "document.bytes": len(text),
    })
    return [sha_of(text)]


def analysis_pass(items, ops, root, traced, spans, counts) -> list:
    """``corpus_batch`` and ``exec_heavy``: one analysis per item."""
    records = []
    for i in ops:
        spec, env, H = items[i]
        op_id = label(spec, env, H)
        if traced:
            with spans.span("op", i):
                _timed(records, op_id, lambda: staged_op(
                    spec, env, H, root, spans, i, counts))
        else:
            _timed(records, op_id, lambda: analyze_op(spec, env, H, root))
    return records


# -- serve_zipf ---------------------------------------------------------------

_LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")
BOOT_TIMEOUT_S = 60.0


class Server:
    """A ``python -m repro serve`` child process on an ephemeral port,
    pinned to ``cpu``: the CPU the pass's timed work and host-speed
    probes run on."""

    def __init__(self, root: str, tag: str, cpu: int):
        self.log_path = os.path.join(root, OUT_DIR, f"server-{tag}.log")
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.started = time.monotonic()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host",
                 "127.0.0.1", "--port", "0", "--threads", "2"],
                cwd=root, env=env, stdout=log, stderr=log,
            )
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.port = self._wait_port()
            self._wait_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - self.started

    def _wait_port(self) -> int:
        deadline = self.started + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: see {self.log_path}")
            with open(self.log_path, "r", encoding="utf-8") as fh:
                match = _LISTENING.search(fh.read())
            if match:
                return int(match.group(1))
            time.sleep(0.005)
        raise RuntimeError("server did not start listening in time")

    def _wait_health(self) -> None:
        client = ServiceClient(port=self.port, retries=0, timeout=5.0)
        deadline = self.started + BOOT_TIMEOUT_S
        while True:
            try:
                client.health()
                return
            except (ServiceError, OSError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


#: Closed-loop client threads of ``serve_zipf``.
SERVE_CLIENTS = 2


def serve_pass(stream, ops, root, traced, spans, counts, server) -> list:
    """Closed loop: each of ``SERVE_CLIENTS`` threads sends its next
    request only after the previous answer arrived.

    The traced pass times the request as one ``service`` span.  The
    server does not report how long it spends serialising, so there is
    no ``document`` span here; ``document.bytes`` counts the canonical
    documents served (the server's response bodies, re-serialised
    byte for byte).
    """
    records = {}
    lock = threading.Lock()
    cursor = iter(ops)

    def request(client, spec, env, H):
        kind, name = spec
        return client.analyze(
            code=name if kind == "code" else None,
            source=None if kind == "code" else fixtures(root)[name].source,
            env=env, H=H,
        )

    def loop():
        client = ServiceClient(port=server.port, retries=0, timeout=120.0)
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            spec, env, H = stream[i]
            out = []
            if traced:
                def op():
                    with spans.span("service", i):
                        doc = request(client, spec, env, H)
                    text = dumps_canonical(doc)
                    with lock:
                        add_counts(counts, {"document.bytes": len(text)})
                    return [sha_of(text)]

                with spans.span("op", i):
                    _timed(out, label(spec, env, H), op)
            else:
                _timed(out, label(spec, env, H), lambda: [sha_of(
                    dumps_canonical(request(client, spec, env, H)))])
            records[i] = out[0]

    threads = [threading.Thread(target=loop) for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [records[i] for i in ops]


def server_snapshot(server) -> dict:
    client = ServiceClient(port=server.port, retries=0, timeout=30.0)
    return {"metrics": client.metrics(), "cache_stats": client.cache_stats(),
            "rss_mb": vm_hwm_mb(server.proc.pid)}


# -- whatif_session -----------------------------------------------------------


def make_sessions(initial: dict, root: str) -> dict:
    sessions = {}
    for name, (env, H) in initial.items():
        program, back = materialize(("code", name), root)
        sessions[name] = Session(program, env, H, back_edges=back,
                                 execute=False)
    return sessions


def staged_solve(session, point, spans, op, counts) -> tuple:
    """One session solve at ``point`` = ``(env, H, alpha, beta, bounds)``
    through the stage functions and the session's warm cache and memo,
    as ``Session.solve_at`` does through ``analyze()``.

    Returns ``(answer, constraints, plan)``; ``answer`` is the document
    hash, or ``infeasible: <error>`` where no relaxation makes the point
    feasible.
    """
    env, H, alpha, beta, bounds = point
    program = session.program
    obs = Collector(metrics=True)
    compile_before = compile_stats()
    program.context.obs = obs
    try:
        with spans.span("locality", op):
            lcg = build_lcg(program, env=env, H_value=H,
                            back_edges=session.back_edges,
                            cache=session.cache)
        with spans.span("distribution", op):
            constraints = extract_constraints(lcg)
            plan = solve_enumerative(
                constraints, env, H=H,
                machine=session.machine_at(alpha, beta),
                chunk_bounds=dict(bounds) or None,
                memo=session.memo,
            )
    except INFEASIBLE as exc:
        return infeasible(exc), None, None
    finally:
        program.context.obs = None
        add_counts(counts, obs.counters)
        add_counts(counts, compile_delta(compile_before))
    with spans.span("document", op):
        doc = AnalysisResult(
            program=program, lcg=lcg, constraints=constraints, plan=plan,
            report=None, env=dict(env), H=int(H),
        ).to_document()
        text = dumps_canonical(doc)
    add_counts(counts, {"document.bytes": len(text)})
    return sha_of(text), constraints, plan


#: What the Eq. 7 solver raises for a parameter point no relaxation
#: makes feasible.  That is an answer, not a failure: ``run_sweep``
#: reports such points with their error, and the checks demand that a
#: fresh ``analyze()`` at the same point fails with the same error.  A
#: ``SessionError`` (a rejected edit) is never such an answer.
INFEASIBLE = (ValueError, RuntimeError)


def whatif_pass(sessions, ops, indices, traced, spans, counts) -> list:
    """Edits and sweeps in the seeded order; a sweep answers one entry
    per grid point, an edit one (a document hash, or the error of an
    infeasible point)."""
    records = []
    for i in indices:
        name, kind, payload, _state = ops[i]
        session = sessions[name]

        def edit():
            try:
                return [apply_edits(session, payload)["sha256"]]
            except SessionError:
                raise
            except INFEASIBLE as exc:
                return [infeasible(exc)]

        def sweep():
            return [p.get("sha256") or infeasible(p["error"])
                    for p in run_sweep(session, payload)["points"]]

        def traced_edit():
            for edit_op in payload:
                with spans.span("session.edit", i):
                    apply_edit(session, edit_op)
            session.revision += 1
            point = (dict(session.env), session.H, session.alpha,
                     session.beta, dict(session.bounds))
            with spans.span("session.solve", i):
                return [staged_solve(session, point, spans, i, counts)[0]]

        def traced_sweep():
            """``run_sweep`` point by point: each solve through the
            stage functions, then the per-point objective breakdown and
            the Pareto front."""
            answers, axes = [], []
            state = (session.env, session.H, session.alpha, session.beta,
                     session.bounds)
            for point in sweep_points(state, payload):
                with spans.span("session.solve", i):
                    answer, constraints, plan = staged_solve(
                        session, point, spans, i, counts)
                answers.append(answer)
                if plan is None:
                    continue
                env, H, alpha, beta, _ = point
                with spans.span("session.sweep", i):
                    split = objective_breakdown(
                        constraints, plan, env, H,
                        machine=session.machine_at(alpha, beta))
                axes.append((split["communication"], split["imbalance"]))
            with spans.span("session.sweep", i):
                pareto_front(axes)
            return answers

        if traced:
            fn = traced_edit if kind == "edit" else traced_sweep
            with spans.span("op", i):
                _timed(records, str(i), fn)
        else:
            _timed(records, str(i), edit if kind == "edit" else sweep)
    return records
