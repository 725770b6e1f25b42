"""Output checks against independent references, run after the timed phase.

Each task rebuilds its program in a fresh check process and compares
the timed run's output with a reference computed there:

* ``analysis`` — a serial in-process ``analyze()`` gives the reference
  document (the timed document must match it byte for byte) and, unless
  the task says otherwise, the brute-force LCG oracle validates that
  result;
* ``session_point`` — ``analyze()`` at one session parameter point
  (``execute=False``, the point's machine and chunk bounds) gives the
  reference for a session answer; where it fails, the session must
  have reported the point infeasible with the same error text;
* ``lcg`` — the LCG oracle on its own, for bindings the session visited;
* ``exec`` — ``analyze()`` gives the reference document and the
  execution-tier oracle re-executes its plan under both the enumerating
  and the symbolic DSM tier, which must agree count for count.

Tasks run in a two-process ``spawn`` pool: they are independent and
outside the timed phase, and the host has two cores.  The worker runs
them in chunks between slices of the timed ops, which spreads each timed
phase over the whole run, so that slow spells of a shared host weigh
less on any one run.
"""

from __future__ import annotations

import hashlib
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import get_context

from repro import AnalysisOptions, analyze
from repro.check.exec_oracle import check_exec_tier
from repro.check.lcg_oracle import check_lcg
from repro.document import dumps_canonical
from repro.options import format_chunk_bounds

from programs import label, materialize

CHECK_PROCESSES = 2


def sha_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def infeasible(error) -> str:
    """The answer for a parameter point no relaxation makes feasible."""
    return f"infeasible: {error}"


def _verdict(report) -> dict:
    return {"ok": report.ok,
            "detail": "; ".join(str(m) for m in report.mismatches[:3])}


def _analysis(root, spec, env, H, oracle=True) -> dict:
    program, back = materialize(spec, root)
    result = analyze(program, env=env, H=H, back_edges=back)
    sha = sha_of(dumps_canonical(result.to_document()))
    if not oracle:
        return {"sha": sha, "ok": True, "detail": ""}
    report = check_lcg(program, env, H, back_edges=back,
                       program_name=label(spec, env, H), result=result)
    return {"sha": sha, **_verdict(report)}


def _session_point(root, spec, env, H, alpha, beta, bounds) -> dict:
    program, back = materialize(spec, root)
    options = AnalysisOptions(
        machine_alpha=alpha,
        machine_beta=beta,
        chunk_bounds=format_chunk_bounds(bounds) if bounds else None,
    )
    try:
        result = analyze(program, env=env, H=H, back_edges=back,
                         execute=False, options=options)
    except (ValueError, RuntimeError) as exc:
        # The session's answer must be the same error, word for word.
        return {"sha": infeasible(exc), "ok": True, "detail": ""}
    return {"sha": sha_of(dumps_canonical(result.to_document())),
            "ok": True, "detail": ""}


def _lcg(root, spec, env, H) -> dict:
    program, back = materialize(spec, root)
    report = check_lcg(program, env, H, back_edges=back,
                       program_name=label(spec, env, H))
    return {"sha": None, **_verdict(report)}


def _exec(root, spec, env, H) -> dict:
    program, back = materialize(spec, root)
    result = analyze(program, env=env, H=H, back_edges=back)
    sha = sha_of(dumps_canonical(result.to_document()))
    report = check_exec_tier(program, env, H, back_edges=back,
                             program_name=label(spec, env, H),
                             result=result)
    return {"sha": sha, **_verdict(report)}


_KINDS = {"analysis": _analysis, "session_point": _session_point,
          "lcg": _lcg, "exec": _exec}


def run_task(task) -> dict:
    """One check; a crash is reported as a failed check, not raised."""
    kind, root, *args = task
    try:
        return _KINDS[kind](root, *args)
    except Exception:  # a crashing check is a failed output, keep going
        return {"sha": None, "ok": False,
                "detail": traceback.format_exc(limit=3)}


@contextmanager
def check_pool():
    """A two-process pool; yields ``run(tasks) -> results in order``."""
    with ProcessPoolExecutor(max_workers=CHECK_PROCESSES,
                             mp_context=get_context("spawn")) as pool:
        yield lambda tasks: list(pool.map(run_task, tasks, chunksize=1))
