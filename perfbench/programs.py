"""Seeded workload inputs: which programs, bindings and requests a run uses.

A program is named by a *spec*: ``("code", name)`` for a bundled code
(built with its registered builder and back edges) or ``("fixture",
filename)`` for a committed ``corpus/generated`` file (parsed from
source, no back edges).  Everything a workload generates is a plain,
picklable value derived from the seed alone, so the same seed gives the
same inputs in every process that asks.
"""

from __future__ import annotations

import functools
import itertools
import random

from repro.codes import ALL_CODES, scaled_env
from repro.fuzz.corpus import corpus_dir, load_corpus
from repro.ir import validate_program
from repro.ir.parser import parse_and_lower

@functools.cache
def fixtures(root: str) -> dict:
    """Every committed fixture by filename (loaded once per process)."""
    return {fx.name: fx for fx in load_corpus(corpus_dir(root))}


def label(spec, env, H) -> str:
    binding = ",".join(f"{k}={v}" for k, v in sorted(env.items()))
    return f"{spec[0]}:{spec[1]}[{binding}]@H={H}"


def materialize(spec, root: str):
    """``(program, back_edges)`` for a spec — a fresh IR every call."""
    kind, name = spec
    if kind == "code":
        builder, _, back = ALL_CODES[name]
        return builder(), list(back)
    return parse_and_lower(fixtures(root)[name].source), []


def default_env(spec, H: int, root: str) -> dict:
    """The binding the corpus is analysed under at ``H``."""
    kind, name = spec
    if kind == "code":
        return scaled_env(name, ALL_CODES[name][1], H)
    return dict(fixtures(root)[name].env)


def corpus_specs(root: str, short: bool) -> list:
    codes = sorted(ALL_CODES)
    names = sorted(fixtures(root))
    if short:
        codes, names = codes[:3], names[:3]
    return [("code", c) for c in codes] + [("fixture", n) for n in names]


# -- corpus_batch -------------------------------------------------------------

CORPUS_H = (16, 64)


def corpus_batch_items(seed: int, pass_index: int, root: str, short: bool):
    """Every (program, H) pair once: the programs in a seeded order per
    cold pass, each at H=16 and then at H=64.

    Keeping a program's two machine sizes together fixes which of the
    two pays for the program's first analysis (the H=16 one), so the
    order changes how much one program's analysis warms the next, not
    which op of a program is the heavy one.
    """
    specs = corpus_specs(root, short)
    random.Random(f"corpus_batch:{seed}:{pass_index}").shuffle(specs)
    return [(spec, default_env(spec, H, root), H)
            for spec in specs for H in CORPUS_H]


# -- serve_zipf ---------------------------------------------------------------

SERVE_CODE_H = (8, 16, 32, 64)
SERVE_FIXTURE_H = (16, 64)
#: Zipf exponent of request popularity.  Assumed: no traffic of this
#: service has been recorded.  0.8 lies in the range Breslau et al.
#: measured on web proxy traces ("Web Caching and Zipf-like
#: Distributions", INFOCOM 1999: 0.64-0.83).
ZIPF_S = 0.8


def servable(spec, root: str) -> bool:
    """Whether ``repro serve`` accepts the program: the service answers
    400 to a program with ``validate_program`` errors (some generated
    fixtures have loops that are empty for some outer iterations)."""
    program, _ = materialize(spec, root)
    return not any(d.severity == "error" for d in validate_program(program))


def serve_keys(root: str, short: bool) -> list:
    keys = []
    for spec in corpus_specs(root, short):
        if not servable(spec, root):
            continue
        hs = SERVE_CODE_H if spec[0] == "code" else SERVE_FIXTURE_H
        if short:
            hs = hs[:2]
        keys.extend((spec, default_env(spec, H, root), H) for H in hs)
    return keys


def serve_zipf_stream(seed: int, n_requests: int, root: str, short: bool):
    """A seeded order of a Zipf-shaped multiset of requests over every key.

    Key ``r`` (1-based popularity rank) appears ``max(1, round(a /
    r**s))`` times, with ``a`` chosen so the total is ``n_requests``.
    The ranks come from one fixed shuffle of the keys and the seed draws
    the order: every key occurs at least once and the hot keys are the
    same, so every run computes the same analyses and serves the same
    documents from cache, and the seed moves only coalescing, eviction
    and queueing — not the total work or the size of a typical answer.
    """
    keys = serve_keys(root, short)
    random.Random("serve_zipf:ranks").shuffle(keys)
    rng = random.Random(f"serve_zipf:{seed}")
    n_requests = max(n_requests, len(keys))

    def counts(a):
        return [max(1, round(a / (r ** ZIPF_S))) for r in
                range(1, len(keys) + 1)]

    lo, hi = 0.0, float(n_requests)
    for _ in range(60):
        mid = (lo + hi) / 2
        if sum(counts(mid)) < n_requests:
            lo = mid
        else:
            hi = mid
    stream = []
    for key, n in zip(keys, counts(hi)):
        stream.extend([key] * n)
    rng.shuffle(stream)
    return stream


# -- whatif_session -----------------------------------------------------------

WHATIF_H = (8, 16)
WHATIF_PINS = (1, 2, 4)
#: The (alpha, beta) grids a session's successive alpha x beta sweeps use.
WHATIF_AB = (((0.5, 1.0), (0.25, 0.5)), ((1.0, 2.0), (0.5, 1.0)),
             ((2.0, 4.0), (1.0, 2.0)), ((0.5, 4.0), (0.25, 2.0)))
#: Op kinds per session; the seed interleaves them across sessions.
#: Assumed, as no record of interactive sessions exists: the two edits
#: that re-bind every edge (H, env) equally often, phase pins and clears
#: a little more often (they touch only the ILP), and 12 sweeps to 20
#: edits, so a session mostly edits and looks after most edits.  32 ops
#: per session make about 10 s of timed work, enough to average out
#: the speed drift of a shared host.
WHATIF_MIX = (("H", 6), ("env", 6), ("phase", 8), ("sweep_ab", 8),
              ("sweep_chunk", 4))


def sweep_points(state, grid) -> list:
    """Each point of a sweep ``grid`` as ``(env, H, alpha, beta,
    bounds)``, overlaid on the session parameters ``state`` (same
    shape), in ``run_sweep``'s row-major order over the sorted keys.
    An empty grid is the one point ``state``."""
    keys = sorted(grid)
    points = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        env, H, alpha, beta, bounds = state
        env, bounds = dict(env), dict(bounds)
        for key, value in zip(keys, combo):
            if key == "H":
                H = value
            elif key == "alpha":
                alpha = value
            elif key == "beta":
                beta = value
            elif key.startswith("chunk:"):
                bounds[key.partition(":")[2]] = (value, value)
            else:
                env[key] = value
        points.append((env, H, alpha, beta, bounds))
    return points


def whatif_envs(name: str) -> tuple:
    """The two bindings an ``env`` edit toggles between."""
    ref = ALL_CODES[name][1]
    return scaled_env(name, ref, 16), scaled_env(name, ref, 32)


def whatif_plan(seed: int, short: bool, phases_of: dict):
    """The seeded op sequence over one session per bundled code.

    Returns ``(sessions, ops)``: ``sessions`` maps code name to its
    initial ``(env, H)``; each op is ``(name, kind, payload, state)``
    where ``state`` is the session's ``(env, H, alpha, beta, bounds)``
    right after an edit, or the state a sweep overlays its grid on.

    The seed sets the order: which session acts next and which kind of
    op it runs.  What the k-th op of a kind in a session does is fixed
    (toggle H or env, pin or clear the next phase, the k-th sweep grid),
    so every seed does the same edits and sweeps, in another order and
    from other session states.  The generator tracks every session's
    parameters so each edit really moves something and the checker knows
    every answer's parameters.
    """
    rng = random.Random(f"whatif_session:{seed}")
    names = sorted(phases_of)
    if short:
        names = names[:3]
    sessions, state = {}, {}
    for name in names:
        env_a, _ = whatif_envs(name)
        sessions[name] = (dict(env_a), 16)
        state[name] = {"env": 0, "H": 16, "alpha": None, "beta": None,
                       "bounds": {}, "done": {}}
    slots = [
        (name, kind)
        for name in names
        for kind, n in WHATIF_MIX
        for _ in range(1 if short else n)
    ]
    rng.shuffle(slots)
    ops = []
    for name, kind in slots:
        st = state[name]
        envs = whatif_envs(name)
        if kind == "env" and envs[0] == envs[1]:
            kind = "H"
        k = st["done"][kind] = st["done"].get(kind, -1) + 1
        phases = phases_of[name]
        if kind == "H":
            st["H"] = WHATIF_H[1 - WHATIF_H.index(st["H"])]
            payload = [{"op": "set_param", "key": "H", "value": st["H"]}]
        elif kind == "env":
            st["env"] = 1 - st["env"]
            target = envs[st["env"]]
            payload = [
                {"op": "set_param", "key": key, "value": v}
                for key, v in sorted(target.items())
                if envs[0][key] != envs[1][key]
            ]
        elif kind == "phase":
            phase = phases[k % len(phases)]
            if phase in st["bounds"]:
                del st["bounds"][phase]
                payload = [{"op": "edit_phase", "phase": phase,
                            "clear": True}]
            else:
                pin = WHATIF_PINS[k % len(WHATIF_PINS)]
                st["bounds"][phase] = (pin, pin)
                payload = [{"op": "edit_phase", "phase": phase,
                            "chunk": pin}]
        elif kind == "sweep_ab":
            alpha, beta = WHATIF_AB[k % len(WHATIF_AB)]
            payload = {"alpha": list(alpha), "beta": list(beta)}
        else:
            payload = {f"chunk:{phases[k % len(phases)]}": list(WHATIF_PINS)}
        snapshot = (dict(envs[st["env"]]), st["H"], st["alpha"],
                    st["beta"], dict(st["bounds"]))
        ops.append((name, "edit" if kind in ("H", "env", "phase")
                    else "sweep", payload, snapshot))
    return sessions, ops


# -- exec_heavy ---------------------------------------------------------------

EXEC_H = 64


def _pow2(**exps) -> dict:
    env = {}
    for upper, exp in exps.items():
        env[upper] = 2 ** exp
        env[upper.lower()] = exp
    return env


def exec_heavy_items(seed: int, short: bool):
    """Seeded large bindings of the seven original codes at H=64.

    Each code has a fixed ladder of sizes (the rungs); the seed jitters
    the sizes of the codes whose extents need not be powers of two and
    shuffles the order.  Every run therefore executes the same amount of
    simulated work up to the jitter, and no binding repeats in a run.
    """
    rng = random.Random(f"exec_heavy:{seed}")
    rungs = range(2 if short else 8)
    items = []
    for i in rungs:
        p, q = [(6, 6), (6, 7), (7, 6), (7, 7), (6, 8), (8, 6), (7, 8),
                (8, 7)][i]
        items.append((("code", "tfft2"), _pow2(P=p, Q=q)))
        items.append((("code", "mgrid"), _pow2(N=10 + i)))
        for name in ("jacobi", "redblack"):
            n = 32768 + 12288 * i + 128 * rng.randrange(48)
            items.append((("code", name), {"N": n}))
        for name in ("swim", "adi", "tomcatv"):
            side = 192 + 32 * i
            items.append((("code", name),
                          {"M": side + 8 * rng.randrange(4),
                           "N": side + 8 * rng.randrange(4)}))
    rng.shuffle(items)
    return [(spec, env, EXEC_H) for spec, env in items]
