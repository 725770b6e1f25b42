"""The integer programming model and its solvers (§4.3a).

The paper feeds Table-2 style systems to GAMS; we provide two
independent solvers and cross-check them in the test suite:

* :func:`solve_enumerative` — exact.  Affine union-find over the
  equality constraints (locality + affinity) collapses each connected
  component of variables onto a single integer parameter ``t``
  (``p_v = a_v * t + b_v``); the box/storage constraints clip ``t`` to a
  finite range; the (nonlinear, ceil-laden) objective of Eq. 7 is then
  evaluated exactly for every feasible ``t`` per component.  This
  mirrors the mathematical structure the paper exploits — chains share
  one degree of freedom.
* :func:`solve_milp` — the same discretised problem expressed as a 0/1
  selection program and handed to ``scipy.optimize.milp`` (the GAMS
  stand-in).  Used as a cross-check and as the extension point for
  richer linear models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional

import numpy as np

from ..obs import obs_span
from ..symbolic import Expr
from .constraints import ConstraintSystem
from .costs import MachineCosts, T3D, communication_cost, imbalance_cost

__all__ = [
    "DistributionPlan",
    "TermMemo",
    "VariableComponent",
    "objective_breakdown",
    "reduce_system",
    "solve_enumerative",
    "solve_milp",
]


class _Evaluator:
    """Exact evaluation of constraint expressions under one env binding.

    One per solve: the ``Fraction`` env is built once, and the values
    are memoised for the solve's lifetime, because the relaxation loop
    re-reduces the same system and every component reads the same trip
    counts and halo widths.
    """

    __slots__ = ("fenv", "env", "values")

    def __init__(self, env: Mapping[str, int]):
        self.env = env
        self.fenv = {k: Fraction(v) for k, v in env.items()}
        self.values: dict = {}

    def __call__(self, expr: Expr) -> Fraction:
        value = self.values.get(expr)
        if value is None:
            value = self.values[expr] = expr.evalf(self.fenv)
        return value

    def int(self, expr: Expr) -> int:
        v = self(expr)
        if v.denominator != 1:
            raise ValueError(f"{expr} not integral under {self.env}")
        return int(v)


class TermMemo:
    """Cross-solve memo for Eq. 7 terms (sessions, what-if sweeps).

    Two levels, both keyed on plain evaluated integers/floats so hits
    return the *identical* floats a cold evaluation produces (the
    accumulation order in :func:`_argmin` is unchanged, so a memoized
    solve is bit-identical to a fresh one):

    * ``component`` — a whole component's argmin: structural key
      (members, candidate ``t`` range, trips, overlaps, work, ``H``,
      machine) -> ``(best_t, best_cost)``.  A sweep that edits one
      phase re-enumerates only the touched component; every other
      component is answered here without evaluating a single candidate.
    * ``terms`` — one variable's ``(imbalance, frontier-comm)`` pair,
      shared between components and across grid points that agree on
      the per-variable inputs.
    """

    __slots__ = (
        "component",
        "terms",
        "component_hits",
        "component_misses",
        "term_hits",
        "term_misses",
    )

    def __init__(self):
        self.component: dict = {}
        self.terms: dict = {}
        self.component_hits = 0
        self.component_misses = 0
        self.term_hits = 0
        self.term_misses = 0

    def stats(self) -> dict:
        return {
            "component_entries": len(self.component),
            "term_entries": len(self.terms),
            "component_hits": self.component_hits,
            "component_misses": self.component_misses,
            "term_hits": self.term_hits,
            "term_misses": self.term_misses,
        }

    def clear(self) -> None:
        self.component.clear()
        self.terms.clear()
        self.component_hits = self.component_misses = 0
        self.term_hits = self.term_misses = 0


def _norm(A: int, B: int, D: int) -> tuple:
    """The canonical integer row of ``p = (A*t + B) / D``: ``D > 0`` and
    ``gcd(A, B, D) == 1``, so equal relations have equal rows."""
    if D == 0:
        raise ZeroDivisionError(f"affine relation ({A}*t + {B}) / 0")
    g = gcd(A, B, D)
    if D < 0:
        g = -g
    return A // g, B // g, D // g


def _affine(a: Fraction, b: Fraction, d: Fraction) -> tuple:
    """``p = (a*t + b) / d`` for rationals as a canonical integer row."""
    L = lcm(a.denominator, b.denominator, d.denominator)
    return _norm(
        a.numerator * (L // a.denominator),
        b.numerator * (L // b.denominator),
        d.numerator * (L // d.denominator),
    )


#: The identity relation ``p = (1*t + 0) / 1``, shared by every root.
_UNIT = (1, 0, 1)


class _AffineUnionFind:
    """Union-find maintaining ``p_v = (A_v * p_root + B_v) / D_v``.

    Relations are canonical integer rows (see :func:`_norm`), composed
    with integer products and one gcd instead of ``Fraction`` arithmetic.
    """

    def __init__(self):
        self.parent: dict[str, str] = {}
        self.rel: dict[str, tuple] = {}  # v -> (A, B, D) wrt parent

    def add(self, v: str) -> None:
        if v not in self.parent:
            self.parent[v] = v
            self.rel[v] = _UNIT

    def find(self, v: str) -> tuple:
        """Return (root, A, B, D) with p_v = (A * p_root + B) / D
        (path-compressed)."""
        parent = self.parent[v]
        if parent == v:
            return (v,) + _UNIT
        root, pa, pb, pd = self.find(parent)
        a, b, d = self.rel[v]
        if parent != root:
            # p_v = (a * p_parent + b) / d
            # p_parent = (pa * p_root + pb) / pd
            a, b, d = _norm(a * pa, a * pb + b * pd, d * pd)
            self.parent[v] = root
            self.rel[v] = (a, b, d)
        return root, a, b, d

    def union(self, u: str, v: str, rel: tuple) -> bool:
        """Impose ``p_u = (A * p_v + B) / D`` for ``rel = (A, B, D)``.
        Returns False on inconsistency."""
        A, B, D = rel
        ru, au, bu, du = self.find(u)
        rv, av, bv, dv = self.find(v)
        # p_u through the relation: (A*av * t + A*bv + B*dv) / (D*dv)
        if ru == rv:
            # (au*t + bu)/du must equal it for all feasible t ->
            # consistent only when coefficients match (else the system
            # pins t to a single value; callers handle via bounds).
            return (
                au * D * dv == A * av * du
                and bu * D * dv == (A * bv + B * dv) * du
            )
        # p_ru = (du * p_u - bu) / au with p_u in terms of p_rv
        self.parent[ru] = rv
        self.rel[ru] = _norm(
            A * av * du, (A * bv + B * dv) * du - bu * D * dv, au * D * dv
        )
        return True


@dataclass
class VariableComponent:
    """One connected set of p-variables sharing the parameter ``t``.

    Each member's relation is a canonical integer row ``(A, B, D)`` with
    ``p = (A*t + B) / D`` (see :func:`_norm`), so integrality at a
    candidate ``t`` is a ``divmod``, not a ``Fraction`` per candidate.
    """

    root: str
    members: dict  # var -> (A, B, D): p = (A*t + B) / D
    t_min: int
    t_max: int
    pinned: Optional[int] = None  # inconsistent union resolved to fixed t
    _ts_cache: Optional[list] = field(default=None, repr=False, compare=False)

    def values_for(self, t: int) -> Optional[dict]:
        """All member p values at parameter ``t`` (None if non-integral)."""
        out = {}
        for var, (A, B, D) in self.members.items():
            p, r = divmod(A * t + B, D)
            if r or p < 1:
                return None
            out[var] = p
        return out

    def feasible_ts(self, limit: int = 100_000) -> list:
        """Every ``t`` in ``[max(t_min, 1), t_max]`` where all members are
        integral and at least 1, ascending.

        Each member contributes a half-line (``p >= 1``) and a residue
        class (``D`` divides ``A*t + B``); the classes are merged by the
        Chinese remainder theorem, so the answer is one arithmetic
        progression, built without testing a single ``t``.
        """
        if self._ts_cache is not None:
            return self._ts_cache
        if self.t_max - self.t_min > limit:
            raise ValueError(
                f"component {self.root}: t range too large "
                f"({self.t_min}..{self.t_max})"
            )
        lo, hi = max(self.t_min, 1), self.t_max
        first, step = 0, 1  # t == first (mod step)
        for A, B, D in self.members.values():
            # (A*t + B) / D >= 1
            if A > 0:
                lo = max(lo, -((B - D) // A))
            elif A < 0:
                hi = min(hi, (B - D) // -A)
            elif B < D:
                hi = lo - 1
            # A*t + B == 0 (mod D)
            g = gcd(A, D)
            if B % g:
                hi = lo - 1
                break
            m = D // g
            if m == 1:
                continue
            r = (-B // g) * pow(A // g, -1, m) % m
            # merge t == first (mod step) with t == r (mod m)
            g = gcd(step, m)
            if (r - first) % g:
                hi = lo - 1
                break
            k = (r - first) // g * pow(step // g, -1, m // g) % (m // g)
            first, step = first + step * k, step // g * m
        start = lo + (first - lo) % step
        self._ts_cache = list(range(start, hi + 1, step))
        return self._ts_cache


@dataclass
class DistributionPlan:
    """Solver output: chunk sizes and objective breakdown.

    ``relaxed_edges`` lists locality (L) edges the solver had to demote
    to communication because no integer chunking satisfied the full
    system — e.g. when a balanced equation forces a chunk past a storage
    bound.  The executor treats them exactly like C edges.

    ``relaxed_storage`` lists symmetric-placement storage constraints
    the solver dropped because even the minimal chunk ``p = 1`` violated
    them (``H`` exceeds the shifted gap Δd or the mirror half-span
    Δr/2): the scheme the constraint protects is unavailable on this
    machine size, so the node falls back to plain chunking and any L
    edge incident on it is demoted alongside.
    """

    chunks: dict  # var name -> p value
    phase_chunks: dict  # phase name -> p value (affinity-merged)
    objective: float
    imbalance: float
    communication: float
    components: list = field(default_factory=list)
    relaxed_edges: list = field(default_factory=list)  # (phase_k, phase_g, array)
    relaxed_storage: list = field(default_factory=list)  # (phase, array, kind)

    def chunk(self, phase: str) -> int:
        return self.phase_chunks[phase]


def reduce_system(
    system: ConstraintSystem,
    env: Mapping[str, int],
    H: int,
    skip_locality: Optional[set] = None,
    chunk_bounds: Optional[Mapping[str, tuple]] = None,
    skip_storage: Optional[set] = None,
) -> list:
    """Collapse equalities into :class:`VariableComponent` boxes.

    ``skip_locality`` holds (phase_k, phase_g, array) triples whose
    locality constraint is ignored (relaxed to communication).
    ``skip_storage`` holds :class:`StorageConstraint` objects to drop —
    a symmetric-placement scheme the machine size makes unavailable.
    ``chunk_bounds`` maps phase names to ``(lo, hi)`` clamps on that
    phase's chunk variables (``lo == hi`` pins the chunk), shrinking
    the per-variable ``[1, ub]`` box before the component t-range is
    derived.
    """
    return _reduce(
        system, _Evaluator(env), H, skip_locality, chunk_bounds, skip_storage
    )


def _reduce(system, ev, H, skip_locality, chunk_bounds, skip_storage) -> list:
    """:func:`reduce_system` under an evaluator shared by one solve."""
    skip_locality = skip_locality or set()
    skip_storage = skip_storage or set()
    uf = _AffineUnionFind()
    for var in system.variables:
        uf.add(var)

    pinned_values: dict[str, int] = {}

    for c in system.affinity:
        uf.union(c.var_a, c.var_b, _UNIT)
    for c in system.locality:
        if (c.edge[0], c.edge[1], c.array) in skip_locality:
            continue
        a_k = ev(c.slope_k)
        a_g = ev(c.slope_g)
        shift = ev(c.shift)
        # a_k p_k = a_g p_g + shift  ->  p_k = (a_g p_g + shift) / a_k
        ok = uf.union(c.var_k, c.var_g, _affine(a_g, shift, a_k))
        if not ok:
            # The component is over-constrained: the two relations pin t.
            root, A, B, D = uf.find(c.var_k)
            # a*t + b = (a_g/a_k) * (a'*t + b') + shift/a_k with (a',b') of var_g
            _, Ag, Bg, Dg = uf.find(c.var_g)
            lhs_a, lhs_b = Fraction(A, D), Fraction(B, D)
            rhs_a = (a_g / a_k) * Fraction(Ag, Dg)
            rhs_b = (a_g / a_k) * Fraction(Bg, Dg) + shift / a_k
            if lhs_a == rhs_a:
                continue  # same relation, fine
            t_star = (rhs_b - lhs_b) / (lhs_a - rhs_a)
            if t_star.denominator == 1 and t_star >= 1:
                pinned_values[root] = int(t_star)
            else:
                pinned_values[root] = -1  # infeasible marker

    # Gather bounds per variable, then per component.
    ub: dict[str, int] = {}
    for c in system.load_balance:
        trip = ev.int(c.trip)
        ub_v = -(-trip // H)
        ub[c.var] = min(ub.get(c.var, 1 << 60), ub_v)
    for c in system.storage:
        if c in skip_storage:
            continue
        dp = ev(c.delta_p)
        limit = ev(c.limit)
        # delta_p * p * H <= limit  ->  p <= limit / (delta_p * H)
        bound = limit / (dp * H)
        ub_v = int(bound) if bound >= 1 else 0
        ub[c.var] = min(ub.get(c.var, 1 << 60), ub_v)

    lb: dict[str, int] = {}
    if chunk_bounds:
        for var, (phase, _array) in system.variables.items():
            clamp = chunk_bounds.get(phase)
            if clamp is None:
                continue
            lo, hi = clamp
            lb[var] = max(1, int(lo))
            ub[var] = min(ub.get(var, 1 << 60), int(hi))

    groups: dict[str, dict] = {}
    for var in system.variables:
        root, A, B, D = uf.find(var)
        groups.setdefault(root, {})[var] = (A, B, D)

    components = []
    for root, members in groups.items():
        t_lo, t_hi = 1, 1 << 60
        for var, (A, B, D) in members.items():
            ub_v = ub.get(var, 1 << 60)
            lb_v = lb.get(var, 1)
            # lb_v <= (A*t + B) / D <= ub_v, with A possibly negative
            if A > 0:
                t_lo = max(t_lo, -((B - lb_v * D) // A))
                t_hi = min(t_hi, (ub_v * D - B) // A)
            elif A < 0:
                t_lo = max(t_lo, -((B - ub_v * D) // A))
                t_hi = min(t_hi, (lb_v * D - B) // A)
            elif not (lb_v * D <= B <= ub_v * D):
                t_hi = 0  # infeasible
        comp = VariableComponent(
            root=root, members=members, t_min=t_lo, t_max=min(t_hi, 1 << 31)
        )
        if root in pinned_values:
            pv = pinned_values[root]
            if pv < 0 or not (t_lo <= pv <= t_hi):
                comp.t_max = 0  # infeasible component
            else:
                comp.t_min = comp.t_max = pv
                comp.pinned = pv
        components.append(comp)
    return components


def _var_inputs(system, var, ev, work, trips):
    """The evaluated per-variable Eq. 7 inputs: (trip, work, halo width).

    ``None`` when the variable has no load-balance constraint (it
    contributes nothing to the objective); ``width`` is ``None`` when
    no overlap constraint exists for the variable.
    """
    lb = trips.get(var)
    if lb is None:
        return None
    trip = ev.int(lb.trip)
    wk = work.get(lb.phase, 1.0)
    overlap = system.overlaps.get(var)
    if overlap is not None:
        try:
            width = ev.int(overlap)
        except (ValueError, KeyError):
            width = 0
    else:
        width = None
    return trip, wk, width


def _var_term(trip, wk, width, p, H, machine, memo=None):
    """One variable's (imbalance, frontier-comm) pair at chunk ``p``.

    The two floats are computed exactly as the inline Eq. 7 evaluation
    always has, so a :class:`TermMemo` hit returns the identical values
    a cold evaluation produces — memoized solves stay bit-identical.
    """
    if memo is not None:
        tkey = (trip, p, H, wk, width, machine.alpha, machine.beta)
        pair = memo.terms.get(tkey)
        if pair is not None:
            memo.term_hits += 1
            return pair
    imb = imbalance_cost(trip, p, H, wk)
    if width is not None:
        blocks = -(-trip // p)
        comm = machine.beta * width * blocks + machine.alpha * min(
            blocks, 2 * H
        )
    else:
        comm = None
    pair = (imb, comm)
    if memo is not None:
        memo.terms[tkey] = pair
        memo.term_misses += 1
    return pair


def _component_cost(system, comp, t, ev, H, machine, work, trips):
    """Eq. 7 objective restricted to one component, at one ``t``.

    D^k — CYCLIC(p) idle-cycle imbalance — plus the p-dependent slice of
    C^kg: frontier/halo traffic, which pays ``beta * Δs`` per block
    boundary (``ceil(trip/p)`` boundaries), so larger chunks trade load
    balance against halo volume exactly as the paper's model does.

    The MILP cross-check prices its choices with this member-by-member
    evaluation; :func:`_argmin` is the enumerative solver's hoisted
    equivalent.  ``None`` when ``t`` makes a member non-integral.
    """
    values = comp.values_for(t)
    if values is None:
        return None
    total = 0.0
    for var, p in values.items():
        inputs = _var_inputs(system, var, ev, work, trips)
        if inputs is None:
            continue
        trip, wk, width = inputs
        imb, comm = _var_term(trip, wk, width, p, H, machine)
        total += imb
        if comm is not None:
            total += comm
    return total


def _argmin(terms, ts, H, machine, memo) -> tuple:
    """``(best_t, best_cost)`` of one component over its candidates.

    ``terms`` holds ``(A, B, D, trip, work, width)`` per member with
    Eq. 7 inputs, in member order, so each candidate's chunk is
    ``(A*t + B) // D`` (exact: every ``t`` in ``ts`` is integral for
    every member).  The per-member pairs are summed in member order,
    imbalance before frontier traffic, exactly as
    :func:`_component_cost` does, so the floats are bit-identical to it;
    the first ``t`` of a tie wins.
    """
    best_t, best_cost = None, None
    for t in ts:
        cost = 0.0
        for A, B, D, trip, wk, width in terms:
            imb, comm = _var_term(
                trip, wk, width, (A * t + B) // D, H, machine, memo
            )
            cost += imb
            if comm is not None:
                cost += comm
        if best_cost is None or cost < best_cost:
            best_t, best_cost = t, cost
    return best_t, best_cost


def solve_enumerative(
    system: ConstraintSystem,
    env: Mapping[str, int],
    H: int,
    machine: MachineCosts = T3D,
    work: Optional[Mapping[str, float]] = None,
    region_sizes: Optional[Mapping[tuple, int]] = None,
    chunk_bounds: Optional[Mapping[str, tuple]] = None,
    memo: Optional[TermMemo] = None,
) -> DistributionPlan:
    """Exact optimisation of Eq. 7 by per-component enumeration.

    ``work`` optionally weights each phase's per-iteration work;
    ``region_sizes`` maps (phase_k, phase_g, array) C edges to moved
    element counts for the communication term (constant per labelling,
    reported in the objective but not steering the argmin).
    ``chunk_bounds`` clamps phases' chunks (see :func:`reduce_system`);
    ``memo`` is a :class:`TermMemo` carried across solves by sessions
    and sweeps — hits skip a component's candidate enumeration entirely
    and are bit-identical to evaluating it.

    When the full system is infeasible, locality constraints are relaxed
    one at a time (greedy, largest-slope-ratio first — the tightest
    coupling is the likeliest culprit) and the affected L edge is
    demoted to communication; relaxations are reported in
    ``DistributionPlan.relaxed_edges``.  When no locality constraint
    remains to drop, a *storage* constraint binding the infeasible
    component is relaxed instead (tightest bound first): a mirror or
    shifted placement whose box excludes even ``p = 1`` simply does not
    exist at this ``H``, and insisting on it is not a property of the
    program.  Dropped schemes are reported in
    ``DistributionPlan.relaxed_storage`` and every L edge incident on
    the affected node is demoted to keep the no-traffic promise sound.
    """
    obs = getattr(system.lcg.program.context, "obs", None)
    work = dict(work or {})
    ev = _Evaluator(env)
    relaxed: set = set()
    relaxed_storage: set = set()
    while True:
        components = _reduce(
            system, ev, H, relaxed, chunk_bounds, relaxed_storage
        )
        infeasible = [c for c in components if not c.feasible_ts()]
        if not infeasible:
            break
        culprit = _pick_relaxation(system, ev, infeasible, relaxed)
        if culprit is not None:
            relaxed.add(culprit)
            if obs is not None:
                obs.count("ilp.relaxations")
            continue
        storage_culprit = _pick_storage_relaxation(
            system, ev, H, infeasible, relaxed_storage
        )
        if storage_culprit is None:
            raise ValueError(
                f"infeasible component rooted at {infeasible[0].root}: no "
                f"locality relaxation restores integer feasibility"
            )
        relaxed_storage.add(storage_culprit)
        node = (storage_culprit.phase, storage_culprit.array)
        for c in system.locality:
            key = (c.edge[0], c.edge[1], c.array)
            if key in relaxed:
                continue
            if (
                system.variables[c.var_k] == node
                or system.variables[c.var_g] == node
            ):
                relaxed.add(key)
        if obs is not None:
            obs.count("ilp.storage_relaxations")

    chunks: dict[str, int] = {}
    imbalance_total = 0.0
    trips = {c.var: c for c in system.load_balance}
    for comp in components:
        if obs is not None:
            obs.count("ilp.components")
        ts = comp.feasible_ts()
        inputs = [
            (var, A, B, D, _var_inputs(system, var, ev, work, trips))
            for var, (A, B, D) in comp.members.items()
        ]
        mkey = None
        if memo is not None:
            # Every input of the argmin: members with their affine
            # relations and evaluated (trip, work, width), the candidate
            # list, H and the machine.  Solves agreeing on it evaluate
            # the identical cost function over the identical candidates.
            mkey = (
                tuple(sorted(inputs)), tuple(ts), H,
                machine.alpha, machine.beta,
            )
            hit = memo.component.get(mkey)
            if hit is not None:
                best_t, best_cost = hit
                memo.component_hits += 1
                if obs is not None:
                    obs.count("ilp.component_memo_hits")
                chunks.update(comp.values_for(best_t))
                imbalance_total += best_cost
                continue
            memo.component_misses += 1
        with obs_span(obs, f"ilp:component:{comp.root}") as sp:
            if obs is not None:
                obs.count("ilp.candidates", len(ts))
            terms = [
                (A, B, D) + x for _, A, B, D, x in inputs if x is not None
            ]
            best_t, best_cost = _argmin(terms, ts, H, machine, memo)
            values = comp.values_for(best_t)
            sp.set(candidates=len(ts), best_t=best_t)
        if memo is not None:
            memo.component[mkey] = (best_t, best_cost)
        chunks.update(values)
        imbalance_total += best_cost

    comm_total = 0.0
    for array in system.lcg.arrays():
        for edge in system.lcg.communication_edges(array):
            size = 0
            if region_sizes:
                size = region_sizes.get((edge.phase_k, edge.phase_g, array), 0)
            overlap = None
            if edge.intra_k.has_overlap and edge.intra_k.symmetry is not None:
                first = edge.intra_k.symmetry.overlap[0][2]
                try:
                    overlap = ev.int(first)
                except (ValueError, KeyError):
                    overlap = None
            comm_total += communication_cost(size, H, overlap, machine)

    phase_chunks: dict[str, int] = {}
    for var, p in chunks.items():
        phase, _ = system.variables[var]
        prev = phase_chunks.get(phase)
        if prev is not None and prev != p:
            raise AssertionError(
                f"affinity violated for phase {phase}: {prev} vs {p}"
            )
        phase_chunks[phase] = p

    return DistributionPlan(
        chunks=chunks,
        phase_chunks=phase_chunks,
        objective=imbalance_total + comm_total,
        imbalance=imbalance_total,
        communication=comm_total,
        components=components,
        relaxed_edges=sorted(relaxed),
        relaxed_storage=sorted(
            (c.phase, c.array, c.kind) for c in relaxed_storage
        ),
    )


def objective_breakdown(
    system: ConstraintSystem,
    plan: DistributionPlan,
    env: Mapping[str, int],
    H: int,
    machine: MachineCosts = T3D,
    work: Optional[Mapping[str, float]] = None,
) -> dict:
    """Split a solved plan's objective into pure-imbalance vs communication.

    ``DistributionPlan.imbalance`` folds the p-dependent frontier/halo
    traffic into the D^k sum (that mix *is* the quantity the argmin
    minimises); sweeps presenting a Pareto front need the two axes the
    paper trades off — wasted cycles vs moved data — so this re-walks
    the chosen chunks and separates the terms.  Reporting only: the
    plan itself is untouched.
    """
    work = dict(work or {})
    ev = _Evaluator(env)
    trips = {c.var: c for c in system.load_balance}
    imbalance = 0.0
    frontier = 0.0
    for var, p in plan.chunks.items():
        inputs = _var_inputs(system, var, ev, work, trips)
        if inputs is None:
            continue
        trip, wk, width = inputs
        imb, comm = _var_term(trip, wk, width, p, H, machine)
        imbalance += imb
        if comm is not None:
            frontier += comm
    return {
        "imbalance": imbalance,
        "communication": frontier + plan.communication,
    }


def _pick_relaxation(
    system: ConstraintSystem,
    ev: _Evaluator,
    infeasible: list,
    already: set,
) -> Optional[tuple]:
    """Choose a locality constraint to demote to communication.

    Only constraints whose variables live in an infeasible component are
    candidates; among them the one with the largest slope ratio (the
    steepest chunk amplification, e.g. ``p81 = 2*Q*p71``) is dropped
    first — it is the constraint that blows chunks past their boxes.
    """
    bad_vars: set = set()
    for comp in infeasible:
        bad_vars.update(comp.members)
    best, best_ratio = None, None
    for c in system.locality:
        key = (c.edge[0], c.edge[1], c.array)
        if key in already:
            continue
        if c.var_k not in bad_vars and c.var_g not in bad_vars:
            continue
        a_k = ev(c.slope_k)
        a_g = ev(c.slope_g)
        ratio = max(a_k / a_g, a_g / a_k)
        if best_ratio is None or ratio > best_ratio:
            best, best_ratio = key, ratio
    return best


def _pick_storage_relaxation(
    system: ConstraintSystem,
    ev: _Evaluator,
    H: int,
    infeasible: list,
    already: set,
) -> Optional[object]:
    """Choose a storage constraint to drop from an infeasible component.

    Candidates are constraints whose variable sits in an infeasible
    component; the one with the tightest chunk bound — the smallest
    ``limit / (delta_P * H)``, i.e. the box that crushed the component —
    goes first.  Ties break on ``(var, kind)`` so the choice is
    deterministic across runs and processes.
    """
    bad_vars: set = set()
    for comp in infeasible:
        bad_vars.update(comp.members)
    best, best_key = None, None
    for c in system.storage:
        if c in already or c.var not in bad_vars:
            continue
        bound = ev(c.limit) / (ev(c.delta_p) * H)
        key = (bound, c.var, c.kind)
        if best_key is None or key < best_key:
            best, best_key = c, key
    return best


def solve_milp(
    system: ConstraintSystem,
    env: Mapping[str, int],
    H: int,
    machine: MachineCosts = T3D,
    work: Optional[Mapping[str, float]] = None,
) -> DistributionPlan:
    """The same optimisation as a 0/1 selection MILP via scipy.

    One binary variable per (component, feasible t); per-component
    exactly-one constraints; the linear objective carries the exact
    precomputed cost of each choice.  Serves as the GAMS stand-in and as
    an independent cross-check of :func:`solve_enumerative`.
    """
    from scipy.optimize import LinearConstraint, milp
    from scipy.optimize import Bounds

    work = dict(work or {})
    ev = _Evaluator(env)
    components = _reduce(system, ev, H, None, None, None)
    choices: list[tuple] = []  # (component index, t, cost)
    trips = {c.var: c for c in system.load_balance}
    for ci, comp in enumerate(components):
        ts = comp.feasible_ts()
        if not ts:
            raise ValueError(f"infeasible component rooted at {comp.root}")
        for t in ts:
            cost = _component_cost(
                system, comp, t, ev, H, machine, work, trips
            )
            if cost is not None:
                choices.append((ci, t, cost))

    n = len(choices)
    # Small t-proportional epsilon so ties break toward the smallest
    # chunking, matching solve_enumerative's deterministic choice (the
    # solver runs with a zero MIP gap so the epsilon is respected).
    c_vec = np.array(
        [cost + 1e-6 * t for (_, t, cost) in choices], dtype=float
    )
    # exactly-one per component
    A = np.zeros((len(components), n))
    for j, (ci, _, _) in enumerate(choices):
        A[ci, j] = 1.0
    constraint = LinearConstraint(A, lb=1.0, ub=1.0)
    res = milp(
        c=c_vec,
        constraints=[constraint],
        integrality=np.ones(n),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    chosen = [choices[j] for j in range(n) if res.x[j] > 0.5]

    chunks: dict[str, int] = {}
    imbalance_total = 0.0
    for ci, t, cost in chosen:
        chunks.update(components[ci].values_for(t))
        imbalance_total += cost

    phase_chunks: dict[str, int] = {}
    for var, p in chunks.items():
        phase, _ = system.variables[var]
        phase_chunks[phase] = p

    return DistributionPlan(
        chunks=chunks,
        phase_chunks=phase_chunks,
        objective=imbalance_total,
        imbalance=imbalance_total,
        communication=0.0,
        components=components,
    )
