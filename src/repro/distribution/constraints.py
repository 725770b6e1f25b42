"""Constraint extraction from the LCG — the Table 2 generator (§4.3a).

For a labelled LCG the integer programming model has one variable
``p_kj`` per (phase k, array j) node — the CYCLIC chunk size of the
phase's parallel loop — and four constraint families:

* **Locality constraints** — one per ``L`` edge: the balanced-locality
  equation ``slope_k * p_k = slope_g * p_g + shift`` that keeps the two
  phases' chunks covering the same data sub-region.
* **Load-balance constraints** — per node: ``1 <= p <= ceil(trip / H)``.
* **Storage constraints** — per node with storage symmetry:
  ``delta_P * p * H <= Δd`` for a shifted pair (the H processors' first
  sweep must not run into the shifted copy) and
  ``delta_P * p * H <= Δr / 2`` for a reverse pair (the ascending and
  descending fronts must not cross the mirror midpoint).
* **Affinity constraints** — ``p_k,j1 = p_k,j2``: a phase has a single
  parallel loop, so its chunk size is shared by every array it touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from ..symbolic import Context, Expr, Symbol, as_expr, ceil_div, sym
from ..locality.lcg import LCG
from ..locality.intra import check_intra_phase

__all__ = [
    "LocalityConstraint",
    "LoadBalanceConstraint",
    "StorageConstraint",
    "AffinityConstraint",
    "ConstraintSystem",
    "extract_constraints",
]


@dataclass(frozen=True)
class LocalityConstraint:
    """``slope_k * p_k == slope_g * p_g + shift`` (an L edge)."""

    var_k: str
    var_g: str
    slope_k: Expr
    slope_g: Expr
    shift: Expr
    array: str
    edge: tuple  # (phase_k, phase_g)

    def __str__(self) -> str:
        s = f"{_coef(self.slope_k)}{self.var_k} = {_coef(self.slope_g)}{self.var_g}"
        if not self.shift.is_zero:
            s += f" + ({self.shift})"
        return s


@dataclass(frozen=True)
class LoadBalanceConstraint:
    """``1 <= p <= ceil(trip / H)``."""

    var: str
    trip: Expr
    phase: str
    array: str

    def bound(self, H) -> Expr:
        return ceil_div(self.trip, as_expr(H))

    def __str__(self) -> str:
        return f"1 <= {self.var} <= ceil(({self.trip})/H)"


@dataclass(frozen=True)
class StorageConstraint:
    """``delta_P * p * H <= limit`` with ``limit = Δd`` or ``Δr/2``."""

    var: str
    delta_p: Expr
    limit: Expr
    kind: str  # "shifted" | "reverse"
    phase: str
    array: str

    def __str__(self) -> str:
        return f"{_coef(self.delta_p)}{self.var}*H <= {self.limit}"


@dataclass(frozen=True)
class AffinityConstraint:
    """``p_k,j1 == p_k,j2`` for a phase touching several arrays."""

    var_a: str
    var_b: str
    phase: str

    def __str__(self) -> str:
        return f"{self.var_a} = {self.var_b}"


def _coef(e: Expr) -> str:
    return "" if e.is_one else f"{e}*"


@dataclass
class ConstraintSystem:
    """The full Table-2 style system extracted from one LCG."""

    lcg: LCG
    variables: dict = field(default_factory=dict)  # var name -> (phase, array)
    locality: list = field(default_factory=list)
    load_balance: list = field(default_factory=list)
    storage: list = field(default_factory=list)
    affinity: list = field(default_factory=list)
    #: per-variable overlapping-storage distance Δs (halo width); feeds
    #: the frontier term of the C^kg cost: halo traffic scales with the
    #: number of block boundaries, i.e. decreases with the chunk size.
    overlaps: dict = field(default_factory=dict)

    def var_name(self, phase: str, array: str) -> str:
        return self.lcg.p_names[(phase, array)]

    def render(self) -> str:
        lines = ["Locality constraints:"]
        lines += [f"  {c}" for c in self.locality]
        lines.append("Load balance constraints:")
        lines += [f"  {c}" for c in self.load_balance]
        lines.append("Storage constraints:")
        lines += [f"  {c}" for c in self.storage]
        lines.append("Affinity constraints:")
        lines += [f"  {c}" for c in self.affinity]
        return "\n".join(lines)


def _node_rows(phase, array, ctx: Context) -> tuple:
    """The H-independent rows of one ``(phase, array)`` node.

    Returns ``(trip, overlap, storage)``: the load-balance trip count,
    the widest overlap distance Δs (``None`` without overlap), and the
    storage rows as ``(delta_p, limit, kind)`` triples.  None of them
    depends on ``H``, the env binding or the LCG labels, only on the IR
    and the context, so they are memoised on the phase object under the
    same ``(array, context fingerprint)`` key as
    :func:`check_intra_phase`: a re-solve of the same program (a
    session edit, a what-if sweep point) reads them back instead of
    redoing the symbolic arithmetic, and an added assumption changes
    the fingerprint and recomputes them.
    """
    cache = getattr(phase, "_constraint_rows", None)
    if cache is None:
        cache = {}
        setattr(phase, "_constraint_rows", cache)
    key = (array.name, ctx._fingerprint())
    rows = cache.get(key)
    if rows is None:
        rows = cache[key] = _node_rows_uncached(phase, array, ctx)
    return rows


def _node_rows_uncached(phase, array, ctx: Context) -> tuple:
    par = phase.parallel_loop
    trip = par.trip_count if par is not None else as_expr(1)
    intra = check_intra_phase(phase, array, ctx)
    if intra.symmetry is None or intra.iteration_descriptor is None:
        return trip, None, ()
    widest = None
    if intra.symmetry.overlap:
        widest = intra.symmetry.overlap[0][2]
        for (_, _, dist) in intra.symmetry.overlap[1:]:
            if ctx.is_le(widest, dist):
                widest = dist
    primary = intra.iteration_descriptor.primary_row()
    if primary.delta_p.is_zero:
        return trip, widest, ()
    # Storage constraints concern *macro* copies: a shifted or mirrored
    # region that must be placed symmetrically.  Halo micro-shifts
    # (distance within one parallel sweep) belong to overlap handling,
    # not storage allocation, so a shifted pair only yields a
    # constraint when the copy lies beyond the primary row's full sweep.
    sweep = (primary.count_p - 1) * primary.delta_p + primary.extent
    phase_ctx = phase.loop_context(ctx)
    storage = [
        (primary.delta_p, dist, "shifted")
        for (_, _, dist) in intra.symmetry.shifted
        if phase_ctx.is_le(sweep, dist)
    ]
    storage += [
        (primary.delta_p, dist / 2, "reverse")
        for (_, _, dist) in intra.symmetry.reverse
        if phase_ctx.is_le(sweep, dist)
    ]
    return trip, widest, tuple(storage)


def extract_constraints(lcg: LCG) -> ConstraintSystem:
    """Read the four constraint families off a labelled LCG."""
    system = ConstraintSystem(lcg=lcg)
    program = lcg.program
    ctx = program.context

    # Variables + load balance + storage, per (phase, array) node.
    touched = [
        (phase, {a.name for a in phase.arrays()}) for phase in program.phases
    ]
    per_phase_vars: dict[str, list[str]] = {}
    for array in program.arrays_in_use():
        for phase, names in touched:
            if array.name not in names:
                continue
            var = system.var_name(phase.name, array.name)
            system.variables[var] = (phase.name, array.name)
            per_phase_vars.setdefault(phase.name, []).append(var)
            trip, overlap, storage = _node_rows(phase, array, ctx)
            system.load_balance.append(
                LoadBalanceConstraint(
                    var=var, trip=trip, phase=phase.name, array=array.name
                )
            )
            if overlap is not None:
                system.overlaps[var] = overlap
            for delta_p, limit, kind in storage:
                system.storage.append(
                    StorageConstraint(
                        var=var,
                        delta_p=delta_p,
                        limit=limit,
                        kind=kind,
                        phase=phase.name,
                        array=array.name,
                    )
                )

    # Locality constraints: one per L edge carrying an affine balanced
    # condition.
    for array in lcg.arrays():
        for edge in lcg.edges(array):
            if edge.label != "L" or edge.balanced is None:
                continue
            bal = edge.balanced
            if not bal.affine:
                continue
            system.locality.append(
                LocalityConstraint(
                    var_k=system.var_name(edge.phase_k, array),
                    var_g=system.var_name(edge.phase_g, array),
                    slope_k=bal.slope_k,
                    slope_g=bal.slope_g,
                    shift=bal.shift,
                    array=array,
                    edge=(edge.phase_k, edge.phase_g),
                )
            )

    # Affinity constraints: chain the variables of each phase.
    for phase_name, variables in per_phase_vars.items():
        for a, b in zip(variables, variables[1:]):
            system.affinity.append(
                AffinityConstraint(var_a=a, var_b=b, phase=phase_name)
            )

    return system
