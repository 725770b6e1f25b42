"""The Eq. 7 solver's integer candidate path.

Components carry canonical integer rows ``(A, B, D)`` with
``p = (A*t + B) / D``; integrality and the candidate ``t`` set are
computed in machine integers.  These tests hold that path to a
``Fraction`` reference: random components against the rational
definition, and whole solves against plans recorded with the earlier
``Fraction``-based solver (``ilp_reference.json``: per code, ``H`` and
variant, the chunks, the ``objective``/``imbalance`` floats as
``float.hex`` and the relaxations, or the error text of an infeasible
point).
"""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import ALL_CODES, scaled_env
from repro.distribution import (
    T3D,
    TermMemo,
    VariableComponent,
    extract_constraints,
    solve_enumerative,
)
from repro.distribution.ilp import _affine
from repro.locality import build_lcg

ORIGINAL = ["tfft2", "jacobi", "swim", "adi", "mgrid", "tomcatv", "redblack"]
REFERENCE = json.loads(
    Path(__file__).with_name("ilp_reference.json").read_text()
)


def _reference_values(members, t):
    """``values_for`` by its rational definition."""
    out = {}
    for var, (a, b) in members.items():
        val = a * t + b
        if val.denominator != 1 or val < 1:
            return None
        out[var] = int(val)
    return out


rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@st.composite
def components(draw):
    n = draw(st.integers(1, 4))
    members = {f"p{k}": (draw(rationals), draw(rationals)) for k in range(n)}
    t_min = draw(st.integers(-5, 40))
    t_max = draw(st.integers(-5, 80))
    pinned = draw(st.none() | st.integers(-3, 40))
    if pinned is not None:
        t_min = t_max = pinned
    return members, t_min, t_max, pinned


class TestIntegerRows:
    @settings(max_examples=400, deadline=None)
    @given(components())
    def test_values_and_candidates_match_fraction_reference(self, spec):
        members, t_min, t_max, pinned = spec
        comp = VariableComponent(
            root="p0",
            members={
                v: _affine(a, b, Fraction(1)) for v, (a, b) in members.items()
            },
            t_min=t_min,
            t_max=t_max,
            pinned=pinned,
        )
        assert comp.feasible_ts() == [
            t
            for t in range(max(t_min, 1), t_max + 1)
            if _reference_values(members, t) is not None
        ]
        for t in range(t_min - 3, t_max + 4):
            assert comp.values_for(t) == _reference_values(members, t)

    @settings(max_examples=200, deadline=None)
    @given(rationals, rationals, rationals.filter(bool))
    def test_rows_are_canonical(self, a, b, d):
        A, B, D = _affine(a, b, d)
        assert D > 0
        assert (Fraction(A, D), Fraction(B, D)) == (a / d, b / d)
        one = Fraction(1)
        assert _affine(Fraction(A, D), Fraction(B, D), one) == (A, B, D)

    def test_oversized_range_keeps_its_error(self):
        comp = VariableComponent(
            root="p1", members={"p1": (1, 0, 1)}, t_min=1, t_max=200_002
        )
        with pytest.raises(ValueError, match=r"^component p1: t range too "
                           r"large \(1\.\.200002\)$"):
            comp.feasible_ts()


def _variants(program):
    first, last = program.phases[0].name, program.phases[-1].name
    return {
        "plain": {},
        "machine": {
            "machine": replace(T3D, alpha=T3D.alpha * 4, beta=T3D.beta / 2)
        },
        "pin3": {"chunk_bounds": {first: (3, 3)}},
        "clamp": {"chunk_bounds": {last: (2, 5)}},
    }


@pytest.fixture(scope="module")
def reference_solves():
    """``(key, system, env, H, kwargs)`` per recorded reference entry."""
    out = []
    for name in ORIGINAL:
        builder, ref_env, back = ALL_CODES[name]
        for H in (16, 64):
            env = scaled_env(name, ref_env, H)
            program = builder()
            lcg = build_lcg(program, env=env, H_value=H, back_edges=back)
            system = extract_constraints(lcg)
            for variant, kwargs in _variants(program).items():
                out.append((f"{name}@{H}/{variant}", system, env, H, kwargs))
    return out


def _answer(system, env, H, kwargs, memo):
    try:
        plan = solve_enumerative(system, env, H=H, memo=memo, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return {"error": str(exc)}
    return {
        "chunks": plan.chunks,
        "objective": plan.objective.hex(),
        "imbalance": plan.imbalance.hex(),
        "relaxed_edges": [list(e) for e in plan.relaxed_edges],
        "relaxed_storage": [list(e) for e in plan.relaxed_storage],
    }


class TestRecordedPlans:
    def test_reference_covers_every_solve(self, reference_solves):
        assert sorted(k for k, *_ in reference_solves) == sorted(REFERENCE)

    @pytest.mark.parametrize("with_memo", [False, True])
    def test_plans_equal_fraction_reference(self, reference_solves, with_memo):
        memo = TermMemo() if with_memo else None
        # With a memo the second round answers components from it: the
        # hits must reproduce the recorded floats bit for bit as well.
        for _round in range(2 if with_memo else 1):
            for key, system, env, H, kwargs in reference_solves:
                answer = _answer(system, env, H, kwargs, memo)
                assert answer == REFERENCE[key], key
        if with_memo:
            assert memo.component_hits > 0
