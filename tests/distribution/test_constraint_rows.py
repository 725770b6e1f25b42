"""Per-phase reuse of the H-independent constraint rows.

``extract_constraints`` memoises each ``(phase, array)`` node's trip,
widest overlap and storage rows on the phase object, keyed by the array
and the context fingerprint.  A program re-extracted at other machine
sizes and bindings must read exactly what a fresh program computes, and
an added assumption must recompute the rows rather than serve stale
ones.
"""

import pytest

from repro.codes import ALL_CODES
from repro.distribution import extract_constraints
from repro.ir import ProgramBuilder
from repro.locality import build_lcg
from repro.symbolic import sym


def _extract(program, env, H, back):
    return extract_constraints(
        build_lcg(program, env=env, H_value=H, back_edges=back)
    )


BINDINGS = {
    "tfft2": [
        {"P": 16, "p": 4, "Q": 16, "q": 4},
        {"P": 64, "p": 6, "Q": 64, "q": 6},
    ],
    "mgrid": [{"N": 1024, "n": 10}, {"N": 4096, "n": 12}],
}


@pytest.mark.parametrize("name", sorted(BINDINGS))
def test_reused_rows_equal_fresh_program(name):
    builder, _, back = ALL_CODES[name]
    program = builder()
    bindings = BINDINGS[name]
    for H in (8, 16, 64):
        for env in bindings:
            reused = _extract(program, env, H, back)
            fresh = _extract(builder(), env, H, back)
            assert reused.render() == fresh.render()
            assert reused.overlaps == fresh.overlaps
            assert reused.storage == fresh.storage
    # One row set per (array, context) for the whole sweep.
    for phase in program.phases:
        assert len(phase._constraint_rows) == len(phase.arrays())


def _shifted_copy(minimum):
    """``A(i + N - 8)`` is a macro copy beyond the 8-iteration sweep
    only when ``N >= 16`` is known."""
    bld = ProgramBuilder("shift")
    N = bld.param("N", minimum=minimum)
    A = bld.array("A", 2 * N)
    with bld.phase("F") as ph:
        with ph.doall("i", 0, 7) as i:
            ph.write(A, i)
            ph.read(A, i + N - 8)
            ph.read(A, i + 1)
    return bld.build()


def test_added_assumption_recomputes_rows():
    env = {"N": 64}
    program = _shifted_copy(minimum=8)
    before = _extract(program, env, 4, [])
    assert before.storage == []

    program.context.assume_min(sym("N"), 16)
    after = _extract(program, env, 4, [])
    fresh = _extract(_shifted_copy(minimum=16), env, 4, [])
    assert after.storage, "the assumption makes the shifted copy provable"
    assert after.render() == fresh.render()
    assert after.storage == fresh.storage
    assert len(program.phases[0]._constraint_rows) == 2
