"""The default executor tier against the enumerating ``wide`` tier.

``execute_with_plan`` without a ``fast_path`` runs the closed-form
symbolic tier.  Its reports must equal the ``wide`` tier's — per-phase
local/remote/iteration counts and every communication plan's put list —
on the generated corpus and on one large binding of each original code.
"""

import os

import numpy as np
import pytest

from repro import analyze
from repro.codes import ALL_CODES
from repro.dsm import execute_with_plan
from repro.fuzz import load_corpus
from repro.fuzz.corpus import corpus_dir
from repro.ir.parser import parse_and_lower

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
FIXTURES = load_corpus(corpus_dir(REPO_ROOT))

#: One large binding per original code at H=64 (the smallest size of
#: each code in the repository benchmark's execution-heavy workload).
LARGE_BINDINGS = {
    "tfft2": {"P": 64, "p": 6, "Q": 64, "q": 6},
    "mgrid": {"N": 1024, "n": 10},
    "jacobi": {"N": 32768},
    "redblack": {"N": 32768},
    "swim": {"M": 192, "N": 192},
    "adi": {"M": 192, "N": 216},
    "tomcatv": {"M": 192, "N": 192},
}


def _assert_default_matches_wide(program, env, H, back_edges=()):
    result = analyze(
        program, env=env, H=H, back_edges=list(back_edges), execute=False
    )
    default = execute_with_plan(program, result.lcg, result.plan, env, H)
    wide = execute_with_plan(
        program, result.lcg, result.plan, env, H, fast_path="wide"
    )
    assert [p.phase for p in default.phases] == [p.phase for p in wide.phases]
    for got, want in zip(default.phases, wide.phases):
        for field in ("local", "remote", "iterations"):
            assert np.array_equal(
                getattr(got, field), getattr(want, field)
            ), (got.phase, field)
    assert [(c.array, c.edge, c.pattern, c.puts) for c in default.comms] == [
        (c.array, c.edge, c.pattern, c.puts) for c in wide.comms
    ]


@pytest.mark.parametrize("H", (16, 64))
@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda fx: fx.name)
def test_corpus_fixture_default_matches_wide(fixture, H):
    program = parse_and_lower(fixture.source)
    _assert_default_matches_wide(program, dict(fixture.env), H)


@pytest.mark.parametrize("name", sorted(LARGE_BINDINGS))
def test_large_binding_default_matches_wide(name):
    builder, _env, back_edges = ALL_CODES[name]
    _assert_default_matches_wide(
        builder(), LARGE_BINDINGS[name], 64, back_edges
    )
