"""The benchmark's own tests: short mode of every workload, both runs.

    python3 -m pytest perfbench -q

Each short run uses a few ops per workload and must emit every metric
``BENCHMARK.json`` names (with its unit), run its output checks and
report no failed op.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed
import programs
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    BENCH = json.load(fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_run_py():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert tuple(WORKLOADS) == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(
        run.PER_LAYER)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--short")
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named}
    checks = next(line for line in lines if line.startswith("checks: "))
    assert int(checks.split()[1]) > 0, checks
    assert " 0 failed" in checks and "; 0 ops differ" in checks, checks
    assert any(line.split()[:2] == ["failed_ratio", "0"] for line in lines)
    if trace:
        spans = os.path.join(ROOT, ".perfbench_out",
                             f"spans-{workload}-3.json")
        with open(spans, "r", encoding="utf-8") as fh:
            records = json.load(fh)["spans"]
        assert {"op"} < {r["name"] for r in records}
        assert 0 < result["metrics"]["trace.layer_coverage"]["value"] <= 1.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "corpus_batch", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_inputs_follow_the_seed():
    assert programs.serve_zipf_stream(5, 250, ROOT, False) == \
        programs.serve_zipf_stream(5, 250, ROOT, False)
    assert programs.serve_zipf_stream(5, 250, ROOT, False) != \
        programs.serve_zipf_stream(6, 250, ROOT, False)
    assert sorted(map(repr, programs.serve_zipf_stream(5, 250, ROOT, False))) \
        == sorted(map(repr, programs.serve_zipf_stream(6, 250, ROOT, False)))
    items = programs.exec_heavy_items(5, False)
    assert items == programs.exec_heavy_items(5, False)
    assert len({repr(item) for item in items}) == len(items)
    corpus = programs.corpus_batch_items(5, 0, ROOT, False)
    assert len(corpus) == 2 * (17 + 36)
    assert len({repr(item) for item in corpus}) == len(corpus)


def test_host_speed_scale():
    probe = hostspeed.probe_ms()
    assert probe > 0
    assert hostspeed.scale(hostspeed.REFERENCE_MS) == 1.0
    assert hostspeed.scale(probe, probe) == hostspeed.REFERENCE_MS / probe
    # A host twice as slow reads twice the time; scaled, the same.
    assert 2.0 * hostspeed.scale(2 * probe) == hostspeed.scale(probe)
