"""Smoke tests for the perf-regression harness (``repro bench-perf``)."""

import json

import pytest

import repro.perf.bench as bench
from repro.perf import check_regression, run_benchmark, set_optimizations


def _payload(total):
    return {"quick": {"optimized": {"total": total}}}


class TestCheckRegression:
    def test_within_bounds(self):
        assert check_regression(_payload(1.0), _payload(0.9), 2.0) is None

    def test_regression_reported(self):
        error = check_regression(_payload(3.0), _payload(1.0), 2.0)
        assert error is not None and "regression" in error

    def test_missing_section_reported(self):
        error = check_regression(_payload(1.0), {"schema": 1}, 2.0)
        assert "no quick/optimized section" in error

    def test_zero_committed_total_passes(self):
        assert check_regression(_payload(5.0), _payload(0.0), 2.0) is None


def _lcg_payload(cold, warm, H="64", cold_plan=None, cold_speedup=None):
    totals = {"total_cold": cold, "total_warm": warm}
    if cold_plan is not None:
        totals["total_cold_plan"] = cold_plan
    if cold_speedup is not None:
        totals["cold_speedup"] = cold_speedup
    return {"lcg_full": {"per_H": {H: totals}}}


class TestCheckLcgRegression:
    def test_within_bounds(self):
        assert (
            bench.check_lcg_regression(
                _lcg_payload(1.0, 0.1), _lcg_payload(0.9, 0.09), 2.0
            )
            is None
        )

    def test_cold_regression_reported(self):
        error = bench.check_lcg_regression(
            _lcg_payload(3.0, 0.1), _lcg_payload(1.0, 0.1), 2.0
        )
        assert error is not None and "total_cold" in error

    def test_warm_regression_reported(self):
        error = bench.check_lcg_regression(
            _lcg_payload(1.0, 0.5), _lcg_payload(1.0, 0.1), 2.0
        )
        assert error is not None and "total_warm" in error

    def test_missing_sections_reported(self):
        assert "committed BENCH_perf.json has no lcg_full" in (
            bench.check_lcg_regression(
                _lcg_payload(1.0, 0.1), {"schema": 2}, 2.0
            )
        )
        assert "current run has no lcg_full" in bench.check_lcg_regression(
            {"schema": 2}, _lcg_payload(1.0, 0.1), 2.0
        )
        assert "missing lcg_full H" in bench.check_lcg_regression(
            _lcg_payload(1.0, 0.1, H="16"), _lcg_payload(1.0, 0.1, H="64"), 2.0
        )

    def test_plan_cold_regression_reported(self):
        error = bench.check_lcg_regression(
            _lcg_payload(1.0, 0.1, cold_plan=0.9),
            _lcg_payload(1.0, 0.1, cold_plan=0.1),
            2.0,
        )
        assert error is not None and "total_cold_plan" in error

    def test_schema4_committed_without_plan_totals_tolerated(self):
        # a committed schema-4 baseline has no total_cold_plan: the
        # ratio check skips it instead of crashing
        assert (
            bench.check_lcg_regression(
                _lcg_payload(1.0, 0.1, cold_plan=0.1),
                _lcg_payload(1.0, 0.1),
                2.0,
            )
            is None
        )

    def test_cold_speedup_floor(self):
        current = _lcg_payload(1.0, 0.1, cold_plan=0.5, cold_speedup=2.0)
        committed = _lcg_payload(1.0, 0.1)
        error = bench.check_lcg_regression(
            current, committed, 2.0, min_cold_speedup=5.0
        )
        assert error is not None and "cold speedup" in error
        assert (
            bench.check_lcg_regression(
                current, committed, 2.0, min_cold_speedup=1.5
            )
            is None
        )

    def test_cold_speedup_missing_is_an_error(self):
        # the current run never completed a plan-driven cold build
        # (plan rejected or install failed): that is itself a failure
        # of the replay path, not a skip
        error = bench.check_lcg_regression(
            _lcg_payload(1.0, 0.1),
            _lcg_payload(1.0, 0.1),
            2.0,
            min_cold_speedup=5.0,
        )
        assert error is not None and "no plan-driven cold build" in error


def _exec_payload(static=50.0, plan=50.0, equal=True, code="tfft2"):
    return {
        "exec": {
            "per_code": {
                code: {
                    "speedup_static": static,
                    "speedup_plan": plan,
                    "counts_equal": equal,
                }
            }
        }
    }


class TestCheckExec:
    def test_within_bounds(self):
        assert bench.check_exec(_exec_payload(), 20.0) is None

    def test_counts_mismatch_reported(self):
        error = bench.check_exec(_exec_payload(equal=False), 20.0)
        assert error is not None and "soundness" in error

    def test_static_speedup_floor(self):
        error = bench.check_exec(_exec_payload(static=5.0), 20.0)
        assert error is not None and "speedup_static" in error

    def test_plan_speedup_floor(self):
        error = bench.check_exec(_exec_payload(plan=5.0), 20.0)
        assert error is not None and "speedup_plan" in error

    def test_missing_section_reported(self):
        assert "no exec section" in bench.check_exec({"schema": 4}, 20.0)

    def test_missing_tfft2_reported(self):
        payload = _exec_payload(code="jacobi")
        assert "no tfft2 entry" in bench.check_exec(payload, 20.0)


def _sweep_payload(**overrides):
    section = {
        "points": 16,
        "identical": True,
        "front_size": 3,
        "speedup": 7.0,
    }
    section.update(overrides)
    return {"sweep": section}


class TestCheckSweep:
    def test_healthy_payload_passes(self):
        assert bench.check_sweep(_sweep_payload(), 5.0) is None

    def test_missing_section_reported(self):
        assert "no sweep section" in bench.check_sweep({"schema": 6}, 5.0)

    def test_too_few_points(self):
        error = bench.check_sweep(_sweep_payload(points=8), 5.0)
        assert error is not None and "at least 16" in error

    def test_identity_violation(self):
        error = bench.check_sweep(_sweep_payload(identical=False), 5.0)
        assert error is not None and "soundness" in error

    def test_degenerate_front(self):
        error = bench.check_sweep(_sweep_payload(front_size=1), 5.0)
        assert error is not None and "Pareto" in error

    def test_speedup_floor(self):
        error = bench.check_sweep(_sweep_payload(speedup=2.0), 5.0)
        assert error is not None and "perf regression" in error


class TestSwitches:
    def test_set_optimizations_flips_every_layer(self):
        import repro.dsm.executor as executor
        import repro.ir.interp as interp
        import repro.locality.engine as engine
        import repro.symbolic.expr as expr
        import repro.symbolic.refute as refute

        try:
            set_optimizations(False)
            assert expr._MEMO_ENABLED is False
            assert interp._VECTOR_ENABLED is False
            assert executor._FAST_MODE == "legacy"
            assert refute._REFUTE_ENABLED is False
            assert engine._CACHE_ENABLED is False
            set_optimizations(True)
            assert expr._MEMO_ENABLED is True
            assert interp._VECTOR_ENABLED is True
            assert executor._FAST_MODE == "symbolic"
            assert refute._REFUTE_ENABLED is True
            assert engine._CACHE_ENABLED is True
        finally:
            set_optimizations(True)


class TestHarness:
    def test_time_code_reports_every_stage(self):
        stages = bench._time_code("jacobi", {"N": 64}, H=4)
        for name in bench.STAGES:
            assert stages[name] >= 0.0
        assert stages["total"] == pytest.approx(
            sum(stages[s] for s in bench.STAGES)
        )

    def test_run_benchmark_payload_shape(self, monkeypatch):
        monkeypatch.setattr(bench, "QUICK_H", 2)
        monkeypatch.setattr(bench, "QUICK_SIZES", {"jacobi": {"N": 32}})
        payload = run_benchmark(quick_only=True)
        assert payload["schema"] == 6
        assert "full" not in payload
        assert "lcg_full" not in payload
        assert "exec" not in payload
        assert "sweep" not in payload
        assert "lcg_warm" in payload["stages"]
        assert "exec_symbolic" in payload["stages"]
        quick = payload["quick"]
        assert set(quick["baseline"]["per_code"]) == {"jacobi"}
        assert quick["speedup"] > 0
        speedups = quick["stage_speedups"]
        assert set(speedups) == set(bench.STAGES)
        assert all(v > 0 for v in speedups.values())
        json.dumps(payload)  # payload must be JSON-serialisable

    def test_lcg_section_shape(self, monkeypatch):
        monkeypatch.setattr(bench, "FULL_SIZES", {"jacobi": {"N": 64}})
        monkeypatch.setattr(bench, "LCG_H_VALUES", (2, 4))
        payload = run_benchmark(quick_only=True, lcg_section=True)
        section = payload["lcg_full"]
        assert section["H_values"] == [2, 4]
        for H in ("2", "4"):
            totals = section["per_H"][H]
            assert set(totals["per_code"]) == {"jacobi"}
            assert totals["total_cold"] >= 0.0
            assert totals["total_warm"] >= 0.0
            # the compiled-plan replay completed and was measured
            assert totals["total_cold_plan"] is not None
            assert totals["cold_speedup"] is not None
            code = totals["per_code"]["jacobi"]
            assert code["lcg_cold_plan"] >= 0.0
        json.dumps(payload)

    def test_exec_section_shape(self, monkeypatch):
        monkeypatch.setattr(bench, "EXEC_H", 4)
        monkeypatch.setattr(bench, "EXEC_SIZES", {"jacobi": {"N": 256}})
        section = bench._run_exec_section(lambda s: None)
        rec = section["per_code"]["jacobi"]
        assert rec["counts_equal"] is True
        assert rec["speedup_static"] > 0 and rec["speedup_plan"] > 0
        assert "dsm.fast_path.symbolic" in rec["fallbacks"]
        json.dumps(section)

    def test_sweep_section_shape(self, monkeypatch):
        monkeypatch.setattr(bench, "SWEEP_CODE", "jacobi")
        monkeypatch.setattr(bench, "SWEEP_H", 4)
        monkeypatch.setattr(
            bench, "SWEEP_GRID", {"H": [2, 4], "chunk:F_sweep": [2, 4]}
        )
        monkeypatch.setattr(
            bench, "FRONT_GRID", {"chunk:F_sweep": list(range(1, 13))}
        )
        monkeypatch.setattr(bench, "QUICK_SIZES", {"jacobi": {"N": 256}})
        section = bench._run_sweep_section(lambda s: None)
        assert section["points"] == 4
        # the headline property, independent of host speed: the warm
        # and cold paths produced byte-identical documents per point
        assert section["identical"] is True
        assert section["speedup"] > 0
        assert section["front_size"] >= 2
        assert section["reuse"]["edges_reused"] > 0
        json.dumps(section)

    def test_large_H_section_gates_plan(self, monkeypatch):
        monkeypatch.setattr(bench, "EXEC_SIZES", {"jacobi": {"N": 256}})
        monkeypatch.setattr(bench, "LARGE_H_PLAN_MAX", 4)
        section = bench._run_large_H_section(lambda s: None, (4, 8))
        with_plan = section["per_H"]["4"]
        without = section["per_H"]["8"]
        assert "symbolic_plan" in with_plan["per_code"]["jacobi"]
        assert "symbolic_plan" not in without["per_code"]["jacobi"]
        assert with_plan["total_plan"] is not None
        assert without["total_plan"] is None
        json.dumps(section)

    def test_cli_exec_smoke(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "EXEC_SIZES", {"jacobi": {"N": 256}})
        out = tmp_path / "smoke.json"
        assert bench.main(["--exec-smoke", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "exec_large_H" in payload
        assert payload["exec_large_H"]["per_H"]["4"]["total_static"] >= 0.0

    def test_cli_check_exec_round_trip(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "QUICK_H", 2)
        monkeypatch.setattr(bench, "QUICK_SIZES", {"jacobi": {"N": 32}})
        monkeypatch.setattr(bench, "EXEC_H", 4)
        monkeypatch.setattr(bench, "EXEC_SIZES", {"tfft2": {"P": 16, "p": 4, "Q": 16, "q": 4}})
        # timings at toy sizes are noise: only the equality half of the
        # guard is meaningful here, so disable the speedup floor
        assert (
            bench.main(["--check-exec", "--min-exec-speedup", "0"]) == 0
        )

    def test_cli_check_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "QUICK_H", 2)
        monkeypatch.setattr(bench, "QUICK_SIZES", {"jacobi": {"N": 32}})
        out = tmp_path / "bench.json"
        assert bench.main(["--quick", "--out", str(out)]) == 0
        committed = json.loads(out.read_text())
        assert bench.main(["--check", str(out)]) == 0
        committed["quick"]["optimized"]["total"] = 1e-9
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(committed))
        assert bench.main(["--check", str(slow)]) == 1

    def test_cli_check_lcg_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "QUICK_H", 2)
        monkeypatch.setattr(bench, "QUICK_SIZES", {"jacobi": {"N": 32}})
        monkeypatch.setattr(bench, "FULL_SIZES", {"jacobi": {"N": 64}})
        monkeypatch.setattr(bench, "LCG_H_VALUES", (2,))
        committed = tmp_path / "bench.json"
        payload = run_benchmark(quick_only=True, lcg_section=True)
        committed.write_text(json.dumps(payload))
        # millisecond-scale timings are noisy under a loaded test host
        # (and the 5x plan floor only holds at real sizes); the pass
        # direction only checks plumbing, so be generous
        assert (
            bench.main(
                [
                    "--check-lcg", str(committed),
                    "--max-regression", "100",
                    "--min-cold-speedup", "0",
                ]
            )
            == 0
        )
        payload["lcg_full"]["per_H"]["2"]["total_cold"] = 1e-9
        impossible = tmp_path / "impossible.json"
        impossible.write_text(json.dumps(payload))
        assert (
            bench.main(
                ["--check-lcg", str(impossible), "--min-cold-speedup", "0"]
            )
            == 1
        )
