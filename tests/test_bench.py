"""Unit tests for the microbenchmark plane (small inputs — the full
suite runs via ``python -m repro bench``; CI runs ``--quick``)."""

import json

from repro.bench import (
    BENCH_VERSION,
    bench_cost_model,
    bench_pack_first_fit,
    bench_queue_churn,
    bench_requests,
    bench_select,
    check_regression,
    format_bench_table,
    write_bench,
)


def _leaf_keys(entry):
    return {"fast_s", "reference_s", "speedup"} <= set(entry)


class TestWorkloads:
    def test_deterministic_per_seed(self):
        a = bench_requests(50, seed=3)
        b = bench_requests(50, seed=3)
        assert a == b
        assert a != bench_requests(50, seed=4)

    def test_shapes(self):
        reqs = bench_requests(100, seed=0, max_length=16)
        assert len(reqs) == 100
        assert all(1 <= r.length <= 16 for r in reqs)
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals)
        assert all(r.deadline > r.arrival for r in reqs)


class TestMicrobenches:
    def test_select_reports(self):
        entry = bench_select(200, seed=0, repeats=1)
        assert entry["n"] == 200
        assert _leaf_keys(entry)
        assert entry["fast_s"] > 0 and entry["reference_s"] > 0

    def test_select_paper_geometry_reports(self):
        entry = bench_select(300, seed=0, repeats=1, num_rows=64, row_length=100)
        assert entry["n"] == 300 and _leaf_keys(entry)

    def test_pack_first_fit_reports(self):
        entry = bench_pack_first_fit(120, seed=0, repeats=1, calls=2)
        assert entry["n"] == 120 and entry["calls"] == 2
        assert _leaf_keys(entry)
        assert entry["fast_s"] > 0 and entry["reference_s"] > 0

    def test_queue_churn_reports(self):
        entry = bench_queue_churn(400, seed=0, repeats=1)
        assert entry["ops"] == 400
        assert _leaf_keys(entry)

    def test_cost_model_reports(self):
        entry = bench_cost_model(500, seed=0, repeats=1, shapes=4)
        assert entry["evals"] == 500
        assert _leaf_keys(entry)


def _report(steps_per_s, cal):
    return {
        "version": BENCH_VERSION,
        "quick": True,
        "calibration_s": cal,
        "select": {
            "1000": {"n": 1000, "fast_s": 1e-3, "reference_s": 5e-3, "speedup": 5.0}
        },
        "queue_churn": {"ops": 10, "fast_s": 1e-3, "reference_s": 2e-3, "speedup": 2.0},
        "cost_model": {"evals": 10, "fast_s": 1e-3, "reference_s": 2e-3, "speedup": 2.0},
        "serving": {
            "simulator": {
                "steps": 100,
                "fast_s": 0.1,
                "reference_s": 0.1,
                "steps_per_s": steps_per_s,
                "speedup": 1.0,
            }
        },
    }


class TestRegressionGate:
    def test_identical_passes(self):
        base = _report(1000.0, 0.05)
        assert check_regression(_report(1000.0, 0.05), base) == []

    def test_within_threshold_passes(self):
        base = _report(1000.0, 0.05)
        assert check_regression(_report(950.0, 0.05), base) == []

    def test_regression_fails(self):
        base = _report(1000.0, 0.05)
        failures = check_regression(_report(800.0, 0.05), base)
        assert failures and "simulator" in failures[0]

    def test_machine_speed_normalizes_out(self):
        # Same work on a machine 2x slower: raw steps/sec halves but the
        # calibration probe doubles, so the gate must not fire.
        base = _report(1000.0, 0.05)
        slower = _report(500.0, 0.10)
        assert check_regression(slower, base) == []

    def test_missing_loop_reported(self):
        base = _report(1000.0, 0.05)
        current = _report(1000.0, 0.05)
        current["serving"] = {}
        failures = check_regression(current, base)
        assert failures and "missing" in failures[0]

    def test_missing_calibration_reported(self):
        base = _report(1000.0, 0.05)
        del base["calibration_s"]
        assert check_regression(_report(1000.0, 0.05), base)


class TestReportRendering:
    def test_table_and_json_roundtrip(self, tmp_path):
        report = _report(1000.0, 0.05)
        text = format_bench_table(report)
        assert f"BENCH v{BENCH_VERSION}" in text
        assert "simulator" in text
        path = tmp_path / "BENCH.json"
        write_bench(report, str(path))
        assert json.loads(path.read_text()) == report
