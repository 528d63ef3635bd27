"""The bench trajectory recorder and its regression gate."""

from __future__ import annotations

import itertools
import json
import time
import types

import pytest

from repro.obs import bench, get_metrics
from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchRecord,
    SCENARIOS,
    bench_paths,
    check,
    latest_record,
    next_index,
    record,
    run_suite,
)


def _fast_scenarios(evals: int = 5):
    """A cheap deterministic suite standing in for the real one."""

    def scenario() -> None:
        get_metrics().counter("fake.evals").inc(evals)
        get_metrics().gauge("fake.peak").set(1.0)

    return {"fake.scenario": scenario}


@pytest.fixture()
def steady_clock(monkeypatch):
    """Every scenario run lasts exactly one clock tick.

    The fake scenario takes ~10 us, so one host stall in a single run
    moves its wall ratio past any tolerance; tests of the gate's
    bookkeeping (not of its timing) read this clock instead.
    """
    ticks = itertools.count()
    monkeypatch.setattr(
        bench,
        "time",
        types.SimpleNamespace(
            perf_counter=lambda: float(next(ticks)), time=time.time
        ),
    )


class TestRunSuite:
    def test_counters_captured_per_single_run(self):
        (entry,) = run_suite(_fast_scenarios(), repeats=3)
        assert entry.name == "fake.scenario"
        assert entry.wall_s >= 0.0
        # 3 repeats must not accumulate: one run's work exactly
        assert entry.counters == {"fake.evals": 5}

    def test_nondeterministic_scenario_rejected(self):
        calls = iter(range(100))

        def flaky() -> None:
            get_metrics().counter("n").inc(next(calls) + 1)

        with pytest.raises(AssertionError, match="nondeterministic"):
            run_suite({"flaky": flaky}, repeats=2)

    def test_only_filters_and_validates(self):
        scenarios = {**_fast_scenarios(), **_fast_scenarios(7)}
        with pytest.raises(KeyError):
            run_suite(scenarios, repeats=1, only=("missing",))

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            run_suite(_fast_scenarios(), repeats=0)

    def test_real_suite_names_are_stable(self):
        # CI and BENCH_*.json records key on these names
        assert set(SCENARIOS) == {
            "evalspace.grid",
            "serving.faulty",
            "serving.columnar",
            "allocation.greedy",
            "autoscale.surge",
            "fleet.routed",
            "fleet.columnar",
            "fleet.adaptive",
            "service.plan",
        }


class TestRecords:
    def test_record_writes_schema_versioned_sequence(self, tmp_path):
        first = record(tmp_path, repeats=1, scenarios=_fast_scenarios())
        second = record(tmp_path, repeats=1, scenarios=_fast_scenarios())
        assert first.name == "BENCH_1.json"
        assert second.name == "BENCH_2.json"
        payload = json.loads(first.read_text())
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["environment"]["python"]
        assert bench_paths(tmp_path) == [first, second]
        assert next_index(tmp_path) == 3
        assert latest_record(tmp_path).index == 2

    def test_round_trip(self, tmp_path):
        path = record(tmp_path, repeats=1, scenarios=_fast_scenarios())
        restored = BenchRecord.read(path)
        assert restored.to_dict() == json.loads(path.read_text())
        assert restored.entry("fake.scenario").counters == {
            "fake.evals": 5
        }

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError):
            BenchRecord.from_dict({"schema": "other/v1"})

    def test_empty_root(self, tmp_path):
        assert bench_paths(tmp_path) == []
        assert next_index(tmp_path) == 1
        assert latest_record(tmp_path) is None


class TestCheck:
    def test_no_baseline_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            check(tmp_path, scenarios=_fast_scenarios())

    def test_passes_against_fresh_record(self, tmp_path, steady_clock):
        record(tmp_path, repeats=1, scenarios=_fast_scenarios())
        report = check(tmp_path, repeats=1, scenarios=_fast_scenarios())
        assert report.ok
        assert report.baseline_index == 1
        assert report.failures == ()
        assert any("ok" in line for line in report.lines)

    def test_injected_slowdown_fails(self, tmp_path):
        record(tmp_path, repeats=1, scenarios=_fast_scenarios())

        def slow() -> None:
            get_metrics().counter("fake.evals").inc(5)
            get_metrics().gauge("fake.peak").set(1.0)
            time.sleep(0.05)

        report = check(
            tmp_path,
            repeats=1,
            tolerance=0.5,
            scenarios={"fake.scenario": slow},
        )
        assert not report.ok
        assert any("wall" in f for f in report.failures)
        assert any("SLOW" in line for line in report.lines)

    def test_counter_drift_fails_regardless_of_tolerance(self, tmp_path):
        record(tmp_path, repeats=1, scenarios=_fast_scenarios(5))
        report = check(
            tmp_path,
            repeats=1,
            tolerance=1e9,  # wall tolerance must never absorb work drift
            scenarios=_fast_scenarios(6),
        )
        assert not report.ok
        assert any("drifted" in f for f in report.failures)
        assert any("5 -> 6" in f for f in report.failures)

    def test_new_scenario_reported_not_failed(self, tmp_path, steady_clock):
        record(tmp_path, repeats=1, scenarios=_fast_scenarios())
        grown = {**_fast_scenarios(), "brand.new": lambda: None}
        report = check(tmp_path, repeats=1, scenarios=grown)
        assert report.ok
        assert any("new scenario" in line for line in report.lines)

    def test_warn_ratio_surfaces_slowdown_without_failing(self, tmp_path):
        record(tmp_path, repeats=1, scenarios=_fast_scenarios())

        def slow() -> None:
            get_metrics().counter("fake.evals").inc(5)
            get_metrics().gauge("fake.peak").set(1.0)
            time.sleep(0.05)

        report = check(
            tmp_path,
            repeats=1,
            tolerance=1e9,  # wide enough that only the warning fires
            warn_ratio=1.5,
            scenarios={"fake.scenario": slow},
        )
        assert report.ok
        assert any("warn threshold" in w for w in report.warnings)
        assert any("WARN" in line for line in report.lines)

    def test_trajectory_drift_vs_first_record_warns(self, tmp_path):
        def slow() -> None:
            get_metrics().counter("fake.evals").inc(5)
            get_metrics().gauge("fake.peak").set(1.0)
            time.sleep(0.05)

        # BENCH_1 fast, BENCH_2 already slow: a latest-only gate sees
        # no change, the trajectory comparison sees the creep
        record(tmp_path, repeats=1, scenarios=_fast_scenarios())
        record(tmp_path, repeats=1, scenarios={"fake.scenario": slow})
        report = check(
            tmp_path,
            repeats=1,
            tolerance=1e9,
            warn_ratio=1.5,
            scenarios={"fake.scenario": slow},
        )
        assert report.ok
        assert any("trajectory drift" in w for w in report.warnings)

    def test_fail_ratio_hard_gates_trajectory_creep(self, tmp_path):
        def slow() -> None:
            get_metrics().counter("fake.evals").inc(5)
            get_metrics().gauge("fake.peak").set(1.0)
            time.sleep(0.05)

        # BENCH_1 fast, BENCH_2 already slow: each step passed the
        # per-step tolerance, but the trajectory budget catches the sum
        record(tmp_path, repeats=1, scenarios=_fast_scenarios())
        record(tmp_path, repeats=1, scenarios={"fake.scenario": slow})
        report = check(
            tmp_path,
            repeats=1,
            tolerance=1e9,
            fail_ratio=2.0,
            scenarios={"fake.scenario": slow},
        )
        assert not report.ok
        assert any(
            "trajectory budget exceeded" in f for f in report.failures
        )
        # without fail_ratio the same creep only warns
        report = check(
            tmp_path,
            repeats=1,
            tolerance=1e9,
            scenarios={"fake.scenario": slow},
        )
        assert report.ok

    def test_cross_machine_baseline_demotes_wall_gates(self, tmp_path):
        record(tmp_path, repeats=1, scenarios=_fast_scenarios())
        # rewrite the record as if it came from other hardware
        path = bench_paths(tmp_path)[-1]
        payload = json.loads(path.read_text())
        payload["environment"]["cpu_count"] = 9999
        path.write_text(json.dumps(payload))

        def slow() -> None:
            get_metrics().counter("fake.evals").inc(5)
            get_metrics().gauge("fake.peak").set(1.0)
            time.sleep(0.05)

        report = check(
            tmp_path,
            repeats=1,
            tolerance=0.5,
            fail_ratio=1.1,
            scenarios={"fake.scenario": slow},
        )
        # wall regressions (step and trajectory) become warnings...
        assert report.machine_drift
        assert report.ok
        assert any("different hardware" in w for w in report.warnings)
        assert any("wall" in w for w in report.warnings)
        # ...but counter drift still fails hard
        report = check(
            tmp_path,
            repeats=1,
            tolerance=1e9,
            scenarios=_fast_scenarios(6),
        )
        assert not report.ok
        assert any("drifted" in f for f in report.failures)

    def test_drift_message_sanitizes_stored_machine_string(
        self, tmp_path
    ):
        """Records are hand-editable JSON: a hostile ``machine`` value
        must not reach the terminal raw (control characters could
        spoof gate lines), and over-long values are capped."""
        record(tmp_path, repeats=1, scenarios=_fast_scenarios())
        path = bench_paths(tmp_path)[-1]
        payload = json.loads(path.read_text())
        payload["environment"]["machine"] = (
            "evil\r\x1b[2Kok: no regressions\n" + "A" * 100
        )
        path.write_text(json.dumps(payload))
        report = check(
            tmp_path, repeats=1, scenarios=_fast_scenarios()
        )
        assert report.machine_drift
        drift = next(
            w for w in report.warnings if "different hardware" in w
        )
        assert "\r" not in drift and "\x1b" not in drift
        assert "\\x0d" in drift and "\\x1b" in drift
        assert "..." in drift
        assert "A" * 60 not in drift

    def test_same_machine_baseline_reports_no_drift(self, tmp_path):
        record(tmp_path, repeats=1, scenarios=_fast_scenarios())
        report = check(tmp_path, repeats=1, scenarios=_fast_scenarios())
        assert not report.machine_drift

    def test_repo_baseline_matches_current_code(self):
        """The committed BENCH_*.json must agree with today's counters.

        Wall times are machine-dependent, so only the deterministic
        work counters are compared here — exactly what ``--check``
        treats as tolerance-free.  Scenarios newer than the committed
        record are skipped, matching ``--check``'s "new scenario (no
        baseline)" semantics.
        """
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        baseline = latest_record(repo_root)
        if baseline is None:  # pragma: no cover - repo always has one
            pytest.skip("no BENCH_*.json committed")
        known = {e.name for e in baseline.entries}
        fresh = run_suite(repeats=1)
        for entry in fresh:
            if entry.name not in known:
                continue
            assert entry.counters == baseline.entry(entry.name).counters
