"""Unit tests of the benchmark's statistics, comparison rule and serve rate.

Synthetic inputs only: no workload runs here (the slow smoke test does
that), so the quick tier collects these and they take well under a second.
"""

from __future__ import annotations

import random
import statistics
from pathlib import Path

import pytest

import common
import compare
import harness
import run

FINGERPRINT = {"python": "3.11", "cpu_count": 2}
PLAN = {"passes": 5}


def _records(values, workload="solve-plain", metric="cpu_ms", fingerprint=None,
             plan=PLAN):
    return [
        {
            "workload": workload,
            "trace": 0,
            "fingerprint": fingerprint or FINGERPRINT,
            "plan": plan,
            "metrics": {metric: {"value": value, "unit": "ms"}},
        }
        for value in values
    ]


BOUNDS = {"cpu_ms": (0.1, "lower")}


def _noisy(center, spread, count=10, seed=0):
    rng = random.Random(seed)
    return [center * (1 + rng.uniform(-spread, spread)) for _ in range(count)]


def test_clear_improvement_is_a_gain():
    parent = _noisy(2.0, 0.02)
    change = _noisy(1.5, 0.02, seed=1)
    (verdict,) = compare.compare(_records(parent), _records(change), BOUNDS)
    assert verdict.verdict == "gain"
    assert verdict.wins == 10


def test_gain_needs_ten_pairs():
    parent = _noisy(2.0, 0.02, count=8)
    change = _noisy(1.5, 0.02, count=8, seed=1)
    (verdict,) = compare.compare(_records(parent), _records(change), BOUNDS)
    assert verdict.verdict == "unchanged"


def test_gain_needs_nine_wins_in_ten():
    parent = [2.0] * 10
    change = [1.5] * 8 + [2.1, 2.2]
    assert compare.judge(parent, change, 0.2, "lower") == ("unchanged", 8)


def test_slowdown_beyond_the_bound_is_a_regression():
    parent = _noisy(2.0, 0.02)
    change = _noisy(2.5, 0.02, seed=1)
    (verdict,) = compare.compare(_records(parent), _records(change), BOUNDS)
    assert verdict.verdict == "regression"


def test_slowdown_within_the_bound_is_unchanged():
    parent = _noisy(2.0, 0.01)
    change = _noisy(2.1, 0.01, seed=1)
    assert compare.judge(parent, change, 0.1, "lower")[0] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 1.6, 2.0, 2.4, 3.0, 1.2, 2.8, 1.9, 2.2, 1.4]
    change = [value * 1.05 for value in parent[::-1]]
    assert compare.judge(parent, change, 0.1, "lower")[0] == "unresolved"


def test_wide_spread_but_every_change_run_better():
    parent = [3.0, 3.6, 4.0, 4.4, 5.0]
    change = [1.0, 1.4, 1.8, 2.2, 2.6]
    assert compare.judge(parent, change, 0.1, "lower")[0] == "better"


def test_higher_is_better_direction():
    parent = _noisy(100.0, 0.02)
    change = _noisy(130.0, 0.02, seed=1)
    assert compare.judge(parent, change, 0.1, "higher")[0] == "gain"
    assert compare.judge(change, parent, 0.1, "higher")[0] == "regression"


def test_fingerprint_mismatch_asks_for_a_rebaseline():
    parent = _records(_noisy(2.0, 0.02))
    change = _records(_noisy(1.0, 0.02), fingerprint={"python": "3.12", "cpu_count": 2})
    (verdict,) = compare.compare(parent, change, BOUNDS)
    assert verdict.verdict == "rebaseline"


def test_traced_runs_are_not_compared():
    parent = _records(_noisy(2.0, 0.02))
    change = _records(_noisy(1.5, 0.02, seed=1))
    for record in change:
        record["trace"] = 1
    assert compare.compare(parent, change, BOUNDS) == []


def test_quartiles_match_the_acceptance_rule():
    values = _noisy(5.0, 0.3, count=10)
    q1, median, q3 = harness.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)


def test_percentile_interpolates_between_samples():
    values = list(range(101))
    assert harness.percentile(values, 0.99) == pytest.approx(99.0)
    assert harness.percentile([1.0, 3.0], 0.5) == pytest.approx(2.0)
    assert harness.percentile([7.0], 0.99) == 7.0


def test_runs_that_did_different_work_are_refused():
    parent = _records(_noisy(2.0, 0.02))
    change = _records(_noisy(1.5, 0.02, seed=1), plan={"passes": 6})
    with pytest.raises(ValueError, match="different work"):
        compare.compare(parent, change, BOUNDS)


def test_a_run_does_exactly_its_pass_count():
    seen, checked = [], []

    def body(index):
        seen.append(index)
        return [("a", 0.1, 0.1)], index

    passes = harness.run_passes(body, checked.append, 3)
    assert seen == checked == [0, 1, 2]
    assert len(passes) == 3


def test_pass_measurement_takes_medians_over_the_passes():
    passes = [
        harness.Pass([("a", 0.3, 0.2), ("b", 0.7, 0.6)]),
        harness.Pass([("b", 0.5, 0.4), ("a", 0.3, 0.2)]),
        harness.Pass([("a", 0.2, 0.2), ("b", 0.7, 0.5)]),
    ]
    measurement = common.pass_measurement(passes, 6, ["b: wrong"])
    assert measurement.values["max_qps"] == pytest.approx(2 / 0.9)
    assert measurement.values["cpu_ms"] == pytest.approx(700 / 2)
    assert measurement.values["op_tail_ms"] == pytest.approx(700.0)
    assert (measurement.attempted, measurement.failed) == (6, 1)


def test_times_and_rates_are_scaled_onto_the_reference_host(monkeypatch):
    probes = iter([0.12, 0.11, 0.13])
    monkeypatch.setattr(harness, "calibration_probe", lambda: next(probes))
    host = harness.HostSpeed()
    for _ in range(3):
        host.probe()
    # The probe took twice the reference time: this host ran at half speed.
    factor = harness.REFERENCE_CALIBRATION_S / 0.12
    assert host.on_reference_host(300.0, "ms") == pytest.approx(300.0 * factor)
    assert host.on_reference_host(2.0, "s") == pytest.approx(2.0 * factor)
    assert host.on_reference_host(5.0, "1/s") == pytest.approx(5.0 / factor)
    assert host.on_reference_host(64.0, "MB") == 64.0


def test_seconds_must_match_the_declared_run_length():
    spec = harness.load_spec()
    args = run._parse_args(["--seconds", str(spec["run_seconds"])], spec)
    assert args.seconds == spec["run_seconds"]
    with pytest.raises(SystemExit):
        run._parse_args(["--seconds", str(spec["run_seconds"] + 5)], spec)


@pytest.fixture
def serve(monkeypatch):
    # serve.py hosts its in-process server with the serving benchmark's
    # helper, one directory up.
    monkeypatch.syspath_prepend(str(Path(harness.__file__).resolve().parent.parent))
    import serve

    return serve


def _rungs(points):
    return [
        type("FakeRung", (), {"rate": rate, "p99_ms": p99})() for rate, p99 in points
    ]


def test_max_rate_interpolates_where_the_p99_crosses_the_limit(serve):
    rungs = _rungs([(150, 30.0), (250, 60.0), (350, 140.0), (450, 400.0)])
    assert serve.max_rate(rungs) == pytest.approx(300.0)


def test_max_rate_is_the_top_rung_when_every_rung_meets_the_limit(serve):
    assert serve.max_rate(_rungs([(150, 30.0), (250, 50.0)])) == 250


def test_max_rate_below_the_reference_rung(serve):
    assert serve.max_rate(_rungs([(150, 200.0)])) == pytest.approx(75.0)


def test_a_failed_request_misses_the_limit(serve):
    rungs = _rungs([(150, 30.0), (250, float("inf")), (350, 50.0)])
    assert serve.max_rate(rungs) == 150
