"""Tests of the benchmark's own statistics and failure accounting.

Run with: python -m pytest perfbench
"""

import json
import sys
from types import SimpleNamespace

import pytest

import measure
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _op(fn, check=lambda r: None, group="g"):
    return SimpleNamespace(run=fn, prepare=tuple, check=check, key=lambda r: r, group=group)


def _rounds(ops, n):
    stats = [measure.OpStats() for _ in ops]
    for _ in range(n):
        measure.judge(ops, stats, measure.time_round(ops))
    return stats


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert measure.percentile(values, 0.9) == 90
    assert measure.percentile(list(reversed(values)), 0.5) == 50
    with pytest.raises(ValueError):
        measure.percentile(list(range(1, 100)), 0.9)
    with pytest.raises(ValueError):
        measure.percentile(list(range(15)), 0.5)


def test_raised_ops_and_rejected_certificates_are_failures():
    def boom():
        raise RuntimeError("boom")

    ops = [
        _op(lambda: 1),
        _op(boom),
        _op(lambda: 2, check=lambda r: "wrong answer"),
    ]
    good, raised, rejected = _rounds(ops, 3)
    assert (good.attempted, good.failed, len(good.samples)) == (3, 0, 3)
    assert (raised.attempted, raised.failed, raised.samples) == (3, 3, [])
    assert "RuntimeError" in raised.problems[0]
    assert (rejected.attempted, rejected.failed, rejected.samples) == (3, 3, [])
    assert rejected.problems[0] == "wrong answer"


def test_a_result_that_changes_after_certification_fails():
    results = iter([1, 1, 2])
    (st,) = _rounds([_op(lambda: next(results))], 3)
    assert (st.attempted, st.failed, len(st.samples)) == (3, 1, 2)


def test_a_crashing_certificate_rejects_the_result():
    (st,) = _rounds([_op(lambda: 1, check=lambda r: 1 / 0)], 1)
    assert st.failed == 1 and "ZeroDivisionError" in st.problems[0]


def test_latency_is_the_best_repetition():
    stats = []
    for i in range(100):
        st = measure.OpStats()
        st.samples = [0.003 + i * 1e-4, 0.001 + i * 1e-4, 0.002 + i * 1e-4]
        stats.append(st)
    figures = measure.summarize(stats)
    assert figures["op_p50_ms"] == pytest.approx(1 + 4.95)
    assert figures["op_p90_ms"] == pytest.approx(1 + 8.9)
    assert figures["ops_per_s"] == pytest.approx(100 / sum(0.001 + i * 1e-4 for i in range(100)))


def test_latency_is_scaled_by_the_yardstick_around_it():
    ops = [_op(lambda: 1), _op(lambda: 2), _op(lambda: 3, check=lambda r: "wrong answer")]
    stats = [measure.OpStats() for _ in ops]
    y = measure.YARDSTICK_S
    outcomes = [(0.010, 1, None), (0.010, 2, None), (0.010, 3, None)]
    measure.judge(ops, stats, outcomes, marks=[y, 3 * y, y, y])
    assert stats[0].wall == [0.010] and stats[0].samples == [pytest.approx(0.005)]
    assert stats[1].samples == [pytest.approx(0.005)]
    assert stats[2].samples == [] and stats[2].failed == 1


def test_time_round_times_the_yardstick_around_every_op():
    marks = []
    outcomes = measure.time_round([_op(lambda: 1), _op(lambda: 2)], marks=marks)
    assert [r for _, r, _ in outcomes] == [1, 2]
    assert len(marks) == 3 and all(m > 0 for m in marks)


def test_warm_up_runs_one_op_per_group_and_ignores_failures():
    calls = []

    def boom():
        calls.append("b")
        raise RuntimeError

    ops = [
        _op(lambda: calls.append("a1"), group="a"),
        _op(lambda: calls.append("a2"), group="a"),
        _op(boom, group="b"),
    ]
    measure.warm_up(ops)
    assert calls == ["a1", "b"]


def test_printed_metrics_match_benchmark_json():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    from tracer import Tracer

    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    printed = run.layer_metrics(Tracer(), 1.0, 1.0, 1.0)
    assert {name: unit for name, (_, unit) in printed.items()} == layer
