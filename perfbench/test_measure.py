"""Unit tests for the benchmark's own helpers.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import repro.core  # noqa: E402,F401 - first: repro.radio alone imports in a cycle
import measure  # noqa: E402
import tracing  # noqa: E402
from measure import (  # noqa: E402
    Windows,
    failed_share,
    highest_supported_percentile,
    modelled_air_ms,
    percentile,
    quartile_spread,
)
from repro.radio.timing import NOMINAL, TransferTiming  # noqa: E402


# -- the percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 90.0), (100, 90.0),
     (99, 50.0), (20, 50.0), (19, None), (0, None)],
)
def test_highest_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert highest_supported_percentile(count) == expected


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50.0) == 2.5
    assert percentile([1, 2, 3, 4], 0.0) == 1
    assert percentile([1, 2, 3, 4], 100.0) == 4
    assert percentile([5.0], 99.0) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_quartile_spread_of_an_all_zero_metric_is_zero():
    assert quartile_spread([0.0] * 10)[3] == 0.0


def test_quartile_spread_is_the_statistics_module_rule():
    values = [10.0, 11.0, 9.5, 10.2, 12.0, 10.1, 9.9, 10.4, 10.0, 11.5]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (median, q1, q3, (q3 - q1) / median)


# -- failed_share accounting -------------------------------------------------------


def test_failed_share_counts_failures_timeouts_and_drops_at_every_level():
    share = failed_share(200, failed_ops=1, timed_out_ops=4, dropped_events=(2, 3, 0))
    assert share == pytest.approx(10 / 200)


def test_failed_share_is_zero_when_nothing_is_lost():
    assert failed_share(50) == 0.0


def test_failed_share_refuses_an_empty_run():
    with pytest.raises(ValueError):
        failed_share(0)


# -- modelled radio air time against TransferTiming ------------------------------


def _air(timing: TransferTiming, connects: int, attempts: int, byte_count: int) -> float:
    return modelled_air_ms(connects, attempts, byte_count, timing.connect_seconds,
                           timing.per_op_seconds, timing.seconds_per_byte)


@pytest.mark.parametrize("byte_count", [0, 91, 400])
def test_air_of_a_standalone_operation_is_operation_seconds(byte_count):
    expected = NOMINAL.operation_seconds(byte_count) * 1000.0
    assert _air(NOMINAL, 1, 1, byte_count) == pytest.approx(expected)


def test_air_of_a_batched_session_is_one_connect_plus_batched_operations():
    sizes = [91, 120, 40]
    expected = (NOMINAL.connect_seconds + sum(
        NOMINAL.batched_operation_seconds(size) for size in sizes)) * 1000.0
    assert _air(NOMINAL, 1, len(sizes), sum(sizes)) == pytest.approx(expected)


def test_air_of_a_torn_retry_pays_a_second_connect_and_attempt():
    timing = TransferTiming(base_seconds=0.01, seconds_per_byte=2e-4, connect_share=0.5)
    once = _air(timing, 1, 1, 100)
    assert _air(timing, 2, 2, 200) == pytest.approx(2 * once)


# -- self time across nested spans ----------------------------------------------------


class ScriptedClock:
    """Returns the next reading of a script each time it is read."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def __call__(self):
        return next(self._readings)


def test_self_time_subtracts_child_spans_on_the_same_thread(monkeypatch):
    tracer = tracing.Tracer()
    tracer.active = True
    inner = tracer.span(lambda: None, "inner", "tags")
    outer = tracer.span(lambda: inner(), "outer", "radio")
    # CPU readings in call order: outer start, inner start, inner end, outer end.
    monkeypatch.setattr(tracing, "CPU", ScriptedClock([0.0, 1.0, 4.0, 10.0]))
    monkeypatch.setattr(tracing, "WALL", ScriptedClock([0.0, 1.0, 4.0, 10.0]))
    outer()
    totals = tracer.totals
    assert totals.self_cpu == {"tags": 3.0, "radio": 7.0}
    assert totals.cpu_by_name == {"inner": 3.0, "outer": 10.0}
    by_name = {span[0]: span for span in tracer.spans}
    assert by_name["inner"][7] == by_name["outer"][8]  # parent is the outer span


def test_self_time_of_siblings_and_grandchildren(monkeypatch):
    tracer = tracing.Tracer()
    tracer.active = True
    leaf = tracer.span(lambda: None, "leaf", "ndef")
    middle = tracer.span(lambda: leaf(), "middle", "things")
    sibling = tracer.span(lambda: None, "sibling", "gson")

    def body():
        middle()
        sibling()

    root = tracer.span(body, "root", "discovery")
    # root 0 | middle 1 | leaf 2..5 | middle end 6 | sibling 7..9 | root end 12
    readings = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 12.0]
    monkeypatch.setattr(tracing, "CPU", ScriptedClock(readings))
    monkeypatch.setattr(tracing, "WALL", ScriptedClock(readings))
    root()
    self_cpu = tracer.totals.self_cpu
    assert self_cpu["ndef"] == 3.0
    assert self_cpu["things"] == 2.0  # 5 total minus the leaf's 3
    assert self_cpu["gson"] == 2.0
    assert self_cpu["discovery"] == 5.0  # 12 minus middle's 5 and sibling's 2
    assert sum(self_cpu.values()) == 12.0


def test_inactive_tracer_records_nothing():
    tracer = tracing.Tracer()
    wrapped = tracer.span(lambda x: x + 1, "f", "tags")
    assert wrapped(1) == 2
    assert tracer.spans == [] and tracer.totals.calls == {}


# -- windowed throughput ------------------------------------------------------------------


def test_windows_report_medians_over_closed_windows(monkeypatch):
    # A host exactly as fast as the reference one: scaled == raw.
    reference = (measure.REFERENCE_KERNEL_SECONDS,) * 2
    monkeypatch.setattr(measure, "host_speed", lambda *_: reference)
    # Each closing tick reads the clocks again after the kernel timing.
    wall = ScriptedClock([0.0, 0.1, 0.3, 0.3, 0.6, 0.6])
    cpu = ScriptedClock([0.0, 0.03, 0.03, 0.08, 0.08])
    windows = Windows(wall, cpu, width=0.25)
    windows.tick(10)  # 0.1 s: window still open, reads no CPU
    windows.tick(30)  # 0.3 s: closes 30 ops in 0.3 s, 0.03 CPU
    windows.tick(40)  # 0.6 s: closes 10 ops in 0.3 s, 0.05 CPU
    assert windows.rates == pytest.approx([100.0, 100.0 / 3])
    assert windows.ops == 40
    assert windows.cpu_us_per_op() == pytest.approx(statistics.median([1000.0, 5000.0]))
    assert windows.ops_per_s(True) == pytest.approx(windows.ops_per_s())
    assert windows.cpu_us_per_op(True) == pytest.approx(windows.cpu_us_per_op())


def test_windows_scale_by_the_kernel_on_either_side(monkeypatch):
    # The kernel takes twice the reference time before the window and
    # four times after it: the host ran at a third of reference speed.
    timings = iter([(0.002, 0.002), (0.004, 0.004)])
    monkeypatch.setattr(measure, "host_speed", lambda *_: next(timings))
    windows = Windows(ScriptedClock([0.0, 1.0, 1.0]), ScriptedClock([0.0, 0.5, 0.5]),
                      width=0.5)
    windows.tick(100)
    assert windows.ops_per_s() == pytest.approx(100.0)
    assert windows.ops_per_s(True) == pytest.approx(300.0)
    assert windows.cpu_us_per_op(True) == pytest.approx(5000.0 / 3)


def test_windows_wait_for_idle_before_each_kernel_timing(monkeypatch):
    events = []
    monkeypatch.setattr(measure, "host_speed",
                        lambda *_: events.append("kernel") or (0.001, 0.001))
    # The wait for idle ends at 0.7 s: the window closing at 0.6 s keeps it.
    wall = ScriptedClock([0.0, 0.2, 0.6, 0.7, 0.7])
    windows = Windows(wall, ScriptedClock([0.0, 0.07, 0.07]), width=0.5,
                      idle=lambda: events.append("idle"))
    windows.tick(20)  # 0.2 s: the window is still open, nothing waits
    windows.tick(70)
    assert events == ["idle", "kernel", "idle", "kernel"]
    assert windows.wall_seconds == pytest.approx(0.7)
    assert windows.rates == pytest.approx([100.0])


def test_calibrated_span_overhead_comes_out_of_self_and_total_time(monkeypatch):
    tracer = tracing.Tracer()
    tracer.active = True
    inner = tracer.span(lambda: None, "inner", "tags")
    outer = tracer.span(lambda: inner(), "outer", "radio")
    monkeypatch.setattr(tracing, "CPU", ScriptedClock([0.0, 1.0, 4.0, 10.0]))
    monkeypatch.setattr(tracing, "WALL", ScriptedClock([0.0, 1.0, 4.0, 10.0]))
    outer()
    tracer.inside, tracer.outside = 0.5, 0.25
    totals = tracer.totals
    # inner: 3 - 0.5 inside; outer: 7 - 0.5 inside - 1 child x 0.25 outside
    assert totals.self_cpu == {"tags": 2.5, "radio": 6.25}
    # outer's total also loses its child's whole overhead
    assert totals.cpu_by_name == {"inner": 2.5, "outer": 10.0 - 0.5 - 0.75}


def test_calibration_measures_a_positive_span_cost():
    tracer = tracing.Tracer()
    tracer.calibrate(calls=2000)
    assert tracer.inside > 0.0 and tracer.outside >= 0.0
    assert tracer.spans == [] and tracer.totals.calls == {}
