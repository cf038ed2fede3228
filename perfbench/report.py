"""Turn a workload's run result into named metrics.

Every entry is ``{"value", "unit", "count", "clock"}``: ``count`` is the
number of samples behind the value and ``clock`` says what measured it
(``wall``, ``virtual`` for the simulation's ``ManualClock``, ``cpu`` for
thread CPU time, ``counter`` for the program's own counters).
"""

from __future__ import annotations

import statistics
import sys
from typing import Dict, List, Tuple

from measure import (
    failed_share,
    highest_supported_percentile,
    modelled_air_ms,
    percentile,
)


def metric(value: float, unit: str, count, clock: str) -> dict:
    return {"value": float(value), "unit": unit, "count": count, "clock": clock}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _latency(metrics: Dict[str, dict], prefix: str, sample: List[float], clock: str) -> None:
    """p50 and p99 of ``sample`` (seconds), plus p99.9 when the sample
    is large enough to quote it: the highest percentile reported always
    has at least ten samples beyond it, so a short run leaves out its
    p99 rather than quote one."""
    count = len(sample)
    top = highest_supported_percentile(count)
    if top is None:
        raise ValueError(f"{prefix}: {count} samples cannot support a p50")
    metrics[f"{prefix}_p50_ms"] = metric(percentile(sample, 50.0) * 1000.0, "ms", count, clock)
    if top < 99.0:
        print(f"{prefix}: {count} samples cannot support a p99; not reported",
              file=sys.stderr)
        return
    metrics[f"{prefix}_p99_ms"] = metric(percentile(sample, 99.0) * 1000.0, "ms", count, clock)
    if top > 99.0:
        metrics[f"{prefix}_p999_ms"] = metric(percentile(sample, top) * 1000.0, "ms", count, clock)


def end_to_end_report(workload, result: dict, setups: List[Tuple[float, float]],
                      peak_rss_mb: float) -> Dict[str, dict]:
    """Every end-to-end metric the workload measures, untraced.

    Wall and CPU times are reported in reference-host units: each raw
    figure is scaled by how long :func:`measure.calibration_kernel` took
    next to it (see :class:`measure.Windows`), which cancels the host's
    own speed swings. The raw figures follow under ``raw.``.
    """
    windows = result["windows"]
    delta = result["delta"]
    kernel = statistics.median(windows.kernel_walls)
    windows_n = len(windows.rates)
    metrics: Dict[str, dict] = {
        "setup_s": metric(statistics.median(norm for norm, _raw in setups), "s",
                          len(setups), "wall"),
        "ops_per_s": metric(windows.ops_per_s(True), "op/s", windows_n, "wall"),
        "cpu_us_per_op": metric(windows.cpu_us_per_op(True), "us", windows_n, "cpu"),
    }
    if "settle" in result:
        _latency(metrics, "settle", result["settle"], "virtual")
        _latency(metrics, "ui_lag", result["ui_lag"], "wall")
        lost = result.get("lost_saves", 0)
        metrics["failed_share"] = metric(
            failed_share(result["attempted"], timed_out_ops=lost,
                         failed_ops=result["failed"]),
            "ratio", result["attempted"], "counter",
        )
        latency = ("settle_p50_ms", "settle_p99_ms")
    else:
        # Each dashboard snapshot's p50/p99 over the shards' latency
        # rings, already in reference-host units; the median over them.
        samples = result["ingest_samples"]
        for name, key in (("ingest_p50_ms", "ingest_p50"), ("ingest_p99_ms", "ingest_p99")):
            metrics[name] = metric(statistics.median(result[key]) * 1000.0,
                                   "ms", samples, "wall")
        reads = result["dashboard_read"]
        metrics["dashboard_read_p50_ms"] = metric(
            percentile(reads, 50.0) * 1000.0, "ms", len(reads), "wall")
        metrics["failed_share"] = metric(
            failed_share(result["attempted"], dropped_events=(
                delta["gateway.dropped_reporter"], delta["gateway.dropped_queue"],
                delta["gateway.dropped_streams"])),
            "ratio", result["attempted"], "counter",
        )
        latency = ("ingest_p50_ms", "ingest_p99_ms")
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB", 1, "ru_maxrss")
    # The guarded latency pair is the op latency a user of the workload
    # waits on: virtual settle on the phones, ingest at the gateway.
    for guarded, source in zip(("latency_p50_ms", "latency_p99_ms"), latency):
        if source in metrics:
            metrics[guarded] = dict(metrics[source])
    metrics["raw.setup_s"] = metric(statistics.median(raw for _norm, raw in setups), "s",
                                    len(setups), "wall")
    metrics["raw.ops_per_s"] = metric(windows.ops_per_s(), "op/s", windows_n, "wall")
    metrics["raw.cpu_us_per_op"] = metric(windows.cpu_us_per_op(), "us", windows_n, "cpu")
    metrics["host.kernel_ms"] = metric(kernel * 1000.0, "ms", len(windows.kernel_walls), "wall")
    return metrics


#: Per-layer self-CPU metrics: layer -> metric name.
SELF_CPU = (
    ("radio", "radio.self_cpu_us_per_op"),
    ("tags", "tags.self_cpu_us_per_op"),
    ("ndef", "ndef.self_cpu_us_per_op"),
    ("gson", "gson.self_cpu_us_per_op"),
    ("things", "things.self_cpu_us_per_op"),
    ("discovery", "discovery.self_cpu_us_per_op"),
    ("reference", "reference.self_cpu_us_per_op"),
    ("looper", "looper.self_cpu_us_per_op"),
    ("leasing", "leasing.self_cpu_us_per_op"),
)


def layer_report(workload, result: dict, plain: dict, tracer,
                 reactor_thread_cpu: float) -> Dict[str, dict]:
    """Every per-layer metric, from the traced half of a run.

    ``plain`` is a run of the same schedule and length on a build with
    no wrapper installed, the base of ``trace.overhead_share``; ``reactor_thread_cpu`` is the CPU the
    reactors' own threads used during the traced half.
    """
    ops = result["attempted"]
    d = result["delta"]
    totals = tracer.totals
    self_cpu = totals.self_cpu
    calls = totals.calls
    by_name = totals.cpu_by_name
    per_op_us = lambda seconds: _ratio(seconds, ops) * 1e6  # noqa: E731
    m: Dict[str, dict] = {}

    timing = workload.TIMING
    air = 0.0
    if timing is not None:
        air = modelled_air_ms(
            d.get("radio.connects", 0), d.get("radio.attempts", 0), d.get("radio.bytes", 0),
            timing.connect_seconds, timing.per_op_seconds, timing.seconds_per_byte,
        )
    m["radio.air_ms_per_op"] = metric(_ratio(air, ops), "ms", ops, "counter")
    m["radio.connects_per_op"] = metric(_ratio(d.get("radio.connects", 0), ops), "count", ops, "counter")
    m["radio.attempts_per_op"] = metric(_ratio(d.get("radio.attempts", 0), ops), "count", ops, "counter")
    m["radio.batched_share"] = metric(
        _ratio(d.get("radio.batched_ops", 0), d.get("radio.attempts", 0)), "ratio", ops, "counter")
    m["radio.ttfs_p99_ms"] = metric(d.get("radio.ttfs_p99_ms", 0.0), "ms",
                                    d.get("radio.ttfs_tags", 0), "virtual")
    for layer, name in SELF_CPU:
        m[name] = metric(per_op_us(self_cpu.get(layer, 0.0)), "us", ops, "cpu")
    m["ndef.encode_hit_share"] = metric(
        _ratio(d.get("ndef.encode_hits", 0),
               d.get("ndef.encode_hits", 0) + d.get("ndef.encode_misses", 0)),
        "ratio", ops, "counter")
    detect = result.get("detect") or []
    m["discovery.entry_to_detect_ms_p50"] = metric(
        percentile(detect, 50.0) * 1000.0 if detect else 0.0, "ms", len(detect), "wall")
    m["reference.coalesced_share"] = metric(
        _ratio(d.get("reference.coalesced", 0), ops), "ratio", ops, "counter")
    m["reference.retries_per_op"] = metric(
        _ratio(d.get("radio.attempts", 0) - d.get("radio.batched_ops", 0), ops),
        "count", ops, "counter")
    m["reference.timeouts"] = metric(d.get("reference.timeouts", 0), "count", ops, "counter")
    steps = sum(calls.get(f"step:{layer}", 0) for layer in
                ("radio", "reference", "gateway.shard", "gateway.reporter", "reactor"))
    step_cpu = tracer.step_cpu()
    m["reactor.steps_per_op"] = metric(_ratio(steps, ops), "count", ops, "counter")
    m["reactor.self_cpu_us_per_op"] = metric(
        per_op_us(max(0.0, reactor_thread_cpu - step_cpu)), "us", ops, "cpu")
    m["reactor.threads_peak"] = metric(d.get("reactor.threads", 0), "count", 1, "counter")
    m["clock.advances_per_op"] = metric(
        _ratio(calls.get("ManualClock.advance", 0), ops), "count", ops, "counter")
    m["clock.listener_cpu_us_per_op"] = metric(per_op_us(self_cpu.get("clock", 0.0)),
                                               "us", ops, "cpu")
    m["looper.runs_per_op"] = metric(_ratio(calls.get("Looper.run", 0), ops), "count", ops, "counter")
    waits = tracer.queue_waits
    m["looper.queue_wait_ms_p99"] = metric(
        percentile(waits, 99.0) * 1000.0 if waits else 0.0, "ms", len(waits), "wall")
    renewals = d.get("leasing.renewals", 0)
    m["leasing.writes_per_renewal"] = metric(
        _ratio(renewals - d.get("leasing.renewals_merged", 0), renewals), "count",
        renewals, "counter")
    denials = d.get("leasing.denials", 0)
    m["leasing.denied_share"] = metric(
        _ratio(denials, denials + d.get("leasing.acquisitions", 0)), "ratio", denials, "counter")

    recorded = d.get("gateway.recorded", 0)
    submitted = d.get("gateway.submitted", 0)
    ingested = d.get("gateway.ingested", 0)
    m["gateway.reporter.record_cpu_us_per_event"] = metric(
        _ratio(by_name.get("GatewayReporter.record", 0.0),
               calls.get("GatewayReporter.record", 0)) * 1e6, "us",
        calls.get("GatewayReporter.record", 0), "cpu")
    m["gateway.reporter.coalesced_share"] = metric(
        _ratio(d.get("gateway.coalesced", 0), recorded), "ratio", recorded, "counter")
    m["gateway.reporter.dropped_share"] = metric(
        _ratio(d.get("gateway.dropped_reporter", 0), recorded), "ratio", recorded, "counter")
    submit_cpu = by_name.get("FleetGateway.submit_batch", 0.0) + by_name.get("IngestShard.submit", 0.0)
    m["gateway.shard.submit_cpu_us_per_event"] = metric(
        _ratio(submit_cpu, submitted) * 1e6, "us", submitted, "cpu")
    drain_self = by_name.get("step:gateway.shard", 0.0) - by_name.get("IngestShard._apply_batch", 0.0)
    m["gateway.shard.drain_cpu_us_per_event"] = metric(
        _ratio(max(0.0, drain_self), ingested) * 1e6, "us", ingested, "cpu")
    m["gateway.shard.batch_mean"] = metric(
        _ratio(ingested, d.get("gateway.batches", 0)), "count", d.get("gateway.batches", 0), "counter")
    per_shard = [value for key, value in d.items()
                 if key.startswith("gateway.shard") and key.endswith(".ingested")]
    mean = _ratio(sum(per_shard), len(per_shard))
    m["gateway.shard.skew"] = metric(_ratio(max(per_shard), mean) if per_shard else 0.0,
                                     "ratio", len(per_shard), "counter")
    m["gateway.shard.queue_wait_ms_p99"] = metric(
        d.get("gateway.ingest_p99_ms", 0.0), "ms", d.get("gateway.ingest_samples", 0),
        workload.GATEWAY_CLOCK)
    m["gateway.shard.dropped_share"] = metric(
        _ratio(d.get("gateway.dropped_queue", 0), submitted), "ratio", submitted, "counter")
    m["gateway.views.apply_cpu_us_per_event"] = metric(
        _ratio(by_name.get("IngestShard._apply_batch", 0.0), ingested) * 1e6, "us", ingested, "cpu")
    snapshots = calls.get("FleetGateway.snapshot", 0)
    m["gateway.views.snapshot_cpu_ms"] = metric(
        _ratio(by_name.get("FleetGateway.snapshot", 0.0), snapshots) * 1000.0, "ms",
        snapshots, "cpu")
    traced = result["windows"].cpu_us_per_op(True)
    untraced = plain["windows"].cpu_us_per_op(True)
    m["trace.overhead_share"] = metric(_ratio(traced, untraced) - 1.0, "ratio",
                                       len(result["windows"].rates), "cpu")
    # Each layer's share of the CPU spent in the traced half.
    total_cpu = result["windows"].cpu_seconds + result.get("generator_cpu", 0.0)
    for layer, seconds in sorted(self_cpu.items()):
        m[f"share.{layer}"] = metric(_ratio(seconds, total_cpu), "ratio", ops, "cpu")
    m["trace.spans_dropped"] = metric(tracer.dropped_spans, "count", len(tracer.spans), "counter")
    m["trace.span_cost_us"] = metric((tracer.inside + tracer.outside) * 1e6, "us", 1, "cpu")
    return m


def fingerprint(result: dict) -> dict:
    """Counts and virtual times that must repeat exactly for one seed."""
    ops = result["attempted"]
    d = result["delta"]
    out = {
        "ops": ops,
        "radio.connects_per_op": _ratio(d.get("radio.connects", 0), ops),
        "radio.attempts_per_op": _ratio(d.get("radio.attempts", 0), ops),
        "reference.coalesced_share": _ratio(d.get("reference.coalesced", 0), ops),
        "leasing.writes_per_renewal": _ratio(
            d.get("leasing.renewals", 0) - d.get("leasing.renewals_merged", 0),
            d.get("leasing.renewals", 0)),
        "events_recorded": d.get("gateway.recorded", 0),
    }
    if "settle" in result:
        out["settle_p50_ms"] = percentile(result["settle"], 50.0) * 1000.0
        out["settle_p99_ms"] = percentile(result["settle"], 99.0) * 1000.0
    return out
