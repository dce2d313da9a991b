"""Turning pass records into the reported metrics, for every workload.

A pass record holds at least ``wall_s``; untraced passes add ``cpu_s``,
their reference-second twins ``ref_wall_s`` / ``ref_cpu_s``, ``runs``
and ``peak_rss_mb``; traced passes add ``counts``, ``times`` (extra
per-layer seconds), ``phases`` (per-job millisecond samples) and
``self_times`` (per span name, from :meth:`common.Tracer.self_times`).
"""

from __future__ import annotations

import statistics
from typing import List, Tuple

from common import Report, percentile

#: Untraced passes per run at least: the first pass of a process runs on
#: cold process-wide caches, and the median of three is a warm pass.
MIN_PASSES = 3

#: Counts that must repeat exactly between two traced passes.
#: ``passes.memo_hits`` and ``fabric.units_stolen`` are left out: work
#: stealing and the server's job interleaving move them.
GATED_COUNTS = [
    "runtime.instructions",
    "runtime.checks",
    "runtime.fast_checks",
    "runtime.slow_checks",
    "runtime.cached_hits",
    "runtime.shadow_loads",
    "runtime.shadow_stores",
    "runtime.segments_scanned",
    "runtime.allocations",
    "runtime.reports",
    "passes.calls",
    "passes.static_checks",
    "compiler.functions",
    "compiler.declined",
    "session.count",
    "workloads.programs",
    "fabric.units",
    "fabric.result_bytes",
    "server.requests",
    "server.result_bytes",
]

#: Span name -> per-layer time metric (seconds of self time).
SPAN_METRICS = {
    "runtime.execute": "runtime.execute_s",
    "passes.instrument": "passes.instrument_s",
    "compiler.codegen": "compiler.codegen_s",
    "session.setup": "session.setup_s",
    "workloads.build": "workloads.build_s",
    "fabric.map": "fabric.map_s",
}

#: Spans of the benchmark's own loops; their self time is harness time.
HARNESS_SPANS = ("pass", "run", "job")


def put_setup(report: Report, setups: List[dict]) -> None:
    report.put("setup_s",
               statistics.median(s["ref_wall_s"] for s in setups), "s",
               len(setups),
               raw=statistics.median(s["wall_s"] for s in setups))


def put_end_to_end(report: Report, passes: List[dict], setups: List[dict],
                   latencies_ms: Tuple[List[float], List[float]]) -> None:
    """The end-to-end metrics in reference seconds, each with its
    uncalibrated figure alongside; ``latencies_ms`` are the job
    latencies as (reference, uncalibrated) samples."""
    put_setup(report, setups)
    n = len(passes)
    report.put(
        "runs_per_s",
        statistics.median(p["runs"] / p["ref_wall_s"] for p in passes),
        "1/s", n,
        raw=statistics.median(p["runs"] / p["wall_s"] for p in passes),
    )
    report.put("cpu_s", statistics.median(p["ref_cpu_s"] for p in passes),
               "s", n, raw=statistics.median(p["cpu_s"] for p in passes))
    # read after a fixed number of passes, so runs of different lengths
    # compare
    report.put("peak_rss_mb", passes[MIN_PASSES - 1]["peak_rss_mb"], "MB",
               MIN_PASSES)
    ref, raw = latencies_ms
    for name, q in (("job_p50_ms", 50), ("job_p90_ms", 90)):
        report.put(name, percentile(ref, q), "ms", len(ref),
                   raw=percentile(raw, q))


def put_layers(report: Report, traced: List[dict],
               untraced: List[dict]) -> None:
    """Per-layer metrics from two traced passes, with the determinism
    gate and the tracing overhead against the untraced passes.  Layer
    times are uncalibrated: they only split a pass, they have no bound."""
    first, second = traced[0]["counts"], traced[1]["counts"]
    for name in GATED_COUNTS:
        report.check(
            first[name] == second[name],
            f"determinism: {name} {first[name]} != {second[name]} "
            "between two traced passes",
        )
    for name in sorted(first):
        unit = "B" if name.endswith("_bytes") else "count"
        report.put(name, first[name], unit, 1)
    calls = first["passes.calls"]
    if calls:
        hits = statistics.median(t["counts"]["passes.memo_hits"]
                                 for t in traced)
        report.put("passes.memo_hit_ratio", hits / calls, "ratio", calls)
    spans = traced[0]["self_times"]
    for span, metric in SPAN_METRICS.items():
        if span in spans:
            report.put(
                metric,
                statistics.median(sum(t["self_times"][span]) for t in traced),
                "s", len(spans[span]),
            )
    for name in traced[0]["times"]:
        report.put(name, statistics.median(t["times"][name] for t in traced),
                   "s", len(traced))
    for name in traced[0]["phases"]:
        samples = [v for t in traced for v in t["phases"][name]]
        report.put(name, statistics.median(samples), "ms", len(samples))
    report.put(
        "harness.self_s",
        statistics.median(
            sum(sum(t["self_times"].get(span, [])) for span in HARNESS_SPANS)
            for t in traced
        ),
        "s", len(traced),
    )
    traced_s = statistics.median(t["wall_s"] for t in traced)
    # the first pass of a process runs on cold caches: leave it out
    untraced_s = statistics.median(u["wall_s"] for u in untraced[1:])
    report.put("trace.pass_s", traced_s, "s", len(traced))
    report.put("trace.overhead_s", traced_s - untraced_s, "s",
               len(traced) + len(untraced) - 1)
