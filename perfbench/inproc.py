"""The sweep workloads: ``table2``, ``juliet`` and ``table2-fabric``.

Untraced passes call the study runners exactly as ``repro table2`` /
``repro table3`` do.  Traced passes drive the same sequence from the
benchmark's own loop (build, ``Session(tool)``, ``Session.instrument``,
codegen when the resolved engine is compiled, the engine's ``run``)
with a span around each call, and must reproduce the untraced outputs.
"""

from __future__ import annotations

import multiprocessing.resource_tracker
import os
import pickle
import time
from collections import Counter
from typing import Dict, List

from repro.analysis.detection import DETECTION_TOOLS, run_juliet_study
from repro.analysis.overhead import PERFORMANCE_TOOLS, run_overhead_study
from repro.analysis.parallel import (
    drain_pool,
    fabric_stats,
    overhead_worker,
    parallel_map,
)
from repro.passes.instrument import (
    clear_instrumentation_cache,
    instrumentation_cache_stats,
)
from repro.runtime import DEFAULT_COST_MODEL, Session
from repro.runtime.compiler import CompiledEngine, compile_program
from repro.sanitizers.base import Sanitizer
from repro.workloads.juliet import generate_juliet_suite
from repro.workloads.spec import SPEC_TABLE2_ROWS

from accounting import juliet_failure, table2_failure
from common import (
    SETUP_REPEATS,
    Meter,
    Report,
    SpeedProbe,
    Tracer,
    import_seconds,
    pid_alive,
    proc_children,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    run_passes,
)
from metrics import MIN_PASSES, put_end_to_end, put_layers

#: Fabric workers for ``table2-fabric``: ``nproc`` of a 2-vCPU machine,
#: fixed so the workload is the same anywhere.
FABRIC_JOBS = 2

#: ``table2-fabric`` set-ups: each one spawns the fabric and runs a
#: whole warm-up sweep, so fewer than ``SETUP_REPEATS``.
FABRIC_SETUP_REPEATS = 3

#: Juliet cases per timed unit (about 0.2 s of work between two speed
#: probes).
JULIET_CHUNK = 26

#: What a fresh interpreter imports before the first timed operation.
IMPORTS = [
    "repro.analysis.detection",
    "repro.analysis.overhead",
    "repro.analysis.parallel",
    "repro.runtime.compiler",
]

#: Per-layer runtime counters: metric -> CheckStats field.
CHECK_COUNTERS = {
    "runtime.checks": "checks_executed",
    "runtime.fast_checks": "fast_checks",
    "runtime.slow_checks": "slow_checks",
    "runtime.cached_hits": "cached_hits",
    "runtime.shadow_loads": "shadow_loads",
    "runtime.shadow_stores": "shadow_stores",
    "runtime.segments_scanned": "segments_scanned",
    "runtime.allocations": "allocations",
}


def add_runtime_counts(counts: Counter, result) -> None:
    """Accumulate one sanitized run's work counts."""
    counts["runtime.instructions"] += result.instructions_executed
    stats = result.stats.as_dict()
    for metric, name in CHECK_COUNTERS.items():
        counts[metric] += stats[name]
    counts["runtime.reports"] += len(result.errors.reports)


def run_digest(result) -> tuple:
    """Everything a Table 2 cell's verdict and figures depend on."""
    return (
        result.native_cycles,
        len(result.errors.reports),
        result.instructions_executed,
        tuple(sorted(result.stats.as_dict().items())),
    )


def row_digest(program: str, baseline: float, tools) -> tuple:
    """One Table 2 row: baseline cycles plus, per tool, its ratio and
    run digest; ``tools`` yields ``(tool, RunResult)``."""
    return (
        program,
        baseline,
        tuple(
            (tool, result.total_cycles() / baseline, run_digest(result))
            for tool, result in tools
        ),
    )


def rows_digest(rows) -> List[tuple]:
    """Digest of Table 2 rows (``ProgramOverheads``)."""
    return [
        row_digest(row.program, row.native_cycles, row.results.items())
        for row in rows
    ]


def account_table2(report: Report, digest: List[tuple]) -> None:
    """Attempts and failures of one Table 2 pass (Native runs count as
    attempts; they are the reference and cannot fail)."""
    for _, baseline, tools in digest:
        report.attempted += 1 + len(tools)
        for _, _, (native_cycles, reports, _, _) in tools:
            reason = table2_failure(reports, native_cycles, baseline)
            if reason:
                report.count_failure(reason)


def account_juliet(report: Report, cases, verdicts: List[bool]) -> None:
    """Attempts and failures of one Juliet pass; ``verdicts`` holds
    "reported" per (case, tool) in case-major order."""
    runs = ((case, tool) for case in cases for tool in DETECTION_TOOLS)
    for (case, tool), reported in zip(runs, verdicts):
        report.attempted += 1
        reason = juliet_failure(tool, case.buggy, case.latent, reported)
        if reason:
            report.count_failure(reason)


# ----------------------------------------------------------------------
# the traced loop
# ----------------------------------------------------------------------
def traced_run(tracer: Tracer, label: str, tool: str, program, args,
               counts: Counter):
    """One ``Session(tool).run(program, args)``, a span per layer call."""
    tracer.run_id = f"{label}:{tool}"
    with tracer.span("run"):
        with tracer.span("session.setup"):
            session = Session(tool)
            engine = session.engine(
                session.sanitizer,
                max_instructions=session.max_instructions,
                fastpath=session.fastpath,
                telemetry=session.telemetry,
            )
        counts["session.count"] += 1
        hits = instrumentation_cache_stats()["hits"]
        with tracer.span("passes.instrument"):
            iprogram = session.instrument(program)
        counts["passes.calls"] += 1
        counts["passes.memo_hits"] += instrumentation_cache_stats()["hits"] - hits
        counts["passes.static_checks"] += iprogram.stats.remaining_checks
        if isinstance(engine, CompiledEngine):
            with tracer.span("compiler.codegen"):
                table = compile_program(
                    iprogram.program,
                    engine.costs,
                    type(session.sanitizer).resolve_address
                    is not Sanitizer.resolve_address,
                    session.telemetry is not None,
                )
            counts["compiler.functions"] += len(table)
            counts["compiler.declined"] += (
                len(iprogram.program.functions) - len(table)
            )
        with tracer.span("runtime.execute"):
            return engine.run(iprogram, args)


def traced_table2_pass(specs, tracer: Tracer, counts: Counter,
                       report: Report) -> List[tuple]:
    """``run_overhead_study()`` (jobs=1, cold memo) from our own loop."""
    clear_instrumentation_cache()
    digest = []
    with tracer.span("pass"):
        for spec in specs:
            tracer.run_id = spec.name
            with tracer.span("workloads.build"):
                program = spec.build()
            counts["workloads.programs"] += 1
            args = [spec.default_scale]
            native = traced_run(tracer, spec.name, "Native", program, args,
                                counts)
            baseline = native.total_cycles(DEFAULT_COST_MODEL)
            # the untraced accounting compares against this baseline;
            # it stands for Native's native_cycles only if Native adds
            # no sanitizer cycles
            report.check(
                baseline == native.native_cycles,
                f"{spec.name}: Native total cycles differ from its "
                "native_cycles",
            )
            tools = []
            for tool in PERFORMANCE_TOOLS:
                result = traced_run(tracer, spec.name, tool, program, args,
                                    counts)
                add_runtime_counts(counts, result)
                tools.append((tool, result))
            digest.append(row_digest(spec.name, baseline, tools))
    return digest


def traced_juliet_pass(tracer: Tracer, counts: Counter) -> List[bool]:
    """``run_juliet_study()`` (jobs=1, cold memo) from our own loop."""
    clear_instrumentation_cache()
    verdicts = []
    with tracer.span("pass"):
        with tracer.span("workloads.build"):
            suite = generate_juliet_suite()
        counts["workloads.programs"] += len(suite)
        for case in suite:
            for tool in DETECTION_TOOLS:
                result = traced_run(tracer, case.case_id, tool, case.program,
                                    None, counts)
                add_runtime_counts(counts, result)
                verdicts.append(bool(result.errors))
    return verdicts


def traced_phase(report: Report, seconds: float, one_untraced, one_traced):
    """Trace mode: untraced passes for half the budget (at least two),
    then exactly two traced passes (the determinism gate compares them)."""
    untraced = run_passes(one_untraced, seconds / 2, min_passes=2)
    traced = []
    for _ in range(2):
        tracer = Tracer()
        counts: Counter = Counter()
        times: Dict[str, float] = {}
        start = time.perf_counter()
        output = one_traced(tracer, counts, times)
        traced.append({
            "wall_s": time.perf_counter() - start,
            "counts": counts,
            "times": times,
            "self_times": tracer.self_times(),
            "phases": {},
            "output": output,
        })
        report.spans.extend(tracer.dump())
    return untraced, traced


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def put_sweep_end_to_end(report: Report, passes: List[dict],
                         setups: List[dict]) -> None:
    # a "job" of a sweep workload is one sweep, as a CLI user waits on it
    put_end_to_end(report, passes, setups, (
        [1000 * p["ref_wall_s"] for p in passes],
        [1000 * p["wall_s"] for p in passes],
    ))


def measure_setups(probe: SpeedProbe, prepare,
                   repeats: int = SETUP_REPEATS) -> List[dict]:
    """``repeats`` set-ups: a fresh interpreter importing the study
    modules, then ``prepare()`` in this process."""
    setups = []
    for _ in range(repeats):
        meter = Meter(probe)
        meter.unit(lambda: import_seconds(IMPORTS))
        meter.unit(prepare)
        setups.append(meter.record())
    return setups


def table2(report: Report, probe: SpeedProbe, seed: int, seconds: float,
           trace: bool) -> None:
    # the paper's suite in the order ``repro table2`` runs it: the seed
    # has no input to vary here
    specs = list(SPEC_TABLE2_ROWS)
    setups = measure_setups(probe, lambda: None)
    reference: Dict[str, object] = {}

    def one_pass():
        clear_instrumentation_cache()
        meter = Meter(probe)
        # one study per program, each its own timed unit: the sweep is
        # the same loop, and the speed probe between programs follows
        # the machine's drift through the pass
        digest = rows_digest(
            row
            for spec in specs
            for row in meter.unit(
                lambda: run_overhead_study(programs=[spec])
            ).rows
        )
        reference.setdefault("digest", digest)
        report.check(digest == reference["digest"],
                     "table2 outputs changed between passes")
        account_table2(report, digest)
        return meter.record(runs=sum(1 + len(row[2]) for row in digest),
                            peak_rss_mb=proc_peak_rss_mb(os.getpid()))

    if not trace:
        passes = run_passes(one_pass, seconds, MIN_PASSES)
        put_sweep_end_to_end(report, passes, setups)
        return

    def one_traced(tracer, counts, times):
        digest = traced_table2_pass(specs, tracer, counts, report)
        account_table2(report, digest)
        return digest

    untraced, traced = traced_phase(report, seconds, one_pass, one_traced)
    for t in traced:
        report.check(t["output"] == reference["digest"],
                     "traced table2 outputs differ from run_overhead_study")
    put_layers(report, traced, untraced)


def juliet(report: Report, probe: SpeedProbe, seed: int, seconds: float,
           trace: bool) -> None:
    inputs: Dict[str, list] = {}

    def prepare():
        # the suite in the order ``repro table3`` runs it: with the
        # memo filling up mid-pass, another order would change which
        # repeated programs hit it, and the peak memory
        inputs["cases"] = generate_juliet_suite()

    setups = measure_setups(probe, prepare)
    cases = inputs["cases"]
    reference: Dict[str, object] = {}

    def verdicts_of_study(chunk) -> List[bool]:
        # one study per case keeps its per-case verdicts; the study
        # itself only returns per-CWE totals
        verdicts = []
        for case in chunk:
            result = run_juliet_study(cases=[case])
            for tool in DETECTION_TOOLS:
                verdicts.append(
                    result.detected[tool].get(case.cwe, 0) == 1
                    if case.buggy
                    else result.false_positives[tool] == 1
                )
        return verdicts

    def one_pass():
        clear_instrumentation_cache()
        meter = Meter(probe)
        verdicts = []
        for start in range(0, len(cases), JULIET_CHUNK):
            chunk = cases[start:start + JULIET_CHUNK]
            verdicts.extend(meter.unit(lambda: verdicts_of_study(chunk)))
        reference.setdefault("verdicts", verdicts)
        report.check(verdicts == reference["verdicts"],
                     "juliet verdicts changed between passes")
        account_juliet(report, cases, verdicts)
        return meter.record(runs=len(verdicts),
                            peak_rss_mb=proc_peak_rss_mb(os.getpid()))

    if not trace:
        passes = run_passes(one_pass, seconds, MIN_PASSES)
        put_sweep_end_to_end(report, passes, setups)
        return

    def one_traced(tracer, counts, times):
        verdicts = traced_juliet_pass(tracer, counts)
        account_juliet(report, cases, verdicts)
        return verdicts

    untraced, traced = traced_phase(report, seconds, one_pass, one_traced)
    for t in traced:
        report.check(t["output"] == reference["verdicts"],
                     "traced juliet verdicts differ from run_juliet_study")
    put_layers(report, traced, untraced)


def _worker_cpu(pids: List[int]) -> float:
    return sum(proc_cpu_seconds(pid) for pid in pids)


def table2_fabric(report: Report, probe: SpeedProbe, seed: int,
                  seconds: float, trace: bool) -> None:
    # the paper's suite in the order ``repro table2`` runs it
    specs = list(SPEC_TABLE2_ROWS)
    reference: Dict[str, object] = {}
    pids: List[int] = []

    def spawn_and_warm():
        drain_pool()
        # the first map spawns the fabric, then warms its workers' memos
        warm = run_overhead_study(programs=specs, jobs=FABRIC_JOBS)
        reference.setdefault("digest", rows_digest(warm.rows))

    def worker_pids() -> List[int]:
        return [worker["pid"] for worker in fabric_stats()["worker_stats"]]

    # the workers run on every CPU: probe the speed of each
    probe.cpus = sorted(os.sched_getaffinity(0))
    try:
        setups = measure_setups(probe, spawn_and_warm,
                                FABRIC_SETUP_REPEATS)
        pids = worker_pids()
        report.info["fabric_workers"] = len(pids)

        def one_pass():
            meter = Meter(
                probe, cpu=lambda: time.process_time() + _worker_cpu(pids)
            )
            study = meter.unit(
                lambda: run_overhead_study(programs=specs, jobs=FABRIC_JOBS)
            )
            digest = rows_digest(study.rows)
            report.check(digest == reference["digest"],
                         "table2-fabric outputs changed between passes")
            account_table2(report, digest)
            return meter.record(
                runs=sum(1 + len(row[2]) for row in digest),
                peak_rss_mb=sum(
                    proc_peak_rss_mb(pid) for pid in [os.getpid(), *pids]
                ),
            )

        if not trace:
            passes = run_passes(one_pass, seconds, MIN_PASSES)
            put_sweep_end_to_end(report, passes, setups)
        else:
            payloads = [
                (spec.name, PERFORMANCE_TOOLS, None, DEFAULT_COST_MODEL)
                for spec in specs
            ]

            def one_traced(tracer, counts, times):
                before = fabric_stats()
                workers_cpu = _worker_cpu(pids)
                start = time.perf_counter()
                with tracer.span("fabric.map"):
                    rows = parallel_map(
                        overhead_worker, payloads, FABRIC_JOBS,
                        shard_keys=[spec.name for spec in specs],
                    )
                wall = time.perf_counter() - start
                busy = _worker_cpu(pids) - workers_cpu
                after = fabric_stats()
                counts["fabric.units"] += (
                    after["units_dispatched"] - before["units_dispatched"]
                )
                counts["fabric.units_stolen"] += (
                    after["units_stolen"] - before["units_stolen"]
                )
                for old, new in zip(before["worker_stats"],
                                    after["worker_stats"]):
                    memo_old = old["instrumentation_cache"]
                    memo_new = new["instrumentation_cache"]
                    hits = memo_new["hits"] - memo_old["hits"]
                    counts["passes.memo_hits"] += hits
                    counts["passes.calls"] += hits + (
                        memo_new["misses"] - memo_old["misses"]
                    )
                counts["fabric.result_bytes"] += sum(
                    len(pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL))
                    for row in rows
                )
                times["fabric.worker_busy_s"] = busy
                times["fabric.worker_idle_s"] = max(
                    FABRIC_JOBS * wall - busy, 0.0
                )
                for row in rows:
                    for result in row.results.values():
                        add_runtime_counts(counts, result)
                digest = rows_digest(rows)
                account_table2(report, digest)
                return digest

            untraced, traced = traced_phase(report, seconds, one_pass,
                                            one_traced)
            # the in-process reference: the same sweep without the fabric
            clear_instrumentation_cache()
            inline = rows_digest(run_overhead_study(programs=specs).rows)
            report.check(inline == reference["digest"],
                         "table2-fabric rows differ from in-process table2")
            for t in traced:
                report.check(
                    t["output"] == reference["digest"],
                    "traced fabric rows differ from run_overhead_study",
                )
            put_layers(report, traced, untraced)
        report.check(worker_pids() == pids,
                     "fabric workers were replaced during the run")
    finally:
        probe.cpus = None
        drain = drain_pool()
    report.check(drain is None or drain.clean,
                 f"fabric drain was not clean: {drain and drain.as_dict()}")
    shutdown_resource_tracker()
    for pid in pids:
        report.check(not pid_alive(pid), f"fabric worker {pid} outlived run")
    report.check(not proc_children(os.getpid()),
                 "child processes outlived the fabric")


def shutdown_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker the fabric's shared
    memory started, so no process of ours outlives the run."""
    tracker = multiprocessing.resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
