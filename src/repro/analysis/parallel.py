"""Process-parallel experiment runner on the persistent execution fabric.

The (proxy × sanitizer) matrices behind Tables 2-5 and Figures 10/11 are
embarrassingly parallel: every cell is an isolated Session over a freshly
built program.  This module fans work units out across the long-lived
worker processes of :class:`repro.analysis.fabric.ExecutionFabric` and
merges results back in deterministic submission order, so parallel runs
are byte-identical to ``--jobs 1`` runs.

Work units are dispatched *by name/index* into the canonical registries
(:data:`repro.workloads.spec.SPEC_BY_NAME` and friends) rather than by
pickling built programs: a worker rebuilds its program locally, which
keeps payloads tiny and sidesteps pickling closures.  Results travel
back as plain dataclasses (RunResult, CheckStats, ErrorLog), pickled by
the worker and sent over the fabric's event queue.

Callers pass ``jobs`` (``1..MAX_JOBS``): ``1`` (the default everywhere)
runs inline with no multiprocessing machinery at all; anything larger
uses the shared fabric.  Custom item lists outside the registries travel
as objects and run inline, since workers cannot rebuild them.

A ``checkpoint`` runs only between batches, when no unit is in flight:
before each payload inline, every ``jobs * 2`` units on the fabric, and
after the last.  One that raises (a server cancel) abandons no unit.

The fabric persists across ``parallel_map`` calls — consecutive tables
of one sweep invocation reuse warm workers (and their instrumentation
memo / compiled-closure caches).  Every unit carries the
:class:`~repro.config.RunConfig` its study resolved in the parent, so
workers never consult their own environment and one warm fabric serves
any config.  It is retired only when the worker count changes, and that
retirement is a graceful *drain* (workers finish in-flight units and
exit cleanly); the hard ``terminate`` path is reserved for process exit.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import (
    TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, TypeVar,
)

if TYPE_CHECKING:  # the fabric (and multiprocessing) loads on first map
    from .fabric import DrainReport, ExecutionFabric

T = TypeVar("T")
U = TypeVar("U")

#: The most fabric workers one map may ask for: the bound on the CLI's
#: ``--jobs`` and on the server's ``worker_cap``.  Every worker is a
#: forked process, so an unchecked count could exhaust the host.
MAX_JOBS = 64

#: The shared fabric.  One ``repro`` sweep invocation runs many tables
#: back to back; recreating workers per table paid fork + cold caches
#: every time, which is what made ``--jobs 2`` lose to ``--jobs 1`` in
#: earlier BENCH_interpreter.json snapshots.
_FABRIC: Optional[ExecutionFabric] = None

#: Serializes every touch of the shared fabric.  A fabric ``map`` is a
#: stateful conversation (scheduler, in-flight table, event queue);
#: interleaving two maps from different threads — which the server's
#: concurrent sweep/fuzz jobs would otherwise do — corrupts both.
#: Re-entrant so a worker function that (inline) calls ``parallel_map``
#: again on the same thread cannot deadlock against itself.
_FABRIC_LOCK = threading.RLock()


def default_jobs() -> int:
    """A sensible worker count for ``--jobs`` defaults.

    Uses the scheduler's CPU *affinity* mask (which reflects cgroup /
    container quotas and ``taskset`` pinning) rather than the raw
    ``cpu_count()``, which oversubscribes containerized runs; falls back
    to ``cpu_count()`` where affinity is unsupported (macOS, Windows).
    """
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except (AttributeError, OSError):
        return max(os.cpu_count() or 1, 1)


def drain_pool(timeout: float = 30.0) -> Optional[DrainReport]:
    """Gracefully retire the shared fabric (worker-count change).

    Workers finish any in-flight unit, then exit cleanly — nothing is
    killed unless a worker wedges past ``timeout``.  Returns the
    fabric's :class:`~repro.analysis.fabric.DrainReport` (None when no
    fabric was live) so callers can see — and re-queue — anything a
    non-clean drain dropped.
    """
    global _FABRIC
    with _FABRIC_LOCK:
        report = None
        if _FABRIC is not None:
            report = _FABRIC.drain(timeout=timeout)
        _FABRIC = None
        return report


def shutdown_pool() -> None:
    """Hard-stop the shared fabric (atexit hook and test isolation)."""
    global _FABRIC
    with _FABRIC_LOCK:
        if _FABRIC is not None:
            _FABRIC.terminate()
        _FABRIC = None


atexit.register(shutdown_pool)


def _shared_fabric(processes: int) -> ExecutionFabric:
    """The persistent fabric for ``processes`` workers, recreated only
    when the worker count changed."""
    global _FABRIC
    if (
        _FABRIC is not None
        and _FABRIC.workers == processes
        and not _FABRIC._closed
    ):
        return _FABRIC
    drain_pool()
    from .fabric import ExecutionFabric

    _FABRIC = ExecutionFabric(processes)
    return _FABRIC


def fabric_stats() -> Optional[dict]:
    """Aggregate counters of the live fabric (None when inline-only).

    Includes per-worker unit counts and instrumentation-memo hit/miss
    counters, which is how tests assert warm-cache reuse across
    consecutive tables.
    """
    with _FABRIC_LOCK:
        if _FABRIC is None or _FABRIC._closed:
            return None
        stats = _FABRIC.stats()
        stats["worker_stats"] = _FABRIC.worker_stats()
        return stats


def parallel_map(
    worker: Callable[[T], U],
    payloads: Sequence[T],
    jobs: Optional[int],
    shard_keys: Optional[Sequence] = None,
    checkpoint: Optional[Callable[[List[U], int], None]] = None,
) -> List[U]:
    """Ordered map over ``payloads`` with up to ``jobs`` fabric workers.

    ``jobs`` of None/0/1 (or a single payload) runs inline.  Workers
    must be module-level functions and payloads picklable.  Results come
    back in submission order regardless of completion order, which is
    what makes parallel table sweeps deterministic.

    ``shard_keys`` (one per payload, typically the program name) pin
    units to home workers so repeated sweeps reuse warm per-worker
    caches; idle workers steal from the largest remaining shard.  When
    omitted, units round-robin by index.

    ``checkpoint(done, total)`` — ``done`` the results so far, in
    submission order — runs only between batches, when no unit is in
    flight (module doc).  Whatever it raises propagates unchanged.
    """
    payloads = list(payloads)
    total = len(payloads)
    jobs = max(int(jobs or 1), 1)
    keys = list(range(total)) if shard_keys is None else list(shard_keys)
    inline = jobs == 1 or total <= 1
    # without a checkpoint the fabric gets every unit in one map
    batch = 1 if inline else jobs * 2 if checkpoint else total
    checkpoint = checkpoint or (lambda done, total: None)
    results: List[U] = []
    for start in range(0, total, batch):
        checkpoint(results, total)
        if inline:
            results.append(worker(payloads[start]))
            continue
        part = slice(start, start + batch)
        # One map at a time: the fabric's dispatch state is a single
        # conversation, and the server runs parallel_map from several
        # job threads concurrently.
        with _FABRIC_LOCK:
            results.extend(
                _shared_fabric(jobs).map(
                    worker, payloads[part], shard_keys=keys[part]
                )
            )
    checkpoint(results, total)
    return results


def chunk_ranges(total: int, jobs: int) -> List[tuple]:
    """Split ``range(total)`` into at most ``jobs`` contiguous spans."""
    jobs = max(min(jobs, total), 1)
    base, extra = divmod(total, jobs)
    spans = []
    start = 0
    for worker_index in range(jobs):
        size = base + (1 if worker_index < extra else 0)
        if size:
            spans.append((start, start + size))
            start += size
    return spans


#: Spans per worker when slicing for the fabric: finer-grained than one
#: span per worker so work stealing has units to move when one slice
#: straggles.  Results stay byte-identical for any granularity because
#: spans are merged back in ascending submission order.
STEAL_GRANULARITY = 4


def steal_spans(total: int, jobs: int) -> List[tuple]:
    """Contiguous spans sized for work stealing: ``jobs * 4`` slices.

    ``jobs <= 1`` degrades to a single span (the inline path).
    """
    jobs = max(int(jobs or 1), 1)
    return chunk_ranges(total, 1 if jobs == 1 else jobs * STEAL_GRANULARITY)


def case_spans(total: int, jobs: int, inline_cases: int) -> List[tuple]:
    """The span plan of a case sweep (Juliet, fuzz): :func:`steal_spans`
    on the fabric, spans of at most ``inline_cases`` inline so checkpoints
    come every few cases.  Spans merge in order, so output never changes.
    """
    if jobs <= 1:
        return chunk_ranges(total, -(-total // inline_cases))
    return steal_spans(total, jobs)


def spec_refs(programs: Sequence, jobs: int) -> Tuple[list, int]:
    """Payload references for SPEC proxies and the ``jobs`` they may
    use: names at any ``jobs`` for canonical proxies, the objects
    themselves inline for a custom list (workers could not rebuild it).
    """
    from ..workloads.spec import SPEC_BY_NAME

    if all(SPEC_BY_NAME.get(spec.name) is spec for spec in programs):
        return [spec.name for spec in programs], jobs
    return list(programs), 1


def _resolve(ref, registry):
    """The registry item a payload reference names (or the object)."""
    return registry[ref] if isinstance(ref, (str, int)) else ref


# ----------------------------------------------------------------------
# module-level workers (must be importable for the fabric); each payload
# names its item by registry name or index, or carries the object itself
# on the inline path, and ends with the RunConfig the parent resolved
# ----------------------------------------------------------------------
def overhead_worker(payload):
    """One Table 2 row: run one SPEC proxy under every tool.

    A 4-tuple payload without the config runs under the worker's
    process default (:meth:`RunConfig.from_env`)."""
    ref, tools, scale, cost_model, *config = payload
    from ..workloads.spec import SPEC_BY_NAME
    from .overhead import measure_program

    return measure_program(
        _resolve(ref, SPEC_BY_NAME), tools, scale=scale,
        cost_model=cost_model, config=config[0] if config else None,
    )


def figure10_worker(payload):
    """One Figure 10 bar: GiantSan check breakdown for one proxy."""
    ref, scale, config = payload
    from ..workloads.spec import SPEC_BY_NAME
    from .figures import measure_check_breakdown

    return measure_check_breakdown(
        _resolve(ref, SPEC_BY_NAME), scale, config
    )


def figure11_worker(payload):
    """One Figure 11 cell: one traversal pattern at one size, all tools."""
    pattern_index, size, cost_model, config = payload
    from ..runtime import Session
    from ..workloads.traversals import FIGURE11_PATTERNS
    from .figures import FIGURE11_TOOLS, TraversalPoint

    pattern = FIGURE11_PATTERNS[pattern_index]
    program = pattern.build(size)
    points = []
    for tool in FIGURE11_TOOLS:
        result = Session(tool, config, cost_model=cost_model).run(program)
        points.append(
            TraversalPoint(
                pattern=pattern.name,
                size=size,
                tool=tool,
                cycles=result.total_cycles(cost_model),
            )
        )
    return points


def profile_worker(payload):
    """One ``repro profile`` row: telemetry run of one SPEC proxy."""
    ref, tool, scale, config = payload
    from ..workloads.spec import SPEC_BY_NAME
    from .profile import profile_program

    return profile_program(_resolve(ref, SPEC_BY_NAME), tool, scale, config)


def juliet_worker(payload):
    """Per-tool detection rows for a contiguous slice of Juliet cases.

    The slice is a ``(lo, hi)`` span of the canonical suite or a list of
    cases.  The suite is generated once per worker process (persistent
    fabric workers keep it across slices and tables) instead of being
    rebuilt from scratch for every slice, which made each unit pay
    O(total suite) generation work for an O(slice) run.
    """
    cases, tools, config = payload
    from ..workloads.juliet import juliet_suite_cached
    from .detection import detects

    if isinstance(cases, tuple):
        lo, hi = cases
        cases = juliet_suite_cached()[lo:hi]
    return [
        {tool: detects(tool, case.program, config) for tool in tools}
        for case in cases
    ]


def linux_flaw_worker(payload):
    """One Table 4 row: run one CVE scenario under every tool."""
    ref, tools, config = payload
    from ..workloads.linux_flaw import TABLE4_SCENARIOS
    from .detection import scenario_row

    scenario = _resolve(ref, TABLE4_SCENARIOS)
    return scenario.cve_id, scenario_row(scenario, tools, config)


def magma_worker(payload):
    """One Table 5 row: one Magma project under every configuration."""
    ref, config = payload
    from ..workloads.magma import TABLE5_PROJECTS
    from .detection import project_counts

    project = _resolve(ref, TABLE5_PROJECTS)
    return project.name, project_counts(project, config), project.total
