"""The persistent execution fabric: determinism, warm caches, lifecycle.

Three families of guarantees:

(a) **Byte-identical results** — Table 2 / Table 3 / fuzz sweeps must
    produce exactly the same output for jobs=1, jobs=2, and jobs=4;
    sharding and work stealing may reorder *execution* but never
    results.
(b) **Warm-cache reuse** — consecutive tables on one fabric must hit
    the per-worker instrumentation memo (the whole point of persistent
    workers), observable through the fabric's worker stats.
(c) **Graceful lifecycle** — a run-config change travels inside the
    units and keeps the warm workers; only a worker-count change retires
    the old fabric, by *draining* it (workers exit cleanly, exit code
    0), never by killing in-flight work.
"""

import dataclasses
import os

import pytest

from repro.analysis import run_overhead_study
from repro.analysis.detection import run_juliet_study, run_linux_flaw_study
from repro.analysis.fabric import ExecutionFabric, _Scheduler, shard_slot
from repro.analysis.fabric import FabricError, worker_ref
from repro.analysis import parallel
from repro.analysis.parallel import (
    default_jobs,
    fabric_stats,
    figure10_worker,
    overhead_worker,
    parallel_map,
    shutdown_pool,
    steal_spans,
)
from repro.config import RunConfig
from repro.runtime import DEFAULT_COST_MODEL
from repro.fuzz.driver import FuzzSummary, fuzz_worker

#: The run config every hand-built unit below carries.
CONFIG = RunConfig.from_env()


def _fig10_units(*names):
    """Figure 10 work units at scale 2."""
    return [(name, 2, CONFIG) for name in names]


@pytest.fixture(autouse=True)
def _fresh_fabric():
    """Each test starts and ends without a live fabric."""
    shutdown_pool()
    yield
    shutdown_pool()


def _overhead_fingerprint(study):
    return [
        (row.program, row.native_cycles, row.ratios) for row in study.rows
    ]


class TestByteIdenticalResults:
    def test_table2_jobs_matrix(self):
        reference = None
        for jobs in (1, 2, 4):
            study = run_overhead_study(scale=2, jobs=jobs)
            fingerprint = _overhead_fingerprint(study)
            if reference is None:
                reference = fingerprint
            else:
                assert fingerprint == reference, f"jobs={jobs} diverged"

    def test_juliet_jobs_matrix(self):
        reference = None
        for jobs in (1, 2, 4):
            results = run_juliet_study(jobs=jobs)
            fingerprint = (
                results.detected,
                results.totals,
                results.false_positives,
                results.latent,
            )
            if reference is None:
                reference = fingerprint
            else:
                assert fingerprint == reference, f"jobs={jobs} diverged"

    def test_linux_flaw_jobs_matrix(self):
        reference = None
        for jobs in (1, 2):
            results = run_linux_flaw_study(jobs=jobs)
            if reference is None:
                reference = results.outcomes
            else:
                assert results.outcomes == reference

    def test_fuzz_jobs_matrix(self):
        def sweep(jobs):
            spans = steal_spans(60, jobs)
            payloads = [
                (11, start, stop, 0.55, False, False, CONFIG)
                for start, stop in spans
            ]
            summary = FuzzSummary()
            for partial in parallel_map(
                fuzz_worker,
                payloads,
                jobs,
                shard_keys=[("fuzz", start) for start, _ in spans],
            ):
                summary.merge(partial)
            return (
                summary.cases,
                summary.buggy_cases,
                summary.invariant_checks,
                summary.findings,
            )

        reference = sweep(1)
        for jobs in (2, 4):
            assert sweep(jobs) == reference, f"jobs={jobs} diverged"

    def test_steal_spans_cover_range_in_order(self):
        for total, jobs in [(449, 3), (7, 4), (1, 2), (0, 2), (24, 1)]:
            spans = steal_spans(total, jobs)
            covered = [i for lo, hi in spans for i in range(lo, hi)]
            assert covered == list(range(total))
        # jobs=1 degrades to a single span (the inline path)
        assert steal_spans(100, 1) == [(0, 100)]
        # jobs>1 overpartitions so stealing has units to move
        assert len(steal_spans(100, 2)) > 2


class TestWarmCaches:
    @staticmethod
    def _distinct_home_programs():
        """Two SPEC proxies homed on different workers of a 2-fabric.

        One unit per worker at kickoff means no stealing can occur, so
        shard placement — and therefore which worker instruments what —
        is fully deterministic.
        """
        from repro.workloads.spec import SPEC_TABLE2_ROWS

        by_slot = {}
        for spec in SPEC_TABLE2_ROWS:
            by_slot.setdefault(shard_slot(spec.name, 2), spec)
            if len(by_slot) == 2:
                break
        return [by_slot[0], by_slot[1]]

    def test_instrumentation_memo_reused_across_tables(self):
        from repro.analysis.figures import run_figure10_study

        programs = self._distinct_home_programs()
        # the memo is what is under test, whatever REPRO_INSTRUMENT_CACHE
        # says for the rest of the suite
        config = RunConfig.from_env(memoize=True)
        # table 2 over two proxies: cold workers instrument everything
        run_overhead_study(
            programs=programs, scale=2, jobs=2, config=config
        )
        stats_cold = fabric_stats()
        assert stats_cold is not None
        cold_hits = sum(
            w["instrumentation_cache"]["hits"]
            for w in stats_cold["worker_stats"]
        )
        cold_misses = sum(
            w["instrumentation_cache"]["misses"]
            for w in stats_cold["worker_stats"]
        )
        assert cold_misses > 0
        # figure 10 over the same proxies rides the same fabric: the
        # GiantSan instrumentation each worker needs is already in its
        # memo, so hits grow and misses do not
        run_figure10_study(
            programs=programs, scale=2, jobs=2, config=config
        )
        stats_warm = fabric_stats()
        assert stats_warm["maps_completed"] == 2
        warm_hits = sum(
            w["instrumentation_cache"]["hits"]
            for w in stats_warm["worker_stats"]
        )
        warm_misses = sum(
            w["instrumentation_cache"]["misses"]
            for w in stats_warm["worker_stats"]
        )
        assert warm_hits > cold_hits
        assert warm_misses == cold_misses

    def test_worker_stats_report_every_fixed_cost_cache(self):
        run_overhead_study(
            programs=self._distinct_home_programs(), scale=2, jobs=2
        )
        for worker in fabric_stats()["worker_stats"]:
            caches = worker["instrumentation_cache"]
            for name in ("code", "summaries", "shadow_templates"):
                assert set(caches[name]) == {"hits", "misses", "entries"}
            # every worker ran ASan-family sessions and compiled code
            assert caches["shadow_templates"]["entries"] >= 1
            assert caches["code"]["entries"] >= 1

    def test_same_fabric_survives_consecutive_tables(self):
        run_overhead_study(scale=2, jobs=2)
        first = parallel._FABRIC
        assert first is not None
        run_linux_flaw_study(jobs=2)
        assert parallel._FABRIC is first
        pids = {w["pid"] for w in fabric_stats()["worker_stats"]}
        assert len(pids) == 2  # two live, distinct worker processes


def _row_fingerprint(row):
    """A Table 2 row with every config-dependent observable: stats and
    (when telemetry is on) the deterministic telemetry counters."""
    return (
        row.program,
        row.native_cycles,
        row.ratios,
        {
            tool: (
                result.stats.as_dict(),
                None if result.telemetry is None
                else result.telemetry.counters,
            )
            for tool, result in row.results.items()
        },
    )


class TestLifecycle:
    def test_config_change_keeps_warm_workers(self, monkeypatch):
        names = ["505.mcf_r", "519.lbm_r", "508.namd_r"]
        tools = ["GiantSan", "ASan"]
        plain = RunConfig.from_env(telemetry=False)
        traced = plain.replace(telemetry=True, engine="compiled")
        rows, pids = {}, {}
        for label, config in (("plain", plain), ("traced", traced)):
            payloads = [
                (name, tools, 2, DEFAULT_COST_MODEL, config)
                for name in names
            ]
            fabric_rows = parallel_map(
                overhead_worker, payloads, 2, shard_keys=names
            )
            pids[label] = [p.pid for p in parallel._FABRIC.processes]
            # variables outside the run config never retire the fabric
            monkeypatch.setenv("REPRO_SERVE_PORT", label)
            inline_rows = parallel_map(overhead_worker, payloads, 1)
            rows[label] = [_row_fingerprint(r) for r in fabric_rows]
            assert rows[label] == [
                _row_fingerprint(r) for r in inline_rows
            ], label
        assert pids["plain"] == pids["traced"]  # no re-fork
        # the config really travelled: telemetry appears only in one map
        assert rows["plain"] != rows["traced"]

    def test_worker_count_change_drains_gracefully(self):
        parallel_map(
            figure10_worker,
            _fig10_units("505.mcf_r", "519.lbm_r", "508.namd_r"),
            2,
        )
        old = parallel._FABRIC
        assert old is not None
        old_processes = old.processes
        parallel_map(
            figure10_worker,
            _fig10_units("505.mcf_r", "519.lbm_r", "508.namd_r"),
            3,
        )
        assert parallel._FABRIC is not old
        # drained, not terminated: every worker exited cleanly
        assert [p.exitcode for p in old_processes] == [0, 0]

    def test_shutdown_pool_is_idempotent(self):
        parallel_map(
            figure10_worker, _fig10_units("505.mcf_r", "519.lbm_r"), 2
        )
        shutdown_pool()
        shutdown_pool()
        assert fabric_stats() is None

    def test_worker_exception_propagates_and_fabric_recovers(self):
        with pytest.raises(Exception) as excinfo:
            parallel_map(
                figure10_worker,
                _fig10_units("505.mcf_r", "no-such-program"),
                2,
            )
        assert "no-such-program" in str(excinfo.value) or "KeyError" in str(
            excinfo.value
        )
        # the fabric survives a unit failure and keeps serving
        results = parallel_map(
            figure10_worker, _fig10_units("505.mcf_r", "519.lbm_r"), 2
        )
        assert [r.program for r in results] == ["505.mcf_r", "519.lbm_r"]


class TestCheckpoint:
    """``parallel_map``'s checkpoint runs only at batch boundaries, when
    no unit is in flight, so a raising checkpoint abandons nothing."""

    NAMES = ["505.mcf_r", "519.lbm_r", "508.namd_r", "505.mcf_r", "519.lbm_r"]

    def test_inline_checkpoint_before_each_payload_and_after_last(self):
        seen = []
        results = parallel_map(
            abs, [-1, -2, -3], 1,
            checkpoint=lambda done, total: seen.append((list(done), total)),
        )
        assert results == [1, 2, 3]
        assert seen == [([], 3), ([1], 3), ([1, 2], 3), ([1, 2, 3], 3)]

    def test_fabric_checkpoint_every_two_units_per_worker(self):
        seen = []

        def checkpoint(done, total):
            fabric = parallel._FABRIC
            inflight = fabric.stats()["units_inflight"] if fabric else 0
            seen.append((len(done), total, inflight))

        results = parallel_map(
            figure10_worker, _fig10_units(*self.NAMES), 2,
            checkpoint=checkpoint,
        )
        assert [r.program for r in results] == self.NAMES
        assert seen == [(0, 5, 0), (4, 5, 0), (5, 5, 0)]

    def test_raising_checkpoint_abandons_no_fabric_unit(self):
        class Stop(Exception):
            pass

        def checkpoint(done, total):
            if done:
                raise Stop

        with pytest.raises(Stop):
            parallel_map(
                figure10_worker, _fig10_units(*self.NAMES), 2,
                checkpoint=checkpoint,
            )
        report = parallel.drain_pool()
        assert report is not None and report.clean, report.as_dict()

    def test_custom_lists_run_inline_with_registry_results(self):
        """Items outside the registries travel as objects, forced to
        jobs=1: no fabric starts, and the rows match the registry path."""
        from repro.analysis import run_figure10_study, run_magma_study
        from repro.workloads.juliet import juliet_suite_cached
        from repro.workloads.linux_flaw import TABLE4_SCENARIOS
        from repro.workloads.magma import TABLE5_PROJECTS
        from repro.workloads.spec import SPEC_BY_NAME

        spec = SPEC_BY_NAME["505.mcf_r"]
        copy = dataclasses.replace(spec)
        assert run_figure10_study(programs=[copy], scale=2, jobs=2) == (
            run_figure10_study(programs=[spec], scale=2, jobs=1)
        )
        cases = juliet_suite_cached()[:40]
        assert run_juliet_study(cases=cases, jobs=2) == run_juliet_study(
            cases=list(cases)
        )
        scenarios = TABLE4_SCENARIOS[:3]
        assert (
            run_linux_flaw_study(scenarios=scenarios, jobs=2).outcomes
            == {
                cve: row
                for cve, row in run_linux_flaw_study().outcomes.items()
                if cve in {s.cve_id for s in scenarios}
            }
        )
        project = TABLE5_PROJECTS[0]
        custom = run_magma_study(projects=[project], jobs=2)
        assert custom.detected[project.name] == (
            run_magma_study().detected[project.name]
        )
        assert parallel._FABRIC is None


class TestScheduler:
    def test_affinity_prefers_home_worker(self):
        sched = _Scheduler(workers=2)
        keys = ["a", "b", "c", "d"]
        units = [(i, "ref", i) for i in range(4)]
        sched.submit(units, keys)
        for key in keys:
            home = shard_slot(key, 2)
            unit = sched.take(home)
            # the home worker gets its own shard without stealing
            assert unit is not None
        assert sched.steals == 0

    def test_idle_worker_steals_largest_shard(self):
        sched = _Scheduler(workers=2)
        # every unit lands on one shard homed on one worker
        key = "hot"
        home = shard_slot(key, 2)
        thief = 1 - home
        sched.submit([(i, "ref", i) for i in range(6)], [key] * 6)
        assert sched.take(thief) is not None
        assert sched.steals == 1
        # the home worker still drains its own shard
        assert sched.take(home) is not None
        assert sched.steals == 1

    def test_shard_slot_deterministic(self):
        assert shard_slot("505.mcf_r", 4) == shard_slot("505.mcf_r", 4)
        slots = {shard_slot(f"program-{i}", 4) for i in range(32)}
        assert slots == {0, 1, 2, 3}  # spreads across workers

    def test_exhaustion_returns_none(self):
        sched = _Scheduler(workers=2)
        sched.submit([(0, "ref", 0)], ["k"])
        assert sched.take(0) is not None
        assert sched.take(0) is None
        assert sched.take(1) is None


class TestDefaultJobs:
    def test_respects_cpu_affinity(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no sched_getaffinity on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_jobs() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def unsupported(pid):
            raise OSError("no affinity")

        monkeypatch.setattr(
            os, "sched_getaffinity", unsupported, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_jobs() == 3

    def test_at_least_one(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(), raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_jobs() >= 1


class TestFabricDirect:
    def test_ordered_results_with_skewed_shards(self):
        fabric = ExecutionFabric(2)
        try:
            payloads = _fig10_units("505.mcf_r")  # warm-up
            fabric.map(figure10_worker, payloads, shard_keys=["x"])
            names = ["505.mcf_r", "519.lbm_r", "508.namd_r", "557.xz_r"]
            # all units on ONE shard: the other worker must steal, yet
            # results come back in submission order
            results = fabric.map(
                figure10_worker,
                _fig10_units(*names),
                shard_keys=["hot"] * len(names),
            )
            assert [r.program for r in results] == names
            assert fabric.stats()["units_stolen"] > 0
        finally:
            fabric.drain()
        assert [p.exitcode for p in fabric.processes] == [0, 0]

    def test_more_workers_than_units(self):
        fabric = ExecutionFabric(4)
        try:
            results = fabric.map(
                figure10_worker,
                _fig10_units("505.mcf_r"),
                shard_keys=["only"],
            )
            assert results[0].program == "505.mcf_r"
        finally:
            fabric.drain()


# ----------------------------------------------------------------------
# worker functions for the drain-report tests (module-level so the
# fabric can dispatch them by reference)
# ----------------------------------------------------------------------
def wedge_worker(payload):
    """Sleeps far past any drain timeout: an artificially stuck worker."""
    import time as _time

    _time.sleep(payload)
    return "woke"


def quick_worker(payload):
    return payload * 2


def sized_worker(size):
    """A ``size``-byte result whose content shows any corruption."""
    return (bytes(range(251)) * (size // 251 + 1))[:size]


def lambda_worker(payload):
    return lambda: payload  # no pickler can ship this


class TestResultTransport:
    def test_results_of_every_size_arrive_intact_in_order(self):
        # straddle the 64 KiB pipe buffer; 2 MiB once took the inline path
        sizes = [0, 64 * 1024 - 1, 64 * 1024 + 1, 2 * 1024 * 1024]
        fabric = ExecutionFabric(2)
        try:
            results = fabric.map(
                sized_worker, sizes, shard_keys=["hot"] * len(sizes)
            )
            assert results == [sized_worker(size) for size in sizes]
        finally:
            assert fabric.drain().clean

    def test_unpicklable_result_fails_the_unit_not_the_fabric(self):
        fabric = ExecutionFabric(2)
        try:
            pids = [p.pid for p in fabric.processes]
            with pytest.raises(FabricError) as excinfo:
                fabric.map(lambda_worker, [1], shard_keys=["x"])
            # the worker's pickling traceback, not a dead-worker report
            assert "pickle" in str(excinfo.value).lower()
            results = fabric.map(quick_worker, [1, 2], shard_keys=["a", "b"])
            assert results == [2, 4]
            assert [p.pid for p in fabric.processes] == pids
        finally:
            report = fabric.drain()
        assert report.clean
        assert [p.exitcode for p in fabric.processes] == [0, 0]


class TestDrainReport:
    def test_clean_drain_between_maps_loses_nothing(self):
        fabric = ExecutionFabric(2)
        fabric.map(quick_worker, [1, 2, 3], shard_keys=["a", "b", "c"])
        report = fabric.drain()
        assert report.clean
        assert report.as_dict() == {
            "clean": True,
            "stuck_workers": [],
            "lost_units": [],
            "unclaimed_results": 0,
            "pending_units": 0,
        }
        assert [p.exitcode for p in fabric.processes] == [0, 0]

    def test_wedged_worker_reports_lost_unit_instead_of_silence(self):
        fabric = ExecutionFabric(2)
        ref = worker_ref(wedge_worker)
        # hand worker 0 a unit that outsleeps the drain timeout
        fabric._scheduler.submit([(0, ref, 60.0)], ["wedge"])
        fabric._assign(0)
        report = fabric.drain(timeout=0.5)
        assert not report.clean
        assert report.stuck_workers == ["repro-fabric-0"]
        assert report.lost_units == [
            {"worker": "repro-fabric-0", "seq": 0, "ref": ref}
        ]
        assert report.unclaimed_results == 0
        # the wedged worker was terminated; the idle one exited cleanly
        assert fabric.processes[0].exitcode != 0
        assert fabric.processes[1].exitcode == 0

    def test_abandoned_map_results_counted_as_unclaimed(self):
        import time as time_module

        fabric = ExecutionFabric(2)
        ref = worker_ref(quick_worker)
        # dispatch a unit and abandon the map conversation: its result
        # lands in the event queue with nobody left to claim it
        fabric._scheduler.submit([(0, ref, 21)], ["orphan"])
        fabric._assign(0)
        deadline = time_module.monotonic() + 10.0
        while time_module.monotonic() < deadline:
            time_module.sleep(0.05)
            if not fabric._events.empty():
                break
        report = fabric.drain(timeout=10.0)
        assert report.stuck_workers == []
        assert report.lost_units == []
        assert report.unclaimed_results == 1

    @pytest.mark.parametrize(
        "size", [200 * 1024, 2 * 1024 * 1024], ids=["200KiB", "2MiB"]
    )
    def test_abandoned_large_result_does_not_wedge_drain(self, size):
        """A worker cannot exit until the parent reads a result larger
        than the pipe buffer, so drain() must read while it waits."""
        import threading

        fabric = ExecutionFabric(2)
        fabric._scheduler.submit([(0, worker_ref(sized_worker), size)], ["x"])
        fabric._assign(0)
        reports = []
        thread = threading.Thread(
            target=lambda: reports.append(fabric.drain(timeout=5)),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=60)
        assert reports, "drain() hung on an abandoned result"
        assert reports[0].unclaimed_results == 1
        assert reports[0].stuck_workers == []
        assert [p.exitcode for p in fabric.processes] == [0, 0]

    def test_drain_pool_returns_report(self):
        assert parallel.drain_pool() is None  # no fabric yet
        results = parallel_map(
            quick_worker, [1, 2, 3, 4], jobs=2, shard_keys=list("abcd")
        )
        assert results == [2, 4, 6, 8]
        report = parallel.drain_pool()
        assert report is not None and report.clean
        assert parallel.drain_pool() is None  # idempotent


class TestConcurrentParallelMap:
    def test_concurrent_maps_from_threads_serialize_correctly(self):
        """Server job threads share one fabric; maps must not interleave."""
        import threading

        outcomes = {}
        errors = []

        def run(label, payloads):
            try:
                outcomes[label] = parallel_map(
                    quick_worker,
                    payloads,
                    jobs=2,
                    shard_keys=[f"{label}-{p}" for p in payloads],
                )
            except Exception as exc:  # pragma: no cover - the regression
                errors.append((label, exc))

        threads = [
            threading.Thread(target=run, args=(label, list(range(i, i + 8))))
            for i, label in enumerate(["a", "b", "c", "d"])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        for i, label in enumerate(["a", "b", "c", "d"]):
            assert outcomes[label] == [p * 2 for p in range(i, i + 8)]
        stats = fabric_stats()
        assert stats is not None
        assert stats["units_dispatched"] == 32
        assert stats["units_inflight"] == 0
