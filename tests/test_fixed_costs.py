"""Per-process caches for per-run fixed costs: none may change a result.

Four mechanisms pay a run's repeated fixed costs once per process:

* shadow templates — a session copies a pre-poisoned shadow plane
  (:meth:`repro.sanitizers.base.Sanitizer._fresh_shadow`);
* the code-object cache — codegen ``exec``\\ s a cached code object in
  a fresh namespace (:mod:`repro.runtime.codecache`);
* the summary memo — function summaries keyed by body and callee
  summaries (:mod:`repro.dataflow.summaries`);
* the structural clone — :meth:`repro.ir.program.Program.clone`.

Each test pins one of them against the computation it replaces.
"""

import sys
import threading
from collections import OrderedDict

import pytest

from repro.config import RunConfig
from repro.dataflow import summaries as summaries_module
from repro.dataflow.summaries import _summarize, compute_summaries
from repro.errors import AccessType
from repro.fuzz import build_case, case_seed_for, generate_case
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import (
    Call,
    CheckAccess,
    Compute,
    Const,
    Loop,
    Malloc,
    Return,
    V,
)
from repro.ir.program import Function, walk
from repro.memory import ArenaLayout
from repro.passes.instrument import (
    clear_instrumentation_cache,
    instrument,
    instrumentation_cache_stats,
    program_fingerprint,
)
from repro.runtime import CompiledEngine, Session, codecache, compile_function
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.sanitizers import SANITIZER_FACTORIES, ASan, GiantSan
from repro.sanitizers import base as sanitizer_base
from repro.sanitizers.base import SHADOW_TEMPLATE_LIMIT, shadow_template_stats
from repro.shadow import ShadowMemory
from repro.workloads.juliet import generate_juliet_suite
from repro.workloads.spec import SPEC_TABLE2_ROWS

SMALL_LAYOUT = ArenaLayout(heap_size=1 << 16, stack_size=1 << 14,
                           globals_size=1 << 12)

FUZZ_SEED = 0
FUZZ_CASES = 40


def _scratch_shadow(sanitizer) -> bytes:
    """The shadow ``_poison_null_page`` writes into a zeroed plane."""
    probe = type(sanitizer).__new__(type(sanitizer))
    probe.layout = sanitizer.layout
    probe.shadow = ShadowMemory(sanitizer.layout.total_size)
    probe._poison_null_page()
    return probe.shadow.region(0, len(probe.shadow))


def _whole(shadow) -> bytes:
    return shadow.region(0, len(shadow))


def _heap_program():
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 8) as i:
            f.store("buf", i * 8, 8, i)
        f.memset("buf", 0, 32, 7)
        f.free("buf")
        f.ret(0)
    return builder.build()


# ----------------------------------------------------------------------
# shadow templates
# ----------------------------------------------------------------------
class TestShadowTemplates:
    @pytest.mark.parametrize("tool", sorted(SANITIZER_FACTORIES))
    @pytest.mark.parametrize("layout", [None, SMALL_LAYOUT],
                             ids=["default", "small"])
    def test_fresh_shadow_equals_scratch_poisoning(self, tool, layout):
        factory = SANITIZER_FACTORIES[tool]
        for _ in range(2):  # the first may build the template
            sanitizer = factory(layout=layout)
            assert _whole(sanitizer.shadow) == _scratch_shadow(sanitizer)

    @pytest.mark.parametrize("factory", [ASan, GiantSan])
    def test_sessions_do_not_share_shadow(self, factory):
        first = factory(layout=SMALL_LAYOUT)
        expected = _scratch_shadow(first)
        key = (type(first)._poison_null_page, SMALL_LAYOUT)
        template = sanitizer_base._SHADOW_TEMPLATES[key]
        allocation = first.malloc(48)
        first.free(allocation.base)
        first.shadow.store(0, 0x5A)
        first.shadow.fill(10, 20, 0x33)
        assert _whole(first.shadow) != expected
        assert sanitizer_base._SHADOW_TEMPLATES[key] == template == expected
        second = factory(layout=SMALL_LAYOUT)
        assert _whole(second.shadow) == expected

    @pytest.mark.parametrize("tool", sorted(SANITIZER_FACTORIES))
    def test_invariant_checker_passes(self, tool):
        config = RunConfig.from_env(invariants=True)
        session = Session(tool, config)
        result = session.run(_heap_program())
        assert not result.errors.reports
        assert session.invariant_checker.checks_run > 0
        assert not session.invariant_checker.violations

    def test_template_count_is_bounded(self):
        for extra in range(SHADOW_TEMPLATE_LIMIT + 3):
            layout = ArenaLayout(heap_size=8 * (extra + 1), stack_size=64,
                                 globals_size=64)
            sanitizer = ASan(layout=layout)
            assert _whole(sanitizer.shadow) == _scratch_shadow(sanitizer)
            assert shadow_template_stats()["entries"] <= SHADOW_TEMPLATE_LIMIT

    def test_shadowless_tools_take_no_template(self):
        before = shadow_template_stats()
        for tool in ("Native", "LFP", "HWASan"):
            SANITIZER_FACTORIES[tool](layout=SMALL_LAYOUT)
        after = shadow_template_stats()
        assert (after["hits"], after["misses"]) == (
            before["hits"], before["misses"]
        )


# ----------------------------------------------------------------------
# code-object cache
# ----------------------------------------------------------------------
def _observables(result):
    telemetry = result.telemetry
    return {
        "native_cycles": result.native_cycles,
        "total_cycles": result.total_cycles(DEFAULT_COST_MODEL),
        "instructions": result.instructions_executed,
        "return_value": result.return_value,
        "stats": result.stats.as_dict(),
        "protection": dict(result.protection_counts),
        "errors": list(result.errors.reports),
        "telemetry": None if telemetry is None else (
            telemetry.counters,
            telemetry.convergence_per_site,
            telemetry.superblock_declines,
            telemetry.quarantine_peak_bytes,
        ),
    }


class TestCodeCache:
    def test_equal_text_binds_its_own_constants(self):
        def checked(access):
            return Function("main", [], [
                Malloc("p", Const(8)),
                CheckAccess("p", Const(8), 8, access),
                Return(Const(0)),
            ])

        costs = DEFAULT_COST_MODEL.native
        read = compile_function(checked(AccessType.READ), costs, False, False)
        hits = codecache.code_cache_stats()["hits"]
        write = compile_function(checked(AccessType.WRITE), costs, False,
                                 False)
        assert read.source == write.source
        assert codecache.code_cache_stats()["hits"] == hits + 1
        assert read.closure.__code__ is write.closure.__code__
        accesses = []
        for compiled in (read, write):
            engine = CompiledEngine(ASan(layout=SMALL_LAYOUT))
            compiled.closure(engine, [None] * compiled.n_slots)
            accesses.append([r.access for r in engine.san.log.reports])
        assert accesses == [[AccessType.READ], [AccessType.WRITE]]

    @pytest.mark.parametrize("tool", ["GiantSan", "ASan", "ASan--", "LFP",
                                      "HWASan"])
    def test_hit_and_miss_give_equal_results(self, tool, monkeypatch):
        config = RunConfig.from_env(engine="compiled", memoize=False,
                                    telemetry=True)
        programs = [
            (SPEC_TABLE2_ROWS[0].build(), [1]),
            (build_case(generate_case(case_seed_for(FUZZ_SEED, 3))), None),
            (generate_juliet_suite()[0].program, None),
        ]
        monkeypatch.setattr(codecache, "_CODE", OrderedDict())
        cold = [Session(tool, config).run(p, a) for p, a in programs]
        misses = codecache.code_cache_stats()["misses"]
        hits = codecache.code_cache_stats()["hits"]
        warm = [Session(tool, config).run(p, a) for p, a in programs]
        assert codecache.code_cache_stats()["misses"] == misses
        assert codecache.code_cache_stats()["hits"] > hits
        assert [_observables(r) for r in cold] == [
            _observables(r) for r in warm
        ]

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(codecache, "_CODE", OrderedDict())
        monkeypatch.setattr(codecache, "CODE_CACHE_LIMIT", 4)
        for n in range(10):
            codecache.compile_cached(f"x = {n}", "<test>")
        assert codecache.code_cache_stats()["entries"] == 4


# ----------------------------------------------------------------------
# summary memo
# ----------------------------------------------------------------------
def _corpus():
    for spec in SPEC_TABLE2_ROWS:
        yield spec.build()
    for case in generate_juliet_suite():
        yield case.program
    for index in range(FUZZ_CASES):
        yield build_case(generate_case(case_seed_for(FUZZ_SEED, index)))


class TestSummaryMemo:
    def test_memoized_equals_unmemoized_through_the_pipeline(
        self, monkeypatch
    ):
        """Every summary the eliminating pipelines ask for, memo hit or
        miss, equals a fresh ``_summarize`` of the same body."""
        clear_instrumentation_cache()
        original = summaries_module._summarize_memoized
        compared = []

        def checked(function, known):
            summary = original(function, known)
            assert summary == _summarize(function, known), function.name
            compared.append(function.name)
            return summary

        monkeypatch.setattr(summaries_module, "_summarize_memoized", checked)
        for program in _corpus():
            compute_summaries(program)
            for tool in ("GiantSan", "ASan--"):
                instrument(program, tool=SANITIZER_FACTORIES[tool](
                    layout=SMALL_LAYOUT), interprocedural=True)
        stats = summaries_module.summary_memo_stats()
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert len(compared) == stats["hits"] + stats["misses"]

    def test_clear_instrumentation_cache_empties_the_memo(self):
        compute_summaries(SPEC_TABLE2_ROWS[0].build())
        assert summaries_module.summary_memo_stats()["entries"] > 0
        clear_instrumentation_cache()
        assert summaries_module.summary_memo_stats() == {
            "hits": 0, "misses": 0, "entries": 0,
        }

    def test_callee_summary_is_part_of_the_key(self):
        """Equal caller bodies over callees with different effects must
        not share a summary."""
        def program(callee_writes):
            builder = ProgramBuilder()
            with builder.function("helper", params=["q"]) as f:
                if callee_writes:
                    f.store("q", 0, 8, 1)
                else:
                    f.compute(1)
                f.ret(0)
            with builder.function("main") as f:
                f.malloc("p", 16)
                f.call("helper", [V("p")])
                f.ret(0)
            return builder.build()

        clear_instrumentation_cache()
        writing = program(True)
        quiet = program(False)
        assert repr(writing.functions["main"].body) == repr(
            quiet.functions["main"].body
        )
        assert compute_summaries(writing)["main"].writes_memory
        assert not compute_summaries(quiet)["main"].writes_memory


# ----------------------------------------------------------------------
# structural clone
# ----------------------------------------------------------------------
class TestStructuralClone:
    @pytest.mark.parametrize("build", [
        SPEC_TABLE2_ROWS[0].build,
        lambda: build_case(generate_case(case_seed_for(FUZZ_SEED, 1))),
        lambda: generate_juliet_suite()[5].program,
    ], ids=["spec", "fuzz", "juliet"])
    def test_clone_is_independent_of_its_source(self, build):
        source = build()
        before = program_fingerprint(source)
        clone = source.clone()
        assert program_fingerprint(clone) == before
        for function in clone.functions.values():
            function.params.append("extra")
            for instr in walk(function.body):
                if hasattr(instr, "site_id"):
                    instr.site_id = 4242
                if isinstance(instr, Loop):
                    instr.body.append(Compute(3.0))
                    instr.step = 5
                if isinstance(instr, Call):
                    instr.args.append(Const(1))
            function.body.append(Return(Const(9)))
        assert program_fingerprint(source) == before
        assert program_fingerprint(clone) != before

    def test_clone_shares_expressions_and_drops_run_memos(self):
        source = _heap_program()
        loop = next(i for i in walk(source.functions["main"].body)
                    if isinstance(i, Loop))
        loop._fastpath_plan = "stale"
        clone = source.clone()
        twin = next(i for i in walk(clone.functions["main"].body)
                    if isinstance(i, Loop))
        assert twin is not loop and twin.body is not loop.body
        assert twin.end is loop.end
        assert not hasattr(twin, "_fastpath_plan")


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_cache_stats_report_every_cache():
    Session("ASan").run(_heap_program())
    stats = instrumentation_cache_stats()
    for key in ("hits", "misses", "entries"):
        assert isinstance(stats[key], int)
    for cache in ("code", "summaries", "shadow_templates"):
        assert set(stats[cache]) == {"hits", "misses", "entries"}
    assert stats["shadow_templates"]["entries"] >= 1
    assert stats["code"]["entries"] >= 1


# ----------------------------------------------------------------------
# concurrent sessions (server jobs run on several threads)
# ----------------------------------------------------------------------
def _hammer(work, threads=6):
    """Run ``work(index)`` on ``threads`` threads with a short switch
    interval; returns the exceptions raised."""
    errors = []

    def run(index):
        try:
            work(index)
        except Exception as error:  # collected for the assertion
            errors.append(error)

    workers = [threading.Thread(target=run, args=(index,))
               for index in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return errors


def test_code_cache_under_concurrent_compiles(monkeypatch):
    monkeypatch.setattr(codecache, "_CODE", OrderedDict())
    monkeypatch.setattr(codecache, "CODE_CACHE_LIMIT", 3)
    monkeypatch.setattr(codecache, "_HITS", 0)
    monkeypatch.setattr(codecache, "_MISSES", 0)

    def work(index):
        for n in range(300):
            codecache.compile_cached(f"x = {(index + n) % 7}", "<stress>")

    assert not _hammer(work)
    stats = codecache.code_cache_stats()
    assert stats["hits"] + stats["misses"] == 6 * 300
    assert stats["entries"] <= 3


def test_shadow_templates_under_concurrent_sessions(monkeypatch):
    monkeypatch.setattr(sanitizer_base, "_SHADOW_TEMPLATES", OrderedDict())
    monkeypatch.setattr(sanitizer_base, "SHADOW_TEMPLATE_LIMIT", 2)
    monkeypatch.setattr(sanitizer_base, "_TEMPLATE_HITS", 0)
    monkeypatch.setattr(sanitizer_base, "_TEMPLATE_MISSES", 0)
    layouts = [ArenaLayout(heap_size=64 * (n + 1), stack_size=64,
                           globals_size=64) for n in range(3)]
    expected = {}
    for layout in layouts:
        expected[layout] = _scratch_shadow(ASan(layout=layout))
    mismatches = []

    def work(index):
        for n in range(40):
            layout = layouts[(index + n) % 3]
            if _whole(ASan(layout=layout).shadow) != expected[layout]:
                mismatches.append(layout)

    assert not _hammer(work)
    assert not mismatches
    stats = shadow_template_stats()
    assert stats["hits"] + stats["misses"] == 3 + 6 * 40
    assert stats["entries"] <= 2
