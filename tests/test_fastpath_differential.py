"""Differential regression: superblock fast path vs reference walker.

Every SPEC proxy runs under every sanitizer twice — fast path ON and
OFF — and every observable must match exactly: CheckStats, simulated
cycle totals, instruction counts, Figure 10 protection categories,
return values, and error logs.  The fast path is an acceleration, not a
semantic change; this suite is the proof.
"""

import hashlib

import pytest

from repro.analysis.overhead import PERFORMANCE_TOOLS
from repro.config import RunConfig
from repro.runtime import Session
from repro.runtime.fastpath import analyze_loop
from repro.runtime.interpreter import Interpreter
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Loop, V
from repro.sanitizers import SANITIZER_FACTORIES
from repro.workloads.spec import SPEC_BY_NAME, SPEC_TABLE2_ROWS

#: Reduced iteration scale keeps the 24 x 5 x 2 matrix quick.
SCALE = 2

TOOLS = ["Native", "GiantSan", "ASan", "ASan--", "LFP"]


def _observables(result):
    return {
        "native_cycles": result.native_cycles,
        "instructions": result.instructions_executed,
        "return_value": result.return_value,
        "stats": result.stats.as_dict(),
        "protection": dict(result.protection_counts),
        "errors": [(e.kind, e.address) for e in result.errors],
    }


def _run(spec, tool, fastpath):
    session = Session(
        tool, RunConfig.from_env(fastpath=fastpath, memoize=False)
    )
    return session.run(spec.build(), [SCALE])


@pytest.mark.parametrize("spec", SPEC_TABLE2_ROWS, ids=lambda s: s.name)
@pytest.mark.parametrize("tool", TOOLS)
def test_fastpath_matches_reference(spec, tool):
    on = _observables(_run(spec, tool, fastpath=True))
    off = _observables(_run(spec, tool, fastpath=False))
    assert on == off


def test_fastpath_actually_fires():
    """At least one proxy loop compiles to a superblock plan.

    Guards against the differential suite passing vacuously because
    eligibility silently regressed to 'nothing qualifies'.
    """
    planned = 0
    for spec in SPEC_TABLE2_ROWS:
        program = spec.build()
        for function in program.functions.values():
            stack = list(function.body)
            while stack:
                instr = stack.pop()
                if isinstance(instr, Loop):
                    if analyze_loop(instr) is not None:
                        planned += 1
                    stack.extend(instr.body)
    assert planned > 0


def test_fastpath_falls_back_on_data_dependent_loop():
    """A loop with branching control flow must take the reference path."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 8) as i:
            with f.if_(i % 2):
                f.store("buf", i * 4, 4, i)
        f.free("buf")
    program = builder.build()
    on = Session(
        "GiantSan", RunConfig.from_env(fastpath=True, memoize=False)
    ).run(program)
    off = Session(
        "GiantSan", RunConfig.from_env(fastpath=False, memoize=False)
    ).run(program)
    assert on.native_cycles == off.native_cycles
    assert on.stats.as_dict() == off.stats.as_dict()


def test_fastpath_preserves_memory_effects():
    """Superblock stores land in the same bytes the walker writes."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 256)
        with f.loop("i", 0, 32) as i:
            f.store("buf", i * 8, 8, i * 1000 + 7)
        total = f.assign("total", 0)
        with f.loop("j", 0, 32) as j:
            loaded = f.load("x", "buf", j * 8, 8)
            f.assign("total", total + loaded)
        f.free("buf")
        f.ret(total)
    program = builder.build()
    expected = sum(i * 1000 + 7 for i in range(32))
    for tool in TOOLS:
        on = Session(
            tool, RunConfig.from_env(fastpath=True, memoize=False)
        ).run(program)
        off = Session(
            tool, RunConfig.from_env(fastpath=False, memoize=False)
        ).run(program)
        assert on.return_value == expected
        assert off.return_value == expected
        assert on.stats.as_dict() == off.stats.as_dict()


# ----------------------------------------------------------------------
# statement-major runner
# ----------------------------------------------------------------------
# Each case is a small program whose loops pin one shape of the
# statement-major runner (or one reason it must fall back to the scalar
# runner).  Every case runs fast path on and off under both engines and
# every tool; env values, memory bytes and every counter must match.
ALL_TOOLS = list(SANITIZER_FACTORIES)
ENGINES = ["tree", "compiled"]


def _fill(f, buf, count, width=4, var="k"):
    """buf[k] = k*7 + 3 over ``count`` cells of ``width`` bytes."""
    with f.loop(var, 0, count) as k:
        f.store(buf, k * width, width, k * 7 + 3)


def _stencil(f):
    f.malloc("src", 256)
    f.malloc("dst", 256)
    _fill(f, "src", 64)
    with f.loop("i", 1, 63) as i:
        f.load("_a", "src", i * 4 - 4, 4)
        f.load("_b", "src", i * 4, 4)
        f.load("_c", "src", i * 4 + 4, 4)
        f.compute(6.0)
        f.store("dst", i * 4, 4, V("_a") + V("_b") + V("_c"))
    return {"superblock_vectorized": 2}


def _read_modify_write(f):
    f.malloc("nodes", 32 * 16)
    _fill(f, "nodes", 128)
    with f.loop("r", 0, 16) as r:
        f.load("_k", "nodes", r * 32, 4)
        f.load("_v", "nodes", r * 32 + 8, 8)
        f.store("nodes", r * 32 + 16, 8, V("_v") + 1)
        f.store("nodes", r * 32, 4, V("_k") + 1)
    return {"superblock_vectorized": 2}


def _carried_memory(f):
    f.malloc("a", 256)
    f.store("a", 0, 4, 5)
    with f.loop("i", 1, 64) as i:
        f.load("_p", "a", i * 4 - 4, 4)
        f.store("a", i * 4, 4, V("_p") + 1)
    return {"aliasing": 1}


def _overlapping_copies(f):
    f.malloc("buf", 512)
    _fill(f, "buf", 128)
    with f.loop("i", 0, 64) as i:  # dst = src + 4
        f.load("_x", "buf", i * 4, 4)
        f.store("buf", i * 4 + 4, 4, V("_x"))
    with f.loop("j", 1, 64) as j:  # dst = src - 4
        f.load("_y", "buf", j * 4, 4)
        f.store("buf", j * 4 - 4, 4, V("_y") * 3)
    return {"superblock_vectorized": 1, "aliasing": 2}


def _reverse_walks(f):
    f.malloc("src", 256)
    f.malloc("dst", 256)
    _fill(f, "src", 64)
    with f.loop("i", 0, 64, reverse=True) as i:
        f.load("_s", "src", i * 4, 4)
        f.store("dst", i * 4, 4, V("_s") + i)
    with f.loop("j", 0, 60) as j:  # negative coefficient, forward loop
        f.load("_t", "src", 252 - j * 4, 4)
        f.store("dst", 236 - j * 4, 4, V("_t") * 2)
    f.ptr_add("_end", "src", 256)
    with f.loop("h", 1, 65) as h:
        f.load("_r", "_end", 0 - h * 4, 4)
    return {"superblock_vectorized": 4}


def _unaligned_base(f):
    f.malloc("buf", 512)
    f.ptr_add("p", "buf", 3)
    with f.loop("i", 0, 50) as i:
        f.store("p", i * 8, 8, i * 0x0101010101 + 1)
        f.store("p", i * 8 + 2, 2, i + 0x7FF0)
    with f.loop("j", 0, 50) as j:
        f.load("_w", "p", j * 8 + 1, 4)
        f.store("p", 405 + j * 2, 2, V("_w"))
    return {"superblock_vectorized": 2}


def _odd_stride(f):
    f.malloc("buf", 512)
    _fill(f, "buf", 64)
    with f.loop("i", 0, 40) as i:  # 6-byte step, 4-byte cells
        f.load("_x", "buf", i * 6, 4)
        f.store("buf", 256 + i * 6, 4, V("_x") + 1)
    with f.loop("j", 0, 40) as j:  # loop-invariant address
        f.load("_z", "buf", 8, 4)
        f.store("buf", j * 4 + 256, 4, V("_z") + j)
    return {"superblock_vectorized": 1, "stride": 2}


def _widths(f):
    f.malloc("buf", 4096)
    f.assign("acc", 0)
    for slot, width in enumerate((1, 2, 4, 8)):
        base = slot * 1024
        with f.loop(f"i{width}", 0, 100) as i:
            f.store("buf", base + i * width, width, i * 1000003 + 250)
        with f.loop(f"n{width}", 0, 20) as n:
            f.store("buf", base + 800 + n * width, width, 0 - n)
        with f.loop(f"j{width}", 0, 120) as j:
            f.load(f"_v{width}", "buf", base + j * width, width)
            f.assign("acc", V("acc") + V(f"_v{width}"))
    f.ret(V("acc"))
    return {"superblock_vectorized": 12}


def _reductions(f):
    f.malloc("buf", 256)
    _fill(f, "buf", 64)
    f.assign("acc", 1)
    f.assign("acc2", 2)
    f.assign("acc3", 3)
    f.assign("acc4", 4)
    with f.loop("i", 0, 64) as i:
        f.load("_x", "buf", i * 4, 4)
        f.assign("acc", V("acc") + V("_x") * 2)
        f.assign("acc2", V("_x") + V("acc2"))
        f.assign("acc3", V("acc3") + 5)
        f.assign("acc4", V("acc4") + i)
    f.assign("m", 1)
    with f.loop("j", 0, 16) as j:  # not a + reduction: scalar
        f.load("_y", "buf", j * 4, 4)
        f.assign("m", (V("m") * 3 + V("_y")) & 0xFFFF)
    f.store("buf", 0, 8, V("acc") + V("acc2") + V("acc3") + V("acc4"))
    f.ret(V("m"))
    return {"superblock_vectorized": 2, "loop_carried": 1}


def _invariant_fill(f):
    f.malloc("buf", 512)
    f.assign("k", 0x12345)
    with f.loop("i", 0, 64) as i:
        f.assign("c", V("k") + 1)
        f.store("buf", i * 4, 4, V("k"))
        f.store("buf", 256 + i * 2, 2, V("c"))
        f.store("buf", 400 + i, 1, 0x1FF)
    return {"superblock_vectorized": 1}


def _stored_induction(f):
    f.malloc("buf", 4096)
    with f.loop("i", 0, 300) as i:
        f.store("buf", i * 8, 8, i)
        f.store("buf", 2600 + i, 1, i)
    with f.loop("j", 0, 300, step=3) as j:
        f.store("buf", 3000 + j * 2, 2, j * 300)
    return {"superblock_vectorized": 2}


def _stored_comparison(f):
    f.malloc("buf", 512)
    _fill(f, "buf", 64)
    with f.loop("i", 0, 64) as i:
        f.load("_x", "buf", i * 4, 4)
        f.assign("flag", V("_x").lt(200))
        f.assign("even", (i & 1).eq(0))
        f.store("buf", 256 + i * 4, 4, V("flag") + V("even"))
    return {"superblock_vectorized": 2}


def _compute_only(f):
    f.assign("x", 9)
    with f.loop("i", 0, 40):
        f.compute(3.0)
    with f.loop("j", 0, 40):
        f.compute(1.0)
        f.assign("y", V("x") * 2)
    f.ret(V("i") + V("j") + V("y"))
    return {"superblock_vectorized": 2}


CASES = {
    fn.__name__.lstrip("_"): fn
    for fn in (
        _stencil,
        _read_modify_write,
        _carried_memory,
        _overlapping_copies,
        _reverse_walks,
        _unaligned_base,
        _odd_stride,
        _widths,
        _reductions,
        _invariant_fill,
        _stored_induction,
        _stored_comparison,
        _compute_only,
    )
}


def _case(name):
    """(program, expected runner counters under Native)."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        expected = CASES[name](f)
    return builder.build(), expected


class _LoopEnvs(Interpreter):
    """Tree walker that records ``env`` after every loop it runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.envs = []

    def _exec_loop(self, loop, env):
        super()._exec_loop(loop, env)
        self.envs.append(
            {name: (type(value), value) for name, value in env.items()}
        )


def _loop_envs(program, tool, fastpath):
    session = Session(
        tool, RunConfig(engine="tree", fastpath=fastpath, memoize=False)
    )
    engine = _LoopEnvs(session.sanitizer, fastpath=fastpath)
    engine.run(session.instrument(program))
    return engine.envs


def _full_run(program, tool, engine, fastpath, telemetry=False):
    session = Session(
        tool,
        RunConfig(
            engine=engine, fastpath=fastpath, memoize=False, telemetry=telemetry
        ),
    )
    result = session.run(program)
    memory = hashlib.blake2b(session.sanitizer.space._mem).hexdigest()
    return dict(_observables(result), memory=memory), result.telemetry


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("engine", ENGINES)
def test_statement_major_matches_reference(name, engine):
    program, _ = _case(name)
    for tool in ALL_TOOLS:
        off, _ = _full_run(program, tool, engine, fastpath=False)
        on, _ = _full_run(program, tool, engine, fastpath=True)
        traced, _ = _full_run(program, tool, engine, True, telemetry=True)
        assert on == off, tool
        assert traced == off, tool


@pytest.mark.parametrize("name", sorted(CASES))
def test_statement_major_loop_env_matches_reference(name):
    """Every variable a loop leaves behind — induction variable
    included — has the scalar runner's value and type (``int``, never
    ``bool``)."""
    program, _ = _case(name)
    for tool in ("Native", "GiantSan"):
        on = _loop_envs(program, tool, fastpath=True)
        assert on == _loop_envs(program, tool, fastpath=False), tool
        for env in on:
            assert all(kind is int for kind, _ in env.values()), env


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("engine", ENGINES)
def test_statement_major_runner_choice(name, engine):
    """Each case's loops take the runner it was written to pin."""
    program, expected = _case(name)
    _, snapshot = _full_run(program, "Native", engine, True, telemetry=True)
    observed = dict(snapshot.superblock_declines)
    observed["superblock_vectorized"] = snapshot.counters.get(
        "superblock_vectorized", 0
    )
    assert {key: observed.get(key, 0) for key in expected} == expected
    assert snapshot.counters["superblock_loops"] == sum(expected.values())


@pytest.mark.parametrize("engine", ENGINES)
def test_no_memoryview_outlives_a_run(engine):
    """The statement-major runner releases every buffer export on the
    address space's mmap before returning."""
    program, _ = _case("stencil")
    session = Session(
        "GiantSan", RunConfig(engine=engine, fastpath=True, memoize=False)
    )
    session.run(program)
    session.sanitizer.space._mem.close()  # BufferError if an export lives


@pytest.mark.parametrize("tool", ["Native"] + PERFORMANCE_TOOLS)
def test_lbm_kernel_is_vectorized(tool):
    """519.lbm_r's stencil runs statement-major under every Table 2 tool."""
    session = Session(tool, RunConfig(fastpath=True, telemetry=True))
    snapshot = session.run(SPEC_BY_NAME["519.lbm_r"].build(), [SCALE]).telemetry
    assert snapshot.counters["superblock_vectorized"] > 0
    assert not {"loop_carried", "aliasing", "stride"} & set(
        snapshot.superblock_declines
    )
