"""Tests for the Session convenience API."""

import gc
import weakref

import pytest

from repro import ProgramBuilder, Session, V, run_with_tools
from repro.config import RunConfig
from repro.sanitizers import SANITIZER_FACTORIES, GiantSan


def overflow_program():
    b = ProgramBuilder()
    with b.function("main") as f:
        f.malloc("p", 100)
        f.load("x", "p", 100, 4)
        f.free("p")
    return b.build()


class TestSession:
    def test_run_by_name(self):
        result = Session("GiantSan").run(overflow_program())
        assert result.tool == "GiantSan"
        assert len(result.errors) == 1

    def test_run_with_instance(self):
        san = GiantSan()
        result = Session(san).run(overflow_program())
        assert result.errors

    def test_unknown_tool(self):
        with pytest.raises(ValueError, match="unknown tool"):
            Session("SuperSan")

    def test_kwargs_forwarded(self):
        session = Session("ASan", redzone=512)
        assert session.sanitizer.redzone == 512

    def test_kwargs_with_instance_rejected(self):
        with pytest.raises(ValueError):
            Session(GiantSan(), redzone=512)

    def test_all_registered_tools_run(self):
        from repro.sanitizers import SANITIZER_FACTORIES

        for name in SANITIZER_FACTORIES:
            result = Session(name).run(overflow_program())
            assert result.native_cycles > 0, name

    def test_run_with_tools_helper(self):
        results = run_with_tools(
            overflow_program(), ["Native", "GiantSan", "ASan"]
        )
        assert set(results) == {"Native", "GiantSan", "ASan"}
        assert not results["Native"].errors
        assert results["GiantSan"].errors
        assert results["ASan"].errors

    def test_run_with_tools_per_tool_kwargs(self):
        results = run_with_tools(
            overflow_program(),
            ["ASan"],
            sanitizer_kwargs={"ASan": {"redzone": 512}},
        )
        assert results["ASan"].errors

    def test_sessions_are_isolated(self):
        session = Session("GiantSan")
        session.run(overflow_program())
        fresh = Session("GiantSan")
        result = fresh.run(overflow_program())
        assert len(result.errors) == 1  # no leftover state


def churn_program():
    """Frees enough to overflow a small quarantine, then overflows."""
    b = ProgramBuilder()
    with b.function("main") as f:
        with f.loop("i", 0, 8):
            f.malloc("q", 4096)
            f.free("q")
        f.malloc("p", 100)
        f.load("x", "p", 100, 4)
        f.free("p")
    return b.build()


@pytest.mark.parametrize("engine", ["tree", "compiled"])
def test_finished_session_freed_without_cyclic_gc(engine):
    """A dropped session and its RunResult free the sanitizer (and its
    simulated memory) by reference counting alone: nothing the run
    builds may form a cycle back to the sanitizer."""
    program = churn_program()
    gc.collect()
    gc.disable()
    try:
        for name in SANITIZER_FACTORIES:
            session = Session(
                name, RunConfig(engine=engine), quarantine_bytes=4096
            )
            sanitizer = weakref.ref(session.sanitizer)
            result = session.run(program)
            assert result.native_cycles > 0
            del session, result
            assert sanitizer() is None, name
    finally:
        gc.enable()
