"""Session: the one-call API tying instrumentation and execution together.

A session owns a fresh sanitizer, instruments a program for it, runs the
program, and returns the :class:`RunResult`.  The benchmark harness and
the examples both drive everything through this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import RunConfig
from ..ir.program import Program
from ..passes.instrument import (
    InstrumentedProgram,
    instrument,
    instrument_cached,
)
from ..sanitizers import SANITIZER_FACTORIES
from ..sanitizers.base import Sanitizer
from ..telemetry import Telemetry
from .compiler import resolve_engine
from .cost_model import CostModel, DEFAULT_COST_MODEL
from .interpreter import Interpreter, RunResult


class Session:
    """One tool + one program, ready to execute.

    ``config`` is the :class:`~repro.config.RunConfig` the run executes
    under (None = :meth:`RunConfig.from_env`, the process default):
    engine, superblock fast path, instrumentation memoization, the
    interprocedural summary layer, telemetry, and the raising
    :class:`~repro.fuzz.invariants.ShadowInvariantChecker`.  Every
    setting but ``invariants`` and ``telemetry`` is result-invariant.

    ``telemetry`` may instead pass an existing
    :class:`~repro.telemetry.Telemetry` registry to share counters
    across sessions of the *same* sanitizer.  When telemetry is on,
    each run's ``RunResult.telemetry`` carries a counter snapshot; when
    off, nothing is attached and the run is byte-identical to a
    pre-telemetry session.

    ``audit_elisions`` keeps statically elided checks as
    :class:`~repro.ir.nodes.CheckElided` markers that the interpreter
    replays against the shadow oracle, surfacing unsound elisions in
    ``RunResult.elision_audit_failures``.
    """

    def __init__(
        self,
        tool: str | Sanitizer,
        config: Optional[RunConfig] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_instructions: int = 50_000_000,
        audit_elisions: bool = False,
        telemetry: Optional[Telemetry] = None,
        **sanitizer_kwargs,
    ):
        if isinstance(tool, Sanitizer):
            if sanitizer_kwargs:
                raise ValueError(
                    "pass sanitizer kwargs only with a tool *name*"
                )
            self.sanitizer = tool
        else:
            try:
                factory = SANITIZER_FACTORIES[tool]
            except KeyError:
                known = ", ".join(sorted(SANITIZER_FACTORIES))
                raise ValueError(
                    f"unknown tool {tool!r}; known tools: {known}"
                ) from None
            self.sanitizer = factory(**sanitizer_kwargs)
        config = RunConfig.from_env() if config is None else config
        self.config = config
        self.cost_model = cost_model
        self.max_instructions = max_instructions
        self.engine = resolve_engine(config.engine)
        self.fastpath = config.fastpath
        self.memoize = config.memoize
        self.interprocedural = config.interprocedural
        self.audit_elisions = audit_elisions
        if telemetry is None and config.telemetry:
            telemetry = Telemetry()
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self.sanitizer)
        self.invariant_checker = None
        if config.invariants:
            # local import: repro.fuzz itself drives Sessions
            from ..fuzz.invariants import ShadowInvariantChecker

            self.invariant_checker = ShadowInvariantChecker.attach(
                self.sanitizer, raise_on_violation=True
            )

    def instrument(self, program: Program) -> InstrumentedProgram:
        if self.memoize:
            return instrument_cached(
                program,
                tool=self.sanitizer,
                audit_elisions=self.audit_elisions,
                interprocedural=self.interprocedural,
            )
        return instrument(
            program,
            tool=self.sanitizer,
            audit_elisions=self.audit_elisions,
            interprocedural=self.interprocedural,
        )

    def run(
        self, program: Program, args: Optional[List[int]] = None
    ) -> RunResult:
        """Instrument and execute ``program`` under this session's tool."""
        iprogram = self.instrument(program)
        interpreter = self.engine(
            self.sanitizer,
            max_instructions=self.max_instructions,
            fastpath=self.fastpath,
            telemetry=self.telemetry,
        )
        return interpreter.run(iprogram, args)


def run_with_tools(
    program: Program,
    tools: List[str],
    args: Optional[List[int]] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    sanitizer_kwargs: Optional[Dict[str, dict]] = None,
) -> Dict[str, RunResult]:
    """Run one program under several tools with fresh state each.

    ``sanitizer_kwargs`` optionally maps tool name -> constructor kwargs
    (e.g. ``{"ASan": {"redzone": 512}}``).
    """
    results: Dict[str, RunResult] = {}
    for tool in tools:
        kwargs = (sanitizer_kwargs or {}).get(tool, {})
        session = Session(tool, cost_model=cost_model, **kwargs)
        results[tool] = session.run(program, args)
    return results
