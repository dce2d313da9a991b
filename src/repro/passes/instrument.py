"""The instrumenter: per-tool pass pipelines (paper Figure 4, left half).

Given a source program and a tool's :class:`Capabilities`, this builds
the instrumented program the interpreter executes.  The pipelines mirror
the paper's configurations:

=================  ===========  ===========  =========  ========
tool               placement    elimination  promotion  caching
=================  ===========  ===========  =========  ========
Native             none         —            —          —
ASan               instruction  —            —          —
ASan--             instruction  dedupe       hoist      —
LFP                region       —            —          —
GiantSan           region       dedupe+merge region     yes
GiantSan-CacheOnly region       —            —          yes
GiantSan-ElimOnly  region       dedupe+merge region     —
=================  ===========  ===========  =========  ========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ir.nodes import CheckAccess, CheckCached, CheckRegion
from ..ir.program import Program, assign_site_ids, walk
from ..sanitizers.base import Capabilities, Sanitizer, shadow_template_stats
from .base import Pass, PassManager, PassStats
from .check_merging import AliasedCheckElimination, ConstantOffsetMerging
from .check_placement import CheckPlacement
from .constprop import ConstantPropagation
from .history_caching import HistoryCaching
from .loop_promotion import LoopCheckPromotion
from .safe_access import SafeAccessElimination


@dataclass
class InstrumentedProgram:
    """An instrumented program plus instrumentation-time statistics."""

    program: Program
    stats: PassStats
    style: str
    cache_count: int = 0

    @property
    def static_checks(self) -> int:
        return self.stats.remaining_checks


def placement_style(caps: Capabilities) -> str:
    """The baseline check shape a tool's runtime expects."""
    if caps.constant_time_region or caps.anchor_checks:
        return "region"
    return "instruction"


def build_pipeline(
    caps: Capabilities,
    protect: bool = True,
    audit_elisions: bool = False,
    interprocedural: bool = False,
) -> List[Pass]:
    """The pass list for a tool with the given capabilities.

    ``audit_elisions`` makes the static elision passes wrap elided
    checks in :class:`~repro.ir.nodes.CheckElided` markers (replayed
    against the shadow oracle at runtime) instead of deleting them.

    ``interprocedural`` turns on the summary-based analysis layer
    (:mod:`repro.dataflow.summaries`): call sites consume function
    summaries instead of clobbering every fact, the cross-block
    eliminator seeds callee entries from finalized caller coverage, and
    loop barriers ignore provably non-freeing calls.
    """
    passes: List[Pass] = [ConstantPropagation()]
    if not protect:
        passes.append(CheckPlacement("none"))
        return passes
    style = placement_style(caps)
    passes.append(CheckPlacement(style))
    if caps.check_elimination:
        passes.append(
            AliasedCheckElimination(
                audit=audit_elisions, interprocedural=interprocedural
            )
        )
        if caps.constant_time_region:
            passes.append(ConstantOffsetMerging())
            passes.append(
                LoopCheckPromotion(
                    "region", interprocedural=interprocedural
                )
            )
            # elide merged/promoted region checks the dataflow facts
            # prove in-bounds on a live object, before caching rewrites
            passes.append(
                SafeAccessElimination(
                    audit=audit_elisions, interprocedural=interprocedural
                )
            )
        else:
            # ASan--: provably-safe removal + invariant hoisting
            passes.append(
                SafeAccessElimination(
                    audit=audit_elisions, interprocedural=interprocedural
                )
            )
            passes.append(
                LoopCheckPromotion(
                    "hoist", interprocedural=interprocedural
                )
            )
    if caps.history_caching:
        passes.append(HistoryCaching())
    return passes


def _resolve_interprocedural(interprocedural: Optional[bool]) -> bool:
    """None means "follow the REPRO_INTERPROC process default"."""
    if interprocedural is not None:
        return interprocedural
    from ..dataflow.summaries import interprocedural_default

    return interprocedural_default()


def _resolve_config(
    tool: Optional[Sanitizer], caps: Optional[Capabilities]
) -> tuple:
    """``(capabilities, protect)`` for an instrumentation request."""
    if caps is None:
        if tool is None:
            raise ValueError("instrument() needs a sanitizer or capabilities")
        caps = tool.capabilities
    protect = tool is None or type(tool).__name__ != "NativeSanitizer"
    return caps, protect


def program_fingerprint(program: Program) -> str:
    """A structural fingerprint of a source program.

    Built from the recursive dataclass ``repr`` of every function body —
    which covers *all* instruction fields (widths, bounds flags, step,
    reverse, protections), unlike the debug printer.  Two programs with
    equal fingerprints instrument identically for the same config.
    """
    parts = [f"entry={program.entry}"]
    for name in sorted(program.functions):
        function = program.functions[name]
        parts.append(f"{name}({','.join(function.params)}):{function.body!r}")
    return "\n".join(parts)


#: Memoized instrumentation results, keyed by
#: (program fingerprint, capabilities, protect).  Instrumented programs
#: are immutable at runtime (the interpreter keeps all mutable state in
#: its own environment/caches), so sharing one instance across runs and
#: sessions is safe — the 5-tool Table 2 sweep instruments each proxy
#: once per configuration instead of once per run.
_MEMO: dict = {}
_MEMO_LIMIT = 256
#: Hit/miss counters for the memo, exposed through
#: :func:`instrumentation_cache_stats`.  The execution fabric reports
#: them per worker so tests (and telemetry consumers) can prove that
#: persistent workers actually reuse warm instrumentation across tables.
_MEMO_HITS = 0
_MEMO_MISSES = 0


def instrument_cached(
    source: Program,
    tool: Optional[Sanitizer] = None,
    caps: Optional[Capabilities] = None,
    audit_elisions: bool = False,
    interprocedural: Optional[bool] = None,
) -> InstrumentedProgram:
    """Like :func:`instrument`, memoized by (fingerprint, config)."""
    global _MEMO_HITS, _MEMO_MISSES
    caps, protect = _resolve_config(tool, caps)
    interproc = _resolve_interprocedural(interprocedural)
    key = (
        program_fingerprint(source),
        caps,
        protect,
        audit_elisions,
        interproc,
    )
    cached = _MEMO.get(key)
    if cached is None:
        _MEMO_MISSES += 1
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        cached = instrument(
            source,
            tool=tool,
            caps=caps,
            audit_elisions=audit_elisions,
            interprocedural=interproc,
        )
        _MEMO[key] = cached
    else:
        _MEMO_HITS += 1
    return cached


def instrumentation_cache_stats() -> dict:
    """Per-run fixed-cost caches of this process.

    ``hits``/``misses``/``entries`` count the instrumentation memo; each
    of ``code`` (compiled code objects), ``summaries`` (function
    summaries) and ``shadow_templates`` (pre-poisoned shadow planes)
    holds the same three counts for its own cache.
    """
    from ..dataflow.summaries import summary_memo_stats
    from ..runtime.codecache import code_cache_stats

    return {
        "hits": _MEMO_HITS,
        "misses": _MEMO_MISSES,
        "entries": len(_MEMO),
        "code": code_cache_stats(),
        "summaries": summary_memo_stats(),
        "shadow_templates": shadow_template_stats(),
    }


def clear_instrumentation_cache() -> None:
    """Drop all memoized instrumentation results and function summaries
    (tests, and sweeps that must start cold)."""
    global _MEMO_HITS, _MEMO_MISSES
    from ..dataflow.summaries import clear_summary_memo

    _MEMO.clear()
    _MEMO_HITS = 0
    _MEMO_MISSES = 0
    clear_summary_memo()


def instrument(
    source: Program,
    tool: Optional[Sanitizer] = None,
    caps: Optional[Capabilities] = None,
    audit_elisions: bool = False,
    interprocedural: Optional[bool] = None,
) -> InstrumentedProgram:
    """Clone and instrument ``source`` for ``tool`` (or raw ``caps``)."""
    caps, protect = _resolve_config(tool, caps)
    program = source.clone()
    assign_site_ids(program)
    pipeline = build_pipeline(
        caps,
        protect=protect,
        audit_elisions=audit_elisions,
        interprocedural=_resolve_interprocedural(interprocedural),
    )
    stats = PassManager(pipeline).run(program)
    remaining = 0
    cache_ids = set()
    for function in program.functions.values():
        for instr in walk(function.body):
            if isinstance(instr, (CheckAccess, CheckRegion, CheckCached)):
                remaining += 1
            if isinstance(instr, CheckCached):
                cache_ids.add(instr.cache_id)
    stats.remaining_checks = remaining
    return InstrumentedProgram(
        program=program,
        stats=stats,
        style=placement_style(caps) if protect else "none",
        cache_count=len(cache_ids),
    )
