"""Superblock fast path: bulk execution of eligible loops.

The tree-walking interpreter dispatches one IR node per iteration, which
makes the big experiment sweeps interpreter-bound.  This module applies
the paper's own insight to the simulator: just as one folded segment
vouches for a whole region, one *superblock* can execute a whole
straight-line loop when its behaviour is statically predictable.

A loop is eligible when

* its body is straight line — only ``Compute``/``Assign``/``Load``/
  ``Store`` plus leftover ``CheckAccess``/``CheckRegion`` instructions
  (no control flow, calls, allocation, intrinsics, or history caching);
* every memory/check site's base pointer is loop-invariant and its
  offset is affine in the induction variable (the same SCEV-style
  analysis loop-check promotion uses);
* expressions use only interpretable operators (shift amounts must be
  non-negative constants so bulk execution cannot raise mid-flight).

Execution then proceeds in three phases, each of which may *decline* and
fall back to the per-iteration interpreter (so every error path and
every edge case runs through the reference implementation):

1. **Precheck** — instruction budget, required variables present, every
   accessed address range inside the simulated address space.
2. **Fold** — the sanitizer's ``fold_*_checks`` hooks decide, without
   mutating anything, that every per-iteration check passes and return
   the exact stat deltas (see :mod:`repro.sanitizers.base`).
3. **Run + charge** — one of two compiled closures performs the real
   loads and stores directly on the address-space buffer, and native
   cycles / instruction counts / CheckStats / Figure 10 categories are
   charged arithmetically (count × per-iteration events), matching the
   tree-walker to the last counter.

   * The **statement-major** runner executes each body statement once
     over all iterations: a ``Load`` is one strided ``memoryview``
     slice read into a list, an ``Assign`` one list comprehension, a
     ``Store`` one masked ``array`` slice assignment, and a ``+``
     reduction one ``sum``.  It runs when no register value flows from
     one iteration to the next (checked statically) and no byte is
     written by one iteration and touched by another (checked per
     entry from the sites' byte steps and covering ranges).
   * The **scalar** runner executes the body once per iteration in
     program order, one ``struct`` call per load and store.  It runs
     every loop-carried recurrence and every overlapping or strided
     shape the statement-major runner refuses.

   Each runner compiles on the first call that takes it.

Set ``REPRO_FASTPATH=0`` to disable globally (the differential test
suite runs every proxy both ways and asserts identical results).

The fold hooks' whole-range addressability scans go through
``repro.shadow.ShadowMemory.find_not_full``, so a superblock's
covering-range scan is one C-level ``translate`` + ``find`` instead of a
per-segment walk.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..config import RunConfig
from ..errors import AccessType
from ..ir.nodes import (
    Assign,
    BinOp,
    CheckAccess,
    CheckRegion,
    Compute,
    Const,
    Expr,
    Load,
    Loop,
    Protection,
    Store,
    Var,
)
from ..memory.address_space import CODEC_BY_WIDTH
from ..passes.constprop import assigned_vars
from ..passes.loop_bounds import affine_of
from ..sanitizers.base import FoldResult
from .codecache import compile_cached

#: Attribute used to memoize the analysis result on each Loop node.
_PLAN_ATTR = "_fastpath_plan"

#: Loops shorter than this run through the tree walker; the superblock
#: setup cost (invariant evaluation, folding, closure entry) only pays
#: off once several iterations are amortized over it.
MIN_TRIP_COUNT = 4

#: ``memoryview`` cast format per access width.  Casts use the host's
#: byte order, so the statement-major runner exists only where that is
#: little-endian (the simulated memory's order) and the native item
#: sizes match the access widths.
_CAST_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_STATEMENT_MAJOR = sys.byteorder == "little" and all(
    array(fmt).itemsize == width for width, fmt in _CAST_FORMATS.items()
)


def fastpath_enabled_default() -> bool:
    """Process-wide default for the superblock fast path."""
    return RunConfig.from_env().fastpath


# ----------------------------------------------------------------------
# expression compilation
# ----------------------------------------------------------------------
_BIN_TEMPLATES = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "//": "_div({}, {})",
    "%": "_mod({}, {})",
    "<<": "({} << {})",
    ">>": "({} >> {})",
    "&": "({} & {})",
    "|": "({} | {})",
    "^": "({} ^ {})",
    "<": "int({} < {})",
    "<=": "int({} <= {})",
    ">": "int({} > {})",
    ">=": "int({} >= {})",
    "==": "int({} == {})",
    "!=": "int({} != {})",
}


def _div(a: int, b: int) -> int:
    return a // b if b else 0


def _mod(a: int, b: int) -> int:
    return a % b if b else 0


class _Ineligible(Exception):
    """Internal signal: this loop cannot take the fast path."""


class _LoopCarried(Exception):
    """Internal signal: a register value flows between iterations."""


class _Namer:
    """Maps IR variable names to safe, stable Python local names."""

    def __init__(self) -> None:
        self._names: Dict[str, str] = {}

    def local(self, name: str) -> str:
        local = self._names.get(name)
        if local is None:
            local = f"v{len(self._names)}"
            self._names[name] = local
        return local


def _emit(expr: Expr, namer: _Namer, reads: List[str]) -> str:
    """Compile one IR expression to Python source (fully parenthesized)."""
    if type(expr) is Const:
        return repr(expr.value)
    if type(expr) is Var:
        reads.append(expr.name)
        return namer.local(expr.name)
    if type(expr) is BinOp:
        template = _BIN_TEMPLATES.get(expr.op)
        if template is None:
            raise _Ineligible(expr.op)
        if expr.op in ("<<", ">>"):
            # A negative shift amount raises mid-run; only allow shapes
            # that provably cannot (the tree walker handles the rest).
            if not (type(expr.right) is Const and expr.right.value >= 0):
                raise _Ineligible("non-constant shift")
        return template.format(
            _emit(expr.left, namer, reads), _emit(expr.right, namer, reads)
        )
    raise _Ineligible(type(expr).__name__)


# ----------------------------------------------------------------------
# the loop plan
# ----------------------------------------------------------------------
@dataclass
class _MemSite:
    """One Load/Store with an affine address: base + coeff*i + offset."""

    base: str
    coefficient: int
    offset_expr: Expr  # loop-invariant part, evaluated once per entry
    width: int
    store: bool


@dataclass
class _AccessCheckSite:
    """One leftover in-loop CheckAccess (ASan / ASan-- shapes)."""

    base: str
    coefficient: int
    offset_expr: Expr
    width: int
    access: AccessType


@dataclass
class _RegionCheckSite:
    """One leftover in-loop CheckRegion (LFP's region placement)."""

    base: str
    start_coefficient: int
    start_expr: Expr
    end_coefficient: int
    end_expr: Expr
    access: AccessType
    use_anchor: bool


@dataclass
class LoopPlan:
    """Everything needed to run one eligible loop as a superblock."""

    body_len: int
    arith_count: int  # Assign instructions per iteration
    memory_count: int  # Load + Store instructions per iteration
    compute_cycles: float  # summed Compute cycles per iteration
    mem_sites: List[_MemSite] = field(default_factory=list)
    access_checks: List[_AccessCheckSite] = field(default_factory=list)
    region_checks: List[_RegionCheckSite] = field(default_factory=list)
    #: Figure 10 access categories charged per iteration.
    protection_per_iter: Dict[str, int] = field(default_factory=dict)
    #: Variables the closure reads from ``env`` before the first write.
    preload: List[str] = field(default_factory=list)
    #: Source of the scalar (one iteration at a time) runner.
    source: str = ""
    #: Source of the statement-major runner, or None when
    #: ``major_decline`` names why this body cannot run that way.
    major_source: Optional[str] = None
    major_decline: Optional[str] = None
    _scalar: Optional[Callable] = field(default=None, repr=False)
    _major: Optional[Callable] = field(default=None, repr=False)

    def scalar_runner(self) -> Callable:
        """``runner(env, values, mem)``, compiled on first use."""
        if self._scalar is None:
            self._scalar = _compile(self.source, "_superblock")
        return self._scalar

    def major_runner(self) -> Callable:
        """``runner(env, values, mem, spans)``, compiled on first use."""
        if self._major is None:
            self._major = _compile(self.major_source, "_statement_major")
        return self._major


def _classify(protection: Protection) -> Optional[str]:
    """The Figure 10 category ``_classify_access`` would record."""
    if protection is Protection.ELIMINATED:
        return "eliminated"
    if protection is Protection.CACHED:
        return "cached"
    if protection is Protection.ELIDED:
        return "elided"
    if protection is Protection.UNPROTECTED:
        return "unprotected"
    return None  # DIRECT: classified at the check instruction


def analyze_loop(loop: Loop) -> Optional[LoopPlan]:
    """Build (or reuse) the superblock plan for ``loop``; None = ineligible.

    The result is memoized on the Loop node itself, so instrumented
    programs shared through the memo cache analyze each loop once per
    process no matter how many runs execute it.
    """
    plan = getattr(loop, _PLAN_ATTR, _PLAN_ATTR)
    if plan is not _PLAN_ATTR:
        return plan
    try:
        plan = _analyze(loop)
    except _Ineligible:
        plan = None
    setattr(loop, _PLAN_ATTR, plan)
    return plan


def _analyze(loop: Loop) -> LoopPlan:
    body = loop.body
    if not body:
        raise _Ineligible("empty body")
    killed = assigned_vars(body) | {loop.var}
    if loop.var in assigned_vars(body):
        raise _Ineligible("induction variable reassigned")

    plan = LoopPlan(
        body_len=len(body), arith_count=0, memory_count=0, compute_cycles=0.0
    )
    namer = _Namer()
    loop_local = namer.local(loop.var)
    lines: List[str] = []
    written = {loop.var}
    preload: List[str] = []
    reads: Counter = Counter()  # every variable read in the body

    def note_reads(names: List[str]) -> None:
        reads.update(names)
        for name in names:
            if name not in written and name not in preload:
                preload.append(name)

    def affine(expr: Expr):
        result = affine_of(expr, loop.var, killed)
        if result is None:
            raise _Ineligible("non-affine offset")
        return result

    def invariant_base(name: str) -> None:
        if name in killed:
            raise _Ineligible("loop-variant base pointer")

    for instr in body:
        kind = type(instr)
        if kind is Compute:
            plan.compute_cycles += instr.cycles
        elif kind is Assign:
            names: List[str] = []
            code = _emit(instr.expr, namer, names)
            note_reads(names)
            lines.append(f"{namer.local(instr.dst)} = {code}")
            written.add(instr.dst)
            plan.arith_count += 1
        elif kind is Load or kind is Store:
            if instr.width not in CODEC_BY_WIDTH:
                raise _Ineligible("unsupported width")
            invariant_base(instr.base)
            site = affine(instr.offset)
            names = []
            offset_code = _emit(instr.offset, namer, names)
            note_reads(names + [instr.base])
            address = f"({namer.local(instr.base)} + {offset_code})"
            plan.mem_sites.append(
                _MemSite(
                    instr.base,
                    site.coefficient,
                    site.offset,
                    instr.width,
                    kind is Store,
                )
            )
            category = _classify(instr.protection)
            if category:
                plan.protection_per_iter[category] = (
                    plan.protection_per_iter.get(category, 0) + 1
                )
            plan.memory_count += 1
            if kind is Load:
                lines.append(
                    f"{namer.local(instr.dst)} = "
                    f"_u{instr.width}(mem, {address})[0]"
                )
                written.add(instr.dst)
            else:
                names = []
                value_code = _emit(instr.value, namer, names)
                note_reads(names)
                mask = (1 << (8 * instr.width)) - 1
                lines.append(
                    f"_p{instr.width}(mem, {address}, {value_code} & {mask})"
                )
        elif kind is CheckAccess:
            invariant_base(instr.base)
            site = affine(instr.offset)
            note_reads([instr.base])
            plan.access_checks.append(
                _AccessCheckSite(
                    instr.base,
                    site.coefficient,
                    site.offset,
                    instr.width,
                    instr.access,
                )
            )
        elif kind is CheckRegion:
            invariant_base(instr.base)
            start = affine(instr.start)
            end = affine(instr.end)
            note_reads([instr.base])
            plan.region_checks.append(
                _RegionCheckSite(
                    instr.base,
                    start.coefficient,
                    start.offset,
                    end.coefficient,
                    end.offset,
                    instr.access,
                    instr.use_anchor,
                )
            )
        else:
            raise _Ineligible(kind.__name__)

    plan.preload = preload
    source = ["def _superblock(env, values, mem):"]
    source.extend(f"    {namer.local(name)} = env[{name!r}]" for name in preload)
    source.append(f"    for {loop_local} in values:")
    source.extend(f"        {line}" for line in lines or ["pass"])
    source.extend(
        f"    env[{name!r}] = {namer.local(name)}" for name in sorted(written)
    )
    plan.source = "\n".join(source)
    if not _STATEMENT_MAJOR:
        plan.major_decline = "byte_order"
    else:
        try:
            plan.major_source = _statement_major_source(
                loop, namer, preload, written, reads
            )
        except _LoopCarried:
            plan.major_decline = "loop_carried"
    return plan


def _reduction_term(instr: Assign, reads: Counter) -> Optional[Expr]:
    """``e`` when ``instr`` is ``acc = acc + e`` (either operand order)
    and ``acc`` is read nowhere else in the body; otherwise None."""
    expr = instr.expr
    if type(expr) is not BinOp or expr.op != "+" or reads[instr.dst] != 1:
        return None
    for own, term in ((expr.left, expr.right), (expr.right, expr.left)):
        if type(own) is Var and own.name == instr.dst:
            return term
    return None


def _statement_major_source(
    loop: Loop,
    namer: _Namer,
    preload: List[str],
    written: set,
    reads: Counter,
) -> str:
    """Source of the runner that executes each statement over all
    iterations at once.

    A body-written variable holds one list of per-iteration values (or
    one value, when its expression is loop-invariant), so every read of
    it must follow its write in the same iteration and it may be
    written only once; anything else raises :class:`_LoopCarried`.  The
    one allowed recurrence is a ``+`` reduction (see
    :func:`_reduction_term`), which becomes ``acc + sum(e)``.  Memory
    sites read and write through the ``spans`` ``try_execute`` has
    already proven free of cross-iteration overlap.  ``written`` and
    ``reads`` come from :func:`_analyze`: every variable the body
    writes, and how many times the body reads each variable.
    """
    varying = {loop.var}  # names holding a list of per-iteration values
    defined = {loop.var}  # written names already written this iteration
    lines: List[str] = []
    site = 0

    def listed(name: str) -> str:
        return "l" + namer.local(name)[1:]

    def values_of(expr: Expr, element: str = "{}") -> Tuple[str, bool]:
        """(source, per_iteration): a list comprehension over the
        varying operands, or one invariant value."""
        names: List[str] = []
        code = element.format(_emit(expr, namer, names))
        for name in names:
            if name in written and name not in defined:
                raise _LoopCarried(name)
        lists = list(dict.fromkeys(n for n in names if n in varying))
        if not lists:
            return code, False
        if element == "{}" and type(expr) is Var:
            return listed(expr.name), True
        targets = ", ".join(namer.local(name) for name in lists)
        sources = ", ".join(listed(name) for name in lists)
        if len(lists) > 1:
            sources = f"zip({sources})"
        return f"[{code} for {targets} in {sources}]", True

    def define(name: str) -> None:
        if name in defined:
            raise _LoopCarried(name)
        defined.add(name)

    for instr in loop.body:
        kind = type(instr)
        if kind is Assign:
            term = _reduction_term(instr, reads)
            local = namer.local(instr.dst)
            if term is not None:
                values, per_iteration = values_of(term)
                total = f"sum({values})" if per_iteration else f"{values} * n"
                lines.append(f"{local} = {local} + {total}")
            else:
                values, per_iteration = values_of(instr.expr)
                if per_iteration:
                    varying.add(instr.dst)
                    local = listed(instr.dst)
                lines.append(f"{local} = {values}")
            define(instr.dst)
        elif kind is Load:
            fmt = _CAST_FORMATS[instr.width]
            lines.append(f"{listed(instr.dst)} = _read(m, s[{site}], {fmt!r})")
            varying.add(instr.dst)
            define(instr.dst)
            site += 1
        elif kind is Store:
            fmt = _CAST_FORMATS[instr.width]
            mask = (1 << (8 * instr.width)) - 1
            values, per_iteration = values_of(instr.value, f"{{}} & {mask}")
            if not per_iteration:
                values = f"[{values}] * n"
            lines.append(f"_write(m, s[{site}], {fmt!r}, {values})")
            site += 1

    source = ["def _statement_major(env, values, mem, s):", "    n = len(values)"]
    source.extend(f"    {namer.local(name)} = env[{name!r}]" for name in preload)
    source.append(f"    {listed(loop.var)} = values")
    if site:
        source.append("    with memoryview(mem) as m:")
        source.extend(f"        {line}" for line in lines)
    else:
        source.extend(f"    {line}" for line in lines)
    for name in sorted(written):
        final = f"{listed(name)}[-1]" if name in varying else namer.local(name)
        source.append(f"    env[{name!r}] = {final}")
    return "\n".join(source)


def _read(whole: memoryview, span: Tuple[int, int, int], fmt: str) -> List[int]:
    """One load site's value for every iteration, in iteration order."""
    lo, end, step = span
    with whole[lo:end] as raw, raw.cast(fmt) as cells, cells[::step] as strided:
        return strided.tolist()


def _write(
    whole: memoryview, span: Tuple[int, int, int], fmt: str, values: List[int]
) -> None:
    """Store one site's (already masked) value for every iteration."""
    lo, end, step = span
    with whole[lo:end] as raw, raw.cast(fmt) as cells:
        cells[::step] = array(fmt, values)


#: Names every runner's source may refer to.
_NAMESPACE: Dict[str, object] = {
    "_div": _div,
    "_mod": _mod,
    "_read": _read,
    "_write": _write,
}
for _width, _codec in CODEC_BY_WIDTH.items():
    _NAMESPACE[f"_u{_width}"] = _codec.unpack_from
    _NAMESPACE[f"_p{_width}"] = _codec.pack_into


def _compile(text: str, name: str) -> Callable:
    """Compile one runner's source and return the function ``name``."""
    namespace = dict(_NAMESPACE)
    exec(compile_cached(text, "<fastpath>"), namespace)  # noqa: S102
    return namespace[name]


# ----------------------------------------------------------------------
# runtime execution
# ----------------------------------------------------------------------
def _declined(interpreter, reason: str) -> bool:
    """Record a decline reason when telemetry is on; always False."""
    tele = interpreter.telemetry
    if tele is not None:
        tele.note_superblock_decline(reason)
    return False


def _order_decline(
    mem_sites: List[_MemSite], sites: List[Tuple[int, int, int, int]]
) -> Optional[str]:
    """Why these addresses rule out statement-major order, or None.

    ``sites`` holds each memory site's ``(start, step, lo, end)``: its
    first address, byte step per iteration, and covering range.  Each
    step must be a nonzero multiple of the site's width (one strided
    slice that never hits the same cell twice).  No byte may be written
    by one iteration and touched by another: either every store site's
    covering range is disjoint from every other site's, or all sites
    share one step and each iteration's accesses fit in one window of
    that many bytes (an in-place read-modify-write of one record).
    """
    for site, (_, step, _, _) in zip(mem_sites, sites):
        if not step or step % site.width:
            return "stride"
    overlapping = any(
        lo < other_end and other_lo < end
        for index, (site, (_, _, lo, end)) in enumerate(zip(mem_sites, sites))
        if site.store
        for other, (_, _, other_lo, other_end) in enumerate(sites)
        if other != index
    )
    if not overlapping:
        return None
    step = sites[0][1]
    if all(other_step == step for _, other_step, _, _ in sites):
        low = min(start for start, _, _, _ in sites)
        high = max(
            start + site.width for site, (start, _, _, _) in zip(mem_sites, sites)
        )
        if high - low <= abs(step):
            return None
    return "aliasing"


def try_execute(interpreter, loop: Loop, values: range, env: Dict[str, int]) -> bool:
    """Run ``loop`` as a superblock if possible; False means fall back.

    Never partially executes: every declining branch happens before the
    first state mutation, so the tree walker can take over cleanly.
    When the interpreter carries a telemetry registry, every decline is
    counted by reason (the wiring-regression signal `repro profile`
    surfaces), and so is every fall back from the statement-major to
    the scalar runner; the disabled path adds no work beyond the
    decline itself.
    """
    count = len(values)
    if count < MIN_TRIP_COUNT:
        return _declined(interpreter, "short_trip")
    if interpreter._needs_resolve:
        return _declined(interpreter, "needs_address_resolution")
    plan = analyze_loop(loop)
    if plan is None:
        return _declined(interpreter, "ineligible_body")
    if (
        interpreter.instructions + count * plan.body_len
        > interpreter.max_instructions
    ):
        # the reference path raises BudgetExceeded exactly
        return _declined(interpreter, "instruction_budget")
    for name in plan.preload:
        if name not in env:
            # the reference path raises NameError/KeyError
            return _declined(interpreter, "unbound_variable")
    sanitizer = interpreter.san
    space = sanitizer.space
    total_size = space.layout.total_size
    first, stride = values[0], values.step

    evaluated: Dict[int, int] = {}

    def invariant(expr: Expr) -> int:
        key = id(expr)
        value = evaluated.get(key)
        if value is None:
            value = interpreter._eval(expr, env)
            evaluated[key] = value
        return value

    sites: List[Tuple[int, int, int, int]] = []
    try:
        for site in plan.mem_sites:
            start = (
                env[site.base]
                + site.coefficient * first
                + invariant(site.offset_expr)
            )
            step = site.coefficient * stride
            last = start + step * (count - 1)
            lo, hi = (start, last) if step >= 0 else (last, start)
            if lo < 0 or hi + site.width > total_size:
                # reference path records hardware faults
                return _declined(interpreter, "address_out_of_range")
            sites.append((start, step, lo, hi + site.width))

        folded = FoldResult()
        for check in plan.access_checks:
            base = env[check.base]
            address = base + check.coefficient * first + invariant(
                check.offset_expr
            )
            result = sanitizer.fold_access_checks(
                count,
                address,
                check.coefficient * stride,
                check.width,
                check.access,
            )
            if result is None:
                return _declined(interpreter, "fold_declined")
            folded.merge(result)
        for check in plan.region_checks:
            base = env[check.base]
            start = base + check.start_coefficient * first + invariant(
                check.start_expr
            )
            end = base + check.end_coefficient * first + invariant(
                check.end_expr
            )
            result = sanitizer.fold_region_checks(
                count,
                base,
                start,
                check.start_coefficient * stride,
                end,
                check.end_coefficient * stride,
                check.access,
                check.use_anchor,
            )
            if result is None:
                return _declined(interpreter, "fold_declined")
            folded.merge(result)
    except (KeyError, NameError):
        # undefined variable: reference path raises it
        return _declined(interpreter, "unbound_variable")

    reason = plan.major_decline or _order_decline(plan.mem_sites, sites)
    tele = interpreter.telemetry
    if reason is None:
        spans = [
            (lo, end, step // site.width)
            for site, (_, step, lo, end) in zip(plan.mem_sites, sites)
        ]
        plan.major_runner()(env, values, space._mem, spans)
        if tele is not None:
            tele.incr("superblock_vectorized")
    else:
        if tele is not None:
            tele.note_superblock_decline(reason)
        plan.scalar_runner()(env, values, space._mem)

    interpreter.instructions += count * plan.body_len
    costs = interpreter.costs
    interpreter.native_cycles += count * (
        costs.loop_iteration
        + plan.arith_count * costs.arith
        + plan.memory_count * costs.memory_access
        + plan.compute_cycles
    )
    folded.apply(sanitizer.stats)
    protection_counts = interpreter.protection_counts
    for category, per_iteration in plan.protection_per_iter.items():
        protection_counts[category] += per_iteration * count
    if folded.fast_only:
        protection_counts["fast_only"] += folded.fast_only
    if folded.full_check:
        protection_counts["full_check"] += folded.full_check
    return True
