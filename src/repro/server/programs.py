"""Lower submitted job payloads into executable IR programs.

Two sources: corpus references into the canonical workload registries,
and inline JSON IR.  The JSON IR mirrors the
:class:`~repro.ir.builder.ProgramBuilder` surface one-to-one — every
op key is the builder method it lowers through — so a submitted
program instruments and executes exactly like one built in-process,
which is what makes the server's error reports byte-identical to a
direct ``Session`` run.

Expressions are ints (``Const``), strings (``Var``), or
``{"op": <binop>, "left": ..., "right": ...}`` trees over the
interpreter's operator alphabet.  Expression trees and loop/if bodies
nest at most :data:`MAX_NESTING` deep each: the request echo's
serializer gives up near 255 JSON levels, and the compiled engine's
generated Python allows only 20 nested blocks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..ir.builder import FunctionBuilder, ProgramBuilder
from ..ir.nodes import BinOp, Expr, as_expr
from ..ir.program import Program

#: The interpreter's binary-operator alphabet (`_ARITH` in
#: :mod:`repro.runtime.interpreter`).
BINARY_OPS = (
    "+", "-", "*", "//", "%", "<<", ">>", "&", "|", "^",
    "<", "<=", ">", ">=", "==", "!=",
)


#: Deepest expression tree, and deepest loop/if statement nesting,
#: a document may use (module doc).
MAX_NESTING = 16


class ProgramFormatError(ValueError):
    """Malformed JSON IR; the message names the offending location."""


def _check_depth(depth: int, where: str, what: str) -> None:
    if depth > MAX_NESTING:
        raise ProgramFormatError(
            f"{where}: {what} nest deeper than {MAX_NESTING} levels"
        )


def _expr(node: Any, where: str, depth: int = 1) -> Expr:
    _check_depth(depth, where, "expressions")
    if isinstance(node, bool):
        raise ProgramFormatError(f"{where}: booleans are not IR values")
    if isinstance(node, int):
        return as_expr(node)
    if isinstance(node, str):
        from ..ir.nodes import Var

        return Var(node)
    if isinstance(node, dict):
        op = node.get("op")
        if op not in BINARY_OPS:
            raise ProgramFormatError(
                f"{where}: unknown operator {op!r}; known: "
                + ", ".join(BINARY_OPS)
            )
        missing = [key for key in ("left", "right") if key not in node]
        if missing:
            raise ProgramFormatError(
                f"{where}: operator {op!r} missing {missing}"
            )
        return BinOp(
            op,
            _expr(node["left"], f"{where}.left", depth + 1),
            _expr(node["right"], f"{where}.right", depth + 1),
        )
    raise ProgramFormatError(
        f"{where}: expected int, variable name, or operator node, "
        f"got {type(node).__name__}"
    )


def _field(instr: Dict[str, Any], name: str, where: str) -> Any:
    try:
        return instr[name]
    except KeyError:
        raise ProgramFormatError(f"{where}: missing field {name!r}") from None


def _str_field(instr: Dict[str, Any], name: str, where: str) -> str:
    value = _field(instr, name, where)
    if not isinstance(value, str) or not value:
        raise ProgramFormatError(
            f"{where}: field {name!r} must be a non-empty string"
        )
    return value


def _int_field(
    instr: Dict[str, Any], name: str, where: str, default: Optional[int] = None
) -> int:
    value = instr.get(name, default)
    if value is None:
        raise ProgramFormatError(f"{where}: missing field {name!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProgramFormatError(f"{where}: field {name!r} must be an int")
    return value


def _emit(
    builder: FunctionBuilder, instr: Any, where: str, depth: int = 1
) -> None:
    _check_depth(depth, where, "statements")
    if not isinstance(instr, dict):
        raise ProgramFormatError(f"{where}: instruction must be an object")
    op = instr.get("op")
    if op == "malloc":
        builder.malloc(
            _str_field(instr, "dst", where),
            _expr(_field(instr, "size", where), f"{where}.size"),
        )
    elif op == "stack_alloc":
        builder.stack_alloc(
            _str_field(instr, "dst", where), _int_field(instr, "size", where)
        )
    elif op == "global_alloc":
        builder.global_alloc(
            _str_field(instr, "dst", where), _int_field(instr, "size", where)
        )
    elif op == "free":
        builder.free(_str_field(instr, "ptr", where))
    elif op == "ptr_add":
        builder.ptr_add(
            _str_field(instr, "dst", where),
            _str_field(instr, "base", where),
            _expr(_field(instr, "offset", where), f"{where}.offset"),
        )
    elif op == "load":
        builder.load(
            _str_field(instr, "dst", where),
            _str_field(instr, "base", where),
            _expr(_field(instr, "offset", where), f"{where}.offset"),
            _int_field(instr, "width", where, default=8),
        )
    elif op == "store":
        builder.store(
            _str_field(instr, "base", where),
            _expr(_field(instr, "offset", where), f"{where}.offset"),
            _int_field(instr, "width", where, default=8),
            _expr(_field(instr, "value", where), f"{where}.value"),
        )
    elif op == "memset":
        builder.memset(
            _str_field(instr, "base", where),
            _expr(_field(instr, "offset", where), f"{where}.offset"),
            _expr(_field(instr, "length", where), f"{where}.length"),
            _expr(instr.get("byte", 0), f"{where}.byte"),
        )
    elif op == "memcpy":
        builder.memcpy(
            _str_field(instr, "dst_base", where),
            _expr(_field(instr, "dst_offset", where), f"{where}.dst_offset"),
            _str_field(instr, "src_base", where),
            _expr(_field(instr, "src_offset", where), f"{where}.src_offset"),
            _expr(_field(instr, "length", where), f"{where}.length"),
        )
    elif op == "strcpy":
        builder.strcpy(
            _str_field(instr, "dst_base", where),
            _expr(_field(instr, "dst_offset", where), f"{where}.dst_offset"),
            _str_field(instr, "src_base", where),
            _expr(_field(instr, "src_offset", where), f"{where}.src_offset"),
        )
    elif op == "assign":
        builder.assign(
            _str_field(instr, "dst", where),
            _expr(_field(instr, "expr", where), f"{where}.expr"),
        )
    elif op == "compute":
        cycles = instr.get("cycles", 1)
        if isinstance(cycles, bool) or not isinstance(cycles, (int, float)):
            raise ProgramFormatError(f"{where}: 'cycles' must be a number")
        builder.compute(float(cycles))
    elif op == "call":
        args = instr.get("args", [])
        if not isinstance(args, list):
            raise ProgramFormatError(f"{where}: 'args' must be a list")
        builder.call(
            _str_field(instr, "func", where),
            [
                _expr(arg, f"{where}.args[{index}]")
                for index, arg in enumerate(args)
            ],
            dst=instr.get("dst"),
        )
    elif op == "ret":
        value = instr.get("value")
        builder.ret(
            _expr(value, f"{where}.value") if value is not None else None
        )
    elif op == "loop":
        body = _field(instr, "body", where)
        if not isinstance(body, list):
            raise ProgramFormatError(f"{where}: loop 'body' must be a list")
        with builder.loop(
            _str_field(instr, "var", where),
            _expr(_field(instr, "start", where), f"{where}.start"),
            _expr(_field(instr, "end", where), f"{where}.end"),
            step=_int_field(instr, "step", where, default=1),
            bounded=bool(instr.get("bounded", True)),
            reverse=bool(instr.get("reverse", False)),
        ):
            for index, sub in enumerate(body):
                _emit(builder, sub, f"{where}.body[{index}]", depth + 1)
    elif op == "if":
        then = _field(instr, "then", where)
        orelse = instr.get("else", [])
        if not isinstance(then, list) or not isinstance(orelse, list):
            raise ProgramFormatError(
                f"{where}: if 'then'/'else' must be lists"
            )
        with builder.if_(_expr(_field(instr, "cond", where), f"{where}.cond")):
            for index, sub in enumerate(then):
                _emit(builder, sub, f"{where}.then[{index}]", depth + 1)
        if orelse:
            with builder.else_():
                for index, sub in enumerate(orelse):
                    _emit(builder, sub, f"{where}.else[{index}]", depth + 1)
    else:
        raise ProgramFormatError(f"{where}: unknown op {op!r}")


def load_program(payload: Dict[str, Any]) -> Program:
    """Lower a JSON IR document into a :class:`Program`.

    Shape::

        {"entry": "main",
         "functions": [{"name": "main", "params": [], "body": [...]}]}
    """
    if not isinstance(payload, dict):
        raise ProgramFormatError("program must be an object")
    functions = payload.get("functions")
    if not isinstance(functions, list) or not functions:
        raise ProgramFormatError("'functions' must be a non-empty list")
    unknown = set(payload) - {"entry", "functions"}
    if unknown:
        raise ProgramFormatError(f"unknown program fields: {sorted(unknown)}")
    builder = ProgramBuilder()
    names = []
    for index, spec in enumerate(functions):
        where = f"functions[{index}]"
        if not isinstance(spec, dict):
            raise ProgramFormatError(f"{where}: function must be an object")
        name = _str_field(spec, "name", where)
        params = spec.get("params", [])
        if not isinstance(params, list) or any(
            not isinstance(param, str) for param in params
        ):
            raise ProgramFormatError(f"{where}: 'params' must be strings")
        body = spec.get("body", [])
        if not isinstance(body, list):
            raise ProgramFormatError(f"{where}: 'body' must be a list")
        names.append(name)
        with builder.function(name, params=params) as function:
            for sub_index, instr in enumerate(body):
                _emit(function, instr, f"{where}.body[{sub_index}]")
    entry = payload.get("entry", "main")
    if entry not in names:
        raise ProgramFormatError(
            f"entry {entry!r} is not a defined function (have: {names})"
        )
    return builder.build(entry=entry)


def build_demo_program() -> Program:
    """The quickstart bug: a heap overflow one iteration past the end."""
    builder = ProgramBuilder()
    with builder.function("main") as function:
        function.malloc("buf", 100)
        with function.loop("i", 0, 26, bounded=False) as i:
            function.store("buf", i * 4, 4, i)
        function.free("buf")
    return builder.build()


def resolve_corpus(ref: str) -> Tuple[Program, Optional[List[int]]]:
    """(program, default entry args) for a validated corpus reference."""
    if ref == "demo":
        return build_demo_program(), None
    if ref == "callheavy":
        from ..workloads import build_callheavy_program

        return build_callheavy_program(), None
    kind, _, name = ref.partition(":")
    if kind == "spec":
        from ..workloads import SPEC_BY_NAME

        spec = SPEC_BY_NAME[name]
        return spec.build(), [spec.default_scale]
    if kind == "juliet":
        from ..workloads import juliet_suite_cached

        for case in juliet_suite_cached():
            if case.case_id == name:
                return case.program, None
        raise ValueError(f"unknown juliet case {name!r}")
    raise ValueError(f"unknown corpus reference {ref!r}")


def build_job_program(spec) -> Tuple[Program, Optional[List[int]]]:
    """(program, entry args) for a validated :class:`ProgramSpec`."""
    if spec.corpus is not None:
        program, default_args = resolve_corpus(spec.corpus)
        return program, spec.args if spec.args is not None else default_args
    return load_program(spec.ir), spec.args
