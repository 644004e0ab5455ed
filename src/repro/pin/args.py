"""Instrumentation argument (IARG) model, mirroring Pin's C API.

Analysis routines receive their arguments through *IARG specifiers* given
at insertion time::

    INS_InsertCall(ins, IPOINT_BEFORE, docount,
                   IARG_UINT64, bbl.num_ins,
                   IARG_REG_VALUE, regs.T0,
                   IARG_END)

The JIT lowers each specifier list into an engine-independent *recipe*
(:func:`lower_resolver`), and binding turns the recipe into a *resolver*
closure that builds the positional argument tuple at analysis-call time
(:func:`bind_resolver`).  Static specifiers (literals, the instruction
pointer) are folded into constants, so a call using only static
arguments costs a single tuple reference per execution.
"""

from __future__ import annotations

import enum
from typing import Callable

from ..errors import InstrumentationError
from ..isa.instructions import Format, MASK64


class IPoint(enum.Enum):
    """Where an analysis call is attached relative to its instruction."""

    BEFORE = "before"
    AFTER = "after"          # fall-through side only; invalid on branches
    TAKEN_BRANCH = "taken"   # on the taken edge of a (conditional) branch


# C-style aliases so tools read like the paper's Figure 2.
IPOINT_BEFORE = IPoint.BEFORE
IPOINT_AFTER = IPoint.AFTER
IPOINT_TAKEN_BRANCH = IPoint.TAKEN_BRANCH


class IArg(enum.Enum):
    """Argument specifier kinds (subset of Pin's IARG_*)."""

    UINT64 = "uint64"            # literal (next positional value)
    ADDRINT = "addrint"          # literal, alias of UINT64
    PTR = "ptr"                  # literal Python object
    INST_PTR = "inst_ptr"        # address of the instrumented instruction
    REG_VALUE = "reg_value"      # current value of register (next value)
    MEMORYREAD_EA = "mem_read_ea"
    MEMORYWRITE_EA = "mem_write_ea"
    BRANCH_TAKEN = "branch_taken"  # 1 if the branch will be taken
    BRANCH_TARGET = "branch_target"
    SYSCALL_NUMBER = "syscall_number"  # a0 at the syscall
    CONTEXT = "context"          # the CpuState object
    END = "end"                  # terminator


IARG_UINT64 = IArg.UINT64
IARG_ADDRINT = IArg.ADDRINT
IARG_PTR = IArg.PTR
IARG_INST_PTR = IArg.INST_PTR
IARG_REG_VALUE = IArg.REG_VALUE
IARG_MEMORYREAD_EA = IArg.MEMORYREAD_EA
IARG_MEMORYWRITE_EA = IArg.MEMORYWRITE_EA
IARG_BRANCH_TAKEN = IArg.BRANCH_TAKEN
IARG_BRANCH_TARGET = IArg.BRANCH_TARGET
IARG_SYSCALL_NUMBER = IArg.SYSCALL_NUMBER
IARG_CONTEXT = IArg.CONTEXT
IARG_END = IArg.END

#: Specifiers that consume the next positional value in the IARG list.
_TAKES_VALUE = {IArg.UINT64, IArg.ADDRINT, IArg.PTR, IArg.REG_VALUE}


def parse_iargs(raw: tuple) -> list[tuple[IArg, object]]:
    """Parse a C-style IARG vararg tail into (kind, value) pairs.

    The list must be terminated by ``IARG_END`` (matching Pin); a missing
    terminator or a dangling value raises :class:`InstrumentationError`.
    """
    specs: list[tuple[IArg, object]] = []
    i = 0
    while True:
        if i >= len(raw):
            raise InstrumentationError("IARG list not terminated by IARG_END")
        kind = raw[i]
        if not isinstance(kind, IArg):
            raise InstrumentationError(
                f"expected an IARG specifier at position {i}, got {kind!r}")
        if kind is IArg.END:
            if i != len(raw) - 1:
                raise InstrumentationError("arguments after IARG_END")
            return specs
        if kind in _TAKES_VALUE:
            if i + 1 >= len(raw):
                raise InstrumentationError(f"{kind} requires a value")
            specs.append((kind, raw[i + 1]))
            i += 2
        else:
            specs.append((kind, None))
            i += 1


Resolver = Callable[[], tuple]

#: A lowered spec list (see :func:`lower_resolver`): ``(True, args)``
#: for a fully static argument tuple, else ``(False, parts)`` where each
#: part is a small tuple naming one runtime-resolved argument.
ResolverRecipe = tuple

_SCALARS = (int, float, complex, str, bytes, type(None))


def is_immutable_value(value) -> bool:
    """True for an immutable scalar or a (nested) tuple of them — the
    ``IARG_PTR`` payloads a shared trace template may carry."""
    if isinstance(value, _SCALARS):
        return True
    return type(value) is tuple and all(is_immutable_value(v)
                                        for v in value)


def lower_resolver(specs: list[tuple[IArg, object]], ins,
                   taken_target: int | None = None) -> ResolverRecipe:
    """Validate (kind, value) pairs against ``ins`` and lower them.

    The result depends only on the instruction and the specifiers, never
    on an engine, so it can live in a VM-independent trace template;
    :func:`bind_resolver` turns it into a zero-argument tuple builder
    over one engine's registers.  Invalid specifiers raise
    :class:`InstrumentationError` here, at instrumentation time.
    """
    parts: list[tuple] = []
    static: list[object] = []
    all_static = True

    for kind, value in specs:
        if kind in (IArg.UINT64, IArg.ADDRINT):
            const = int(value) & MASK64  # type: ignore[arg-type]
            parts.append(("c", const))
            static.append(const)
        elif kind is IArg.PTR:
            parts.append(("c", value))
            static.append(value)
        elif kind is IArg.INST_PTR:
            parts.append(("c", ins.address))
            static.append(ins.address)
        elif kind is IArg.REG_VALUE:
            parts.append(("reg", int(value)))  # type: ignore[arg-type]
            all_static = False
        elif kind in (IArg.MEMORYREAD_EA, IArg.MEMORYWRITE_EA):
            if kind is IArg.MEMORYREAD_EA and not ins.is_memory_read:
                raise InstrumentationError(
                    f"{ins} does not read memory (IARG_MEMORYREAD_EA)")
            if kind is IArg.MEMORYWRITE_EA and not ins.is_memory_write:
                raise InstrumentationError(
                    f"{ins} does not write memory (IARG_MEMORYWRITE_EA)")
            parts.append(_ea_part(ins))
            all_static = False
        elif kind is IArg.BRANCH_TAKEN:
            if taken_target is not None:
                parts.append(("c", 1))
                static.append(1)
            else:
                parts.append(_taken_part(ins))
                all_static = False
        elif kind is IArg.BRANCH_TARGET:
            parts.append(_target_part(ins))
            all_static = False
        elif kind is IArg.SYSCALL_NUMBER:
            if not ins.is_syscall:
                raise InstrumentationError(
                    f"{ins} is not a syscall (IARG_SYSCALL_NUMBER)")
            parts.append(("reg", 2))  # a0
            all_static = False
        elif kind is IArg.CONTEXT:
            parts.append(("ctx",))
            all_static = False
        else:  # pragma: no cover
            raise InstrumentationError(f"unhandled IARG {kind}")

    if all_static:
        return (True, tuple(static))
    return (False, tuple(parts))


def bind_resolver(recipe: ResolverRecipe, cpu) -> Resolver:
    """Bind a lowered spec list to one engine's CPU state.

    Fully static argument lists fold to a constant tuple, so a call
    using only static arguments costs a single tuple reference per
    execution.
    """
    static, data = recipe
    if static:
        return lambda: data
    regs = cpu.regs
    parts = [_bind_part(part, regs, cpu) for part in data]
    return lambda: tuple(part() for part in parts)


def _bind_part(part: tuple, regs, cpu) -> Callable[[], object]:
    kind = part[0]
    if kind == "c":
        return lambda c=part[1]: c
    if kind == "reg":
        return lambda r=part[1]: regs[r]
    if kind == "ea":
        base, offset = part[1], part[2]
        return lambda: (regs[base] + offset) & MASK64
    if kind == "push":
        return lambda: (regs[29] - 1) & MASK64
    if kind == "taken":
        predicate = _taken_predicate(part[1], part[2], part[3], regs)
        return lambda: 1 if predicate() else 0
    return lambda: cpu  # "ctx"


#: Specifier kinds whose value is fully known at instrumentation time.
_STATIC_KINDS = (IArg.UINT64, IArg.ADDRINT, IArg.PTR, IArg.INST_PTR)


def try_static_args(specs: list[tuple[IArg, object]], ins) -> tuple | None:
    """Fold a spec list to a constant argument tuple, or None.

    Returns the argument tuple when every specifier is static (literal,
    pointer, or the instruction address) — the legality condition for
    loop summarization (repro.pin.suppress): an invariant payload can be
    fired once with a trip count instead of once per iteration.  Any
    dynamic specifier (register value, effective address, branch state)
    returns None.
    """
    static: list[object] = []
    for kind, value in specs:
        if kind in (IArg.UINT64, IArg.ADDRINT):
            static.append(int(value) & MASK64)  # type: ignore[arg-type]
        elif kind is IArg.PTR:
            static.append(value)
        elif kind is IArg.INST_PTR:
            static.append(ins.address)
        else:
            return None
    return tuple(static)


def _ea_part(ins) -> tuple:
    """Effective-address computation for LD/ST/PUSH/POP."""
    from ..isa.instructions import Op
    op = ins.op
    if op in (Op.LD, Op.ST):
        return ("ea", ins.rs, ins.imm)
    if op is Op.PUSH:
        return ("push",)
    if op is Op.POP:
        return ("reg", 29)
    raise InstrumentationError(f"{ins} has no memory operand")


def _taken_part(ins) -> tuple:
    """Pre-execution branch-taken predicate for a branch."""
    if ins.info.is_cond_branch:
        return ("taken", ins.op, ins.rs, ins.rt)
    if ins.info.is_uncond:
        return ("c", 1)
    raise InstrumentationError(f"{ins} is not a branch (IARG_BRANCH_TAKEN)")


def _taken_predicate(op, rs: int, rt: int, regs) -> Callable[[], bool]:
    from ..isa.instructions import Op, to_signed
    if op is Op.BEQ:
        return lambda: regs[rs] == regs[rt]
    if op is Op.BNE:
        return lambda: regs[rs] != regs[rt]
    if op is Op.BLT:
        return lambda: to_signed(regs[rs]) < to_signed(regs[rt])
    if op is Op.BGE:
        return lambda: to_signed(regs[rs]) >= to_signed(regs[rt])
    if op is Op.BLTU:
        return lambda: regs[rs] < regs[rt]
    return lambda: regs[rs] >= regs[rt]  # BGEU


def _target_part(ins) -> tuple:
    if ins.info.format in (Format.I, Format.BRANCH):
        return ("c", ins.imm)
    if ins.info.format is Format.R:  # jr / callr
        return ("reg", ins.rs)
    if ins.info.is_ret:
        return ("reg", 31)
    raise InstrumentationError(f"{ins} has no branch target")
