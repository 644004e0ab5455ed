"""JIT: lowers instrumented traces into executable step closures.

The compiled form of a trace is a list of *steps*, one per guest
instruction.  A step is a zero-argument closure returning:

* ``None``       — fall through to the next step;
* an int >= 0    — transfer control to that guest address (trace exit);
* ``EXIT_GUEST`` — the guest terminated (exit syscall or halt).

Compilation is split into ``lower`` (decode, instrument, plan — once
per run, into a VM-independent :class:`~repro.pin.template.
TraceTemplate`) and ``bind`` (build the closures over one engine); see
:mod:`repro.pin.template`.  Each instruction lowers to a *semantics
factory* picked once from :data:`SEMANTICS` plus its operands; binding
calls the factory.  Instrumentation is woven around the semantics at
bind time.  Un-instrumented instructions bind to their bare semantics
closure, so the instrumented-to-native overhead ratio is governed by the
analysis calls — which is the regime the paper's icount1/icount2
comparison explores.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ArithmeticFault
from ..isa.instructions import MASK64, Op
from .args import bind_resolver, lower_resolver
from .filter import run_trace_callbacks
from .suppress import LOOP_TRIP_CAP, SuppressedLoopTrace, plan_suppression
from .template import bind_fn, Recorder, TraceTemplate
from .trace import build_trace, Ins

#: Sentinel step result: the guest has exited.
EXIT_GUEST = -2

_SIGN = 1 << 63

Step = Callable[[], int | None]


class StopRun(Exception):
    """Raised from an analysis routine to stop the engine immediately.

    Used by SuperPin's signature detector on a full match and by
    ``SP_EndSlice``.  The engine unwinds to the instruction boundary of
    the step that raised: the instruction itself does *not* execute.
    """


class CompiledTrace:
    """Executable form of one trace (threaded-code backend)."""

    __slots__ = ("start", "steps", "addresses", "fall_address", "num_ins",
                 "bbl_sizes", "links", "exec_count")

    is_source = False
    #: Compile tier (see repro.pin.superblock): 1 = threaded code,
    #: eligible for promotion into a TC2 superblock.
    tier = 1
    #: A bounded trace retires at most ``num_ins`` instructions per
    #: invocation — the property the engine's exact-budget mode relies
    #: on.  Summarized loop traces override this (one invocation may
    #: retire thousands of instructions).
    unbounded = False

    def __init__(self, start: int, steps: list[Step], addresses: list[int],
                 fall_address: int | None, bbl_sizes: list[int]):
        self.start = start
        self.steps = steps
        self.addresses = addresses
        self.fall_address = fall_address
        self.num_ins = len(steps)
        self.bbl_sizes = bbl_sizes
        #: Direct trace links: exit pc -> successor trace, patched lazily
        #: by the engine (Pin's exit-stub patching).  Cleared wholesale
        #: by CodeCache.flush — a link must never outlive its target.
        self.links: dict[int, object] = {}
        #: Executions since compile (or since the last failed
        #: promotion); the TC2 promotion trigger.
        self.exec_count = 0


class Jit:
    """Compiles guest code regions for one engine."""

    def __init__(self, engine):
        self._engine = engine

    def compile(self, address: int) -> CompiledTrace:
        """The trace at ``address``: a cached template bound to this
        engine, or a fresh lowering bound the same way."""
        return self.bind(lookup_or_lower(self, address))

    def compile_step(self, address: int) -> CompiledTrace:
        """Lower a single-instruction trace (exact-budget stepping).

        Instrumentation still runs — the one instruction carries exactly
        the analysis calls a full compile would attach to it — but
        suppression never applies (a one-instruction trace has no loop
        body to summarize), so a step trace retires exactly one
        instruction per invocation.  Step traces are kept outside the
        code cache and the template cache: they exist only so the engine
        can land on an arbitrary instruction boundary without changing
        trace shapes.
        """
        template = self.lower(address, max_ins=1, suppress=False)
        self._engine.cache.stats.private_traces += 1
        return self.bind(template)

    # -- lowering ------------------------------------------------------------

    def lower(self, address: int, max_ins: int | None = None,
              suppress: bool = True) -> TraceTemplate:
        """Build, instrument and plan the trace at ``address``."""
        engine = self._engine
        trace_obj, rec, prefix = decode_and_instrument(engine, address,
                                                       max_ins)
        plan = plan_suppression(engine, trace_obj) if suppress else None
        if plan is None:
            body = tuple(_lower_ins(ins, rec)
                         for ins in trace_obj.instructions)
            loops = 0
        else:
            summaries = []
            for summary, args in plan.summaries:
                rec.value(args)
                summaries.append((rec.fn(summary), args))
            body = ("loop", tuple(_lower_sem(ins) for ins in plan.body[:-1]),
                    _lower_sem(plan.tail),
                    tuple(_lower_ins(ins, rec) for ins in plan.rest),
                    tuple(summaries), plan.body_len)
            loops = 1
        return finish_template(engine, trace_obj, rec, prefix, body, loops)

    # -- binding -------------------------------------------------------------

    def bind(self, template: TraceTemplate):
        """Build the executable trace for this engine from ``template``."""
        engine = self._engine
        apply_stats(engine, template)
        if template.body[0] == "loop":
            return self._bind_suppressed(template)
        return CompiledTrace(template.start,
                             _bind_steps(template.body, engine),
                             template.addresses, template.fall_address,
                             template.bbl_sizes)

    # -- redundancy suppression ----------------------------------------------

    def _bind_suppressed(self, template: TraceTemplate
                         ) -> SuppressedLoopTrace:
        """Bind a planned loop into its summarized form.

        The body semantics run per iteration; the invariant
        instrumentation fires once per loop exit (or per
        ``LOOP_TRIP_CAP`` trips) as ``summary(iterations, *args)``.
        The result uses the source-backend calling convention so one
        invocation can retire many instructions with exact unwind
        markers for the rare post-loop suffix.
        """
        engine = self._engine
        stats = engine.instr_stats
        counters = engine.counters
        cpu = engine.cpu
        env = (cpu.regs, engine.mem, cpu, engine)
        tool = engine.tool
        _tag, body, tail, rest, summary_entries, m = template.body

        body_sems = [_bind_sem(entry, env) for entry in body]
        tail_sem = _bind_sem(tail, env)
        rest_steps = _bind_steps(rest, engine)
        rest_addrs = [entry[1] for entry in rest]
        start = template.start
        n_rest = len(rest_steps)
        summaries = tuple((bind_fn(fn, tool), args)
                          for fn, args in summary_entries)
        n_calls = len(summaries)
        cap = LOOP_TRIP_CAP
        fall = template.fall_address
        resume_pc = rest_addrs[0] if rest_addrs else fall

        def fire(iterations: int) -> None:
            counters[0] += n_calls
            stats.loop_entries += 1
            stats.summarized_calls += n_calls
            stats.suppressed_calls += (iterations - 1) * n_calls
            for summary, args in summaries:
                summary(iterations, *args)

        def fn() -> tuple[int | None, int]:
            trips = 0
            while True:
                for sem in body_sems:
                    sem()
                # The tail branches to the head when taken (plan
                # legality), so any non-None result is the back edge.
                if tail_sem() is None:
                    break
                trips += 1
                if trips >= cap:
                    # Return to the dispatcher so the instruction
                    # budget and StopRun seams stay live; the direct
                    # link re-enters this trace on the next dispatch.
                    engine._stop_pc = start
                    engine._stop_count = trips * m
                    fire(trips)
                    return (start, trips * m)
            iterations = trips + 1
            base = iterations * m
            engine._stop_pc = resume_pc
            engine._stop_count = base
            fire(iterations)
            i = 0
            while i < n_rest:
                engine._stop_pc = rest_addrs[i]
                engine._stop_count = base + i
                result = rest_steps[i]()
                if result is not None:
                    return (result, base + i + 1)
                i += 1
            return (None, base + n_rest)

        return SuppressedLoopTrace(
            start=start, fn=fn, num_ins=template.num_ins,
            fall_address=fall, bbl_sizes=template.bbl_sizes)


# -- shared by both backends --------------------------------------------------

def lookup_or_lower(jit, address: int) -> TraceTemplate:
    """The template for ``address`` on ``jit``'s engine.

    Consults the engine's template cache (when one is attached and the
    engine's instrumentation has a shareable shape); a hit is a warm
    start — the bind that follows skips lowering.  A miss lowers, and a
    shareable result joins the cache.
    """
    engine = jit._engine
    stats = engine.cache.stats
    templates = engine.templates
    shape = engine.template_shape if templates is not None else None
    if shape is not None:
        template = templates.lookup(shape, address, engine.mem,
                                    engine.forced_boundaries)
        if template is not None:
            stats.warm_starts += 1
            return template
    template = jit.lower(address)
    if shape is not None and template.shareable:
        templates.add(shape, template)
    else:
        stats.private_traces += 1
    return template


def decode_and_instrument(engine, address: int, max_ins: int | None):
    """Build the trace at ``address`` and run the engine's callbacks.

    Returns ``(trace_obj, recorder, prefix)`` where ``prefix`` carries
    the code words, the forced cut and the filter statistics for
    :func:`finish_template`.
    """
    forced = engine.forced_boundaries
    trace_obj = build_trace(engine.mem, address, forced_boundaries=forced,
                            max_ins=engine.max_trace_ins if max_ins is None
                            else max_ins)
    skipped, fastpath = run_trace_callbacks(engine, trace_obj)
    fall = trace_obj.fall_address
    forced_cut = fall if fall is not None and fall in forced else None
    words = tuple(ins.raw for ins in trace_obj.instructions)
    rec = Recorder(engine.tool)
    if address in forced:
        # A trace headed by a forced boundary is lowered for that
        # boundary (its instrumentation, no loop summarizing): never
        # shared, mirroring TraceTemplate.matches.
        rec.shareable = False
    return trace_obj, rec, (words, forced_cut, skipped, fastpath)


def finish_template(engine, trace_obj, rec: Recorder, prefix, body,
                    loops: int) -> TraceTemplate:
    """Assemble a template and count the lowering."""
    words, forced_cut, skipped, fastpath = prefix
    template = TraceTemplate(
        start=trace_obj.address, words=words, forced_cut=forced_cut,
        fall_address=trace_obj.fall_address,
        bbl_sizes=[bbl.num_ins for bbl in trace_obj.bbls],
        stats=(skipped, fastpath, loops), body=body,
        shareable=rec.shareable)
    stats = engine.cache.stats
    stats.lowered_traces += 1
    stats.lowered_ins += template.num_ins
    return template


def apply_stats(engine, template: TraceTemplate) -> None:
    """Re-apply a template's instrumentation-statistics deltas."""
    skipped, fastpath, loops = template.stats
    if skipped or fastpath or loops:
        stats = engine.instr_stats
        stats.skipped_callbacks += skipped
        stats.fastpath_traces += fastpath
        stats.summarized_loops += loops


def lower_calls(ins: Ins, rec: Recorder):
    """Lower one instruction's analysis calls, or None if it has none.

    Returns ``(if_then, before, after, taken)``: if/then entries are
    ``(if_fn, if_args, then_fn, then_args)``, the others ``(fn, args)``,
    with functions as template entries and arguments as resolver
    recipes.
    """
    if not (ins.before_calls or ins.after_calls or ins.taken_calls
            or ins.if_then):
        return None

    def lower(call, taken_target=None):
        rec.specs(call.specs)
        return (rec.fn(call.fn),
                lower_resolver(call.specs, ins, taken_target))

    return (tuple(lower(if_call) + lower(then_call)
                  for if_call, then_call in ins.if_then),
            tuple(lower(call) for call in ins.before_calls),
            tuple(lower(call) for call in ins.after_calls),
            tuple(lower(call, taken_target=0) for call in ins.taken_calls))


# -- closure-backend lowering -------------------------------------------------

#: Ops that do nothing architectural when their destination is r0.
_RD_ONLY = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.SAR,
    Op.SLT, Op.SLTU, Op.ADDI, Op.MULI, Op.ANDI, Op.ORI, Op.XORI, Op.SHLI,
    Op.SHRI, Op.SARI, Op.SLTI, Op.LI, Op.LD,
})


def _lower_sem(ins: Ins) -> tuple:
    """One instruction's semantics: ``(factory, address, rd, rs, rt, imm)``."""
    op, rd = ins.op, ins.rd
    factory = _sem_nop if rd == 0 and op in _RD_ONLY else SEMANTICS[op]
    return (factory, ins.address, rd, ins.rs, ins.rt, ins.imm)


def _lower_ins(ins: Ins, rec: Recorder) -> tuple:
    """Semantics plus woven analysis calls for one instruction."""
    return _lower_sem(ins) + (lower_calls(ins, rec),)


def _bind_sem(entry: tuple, env: tuple) -> Step:
    factory, *operands = entry
    return factory(*env, *operands)


def _bind_steps(entries: tuple, engine) -> list[Step]:
    """Bind instruction entries (semantics + calls) to ``engine``."""
    cpu = engine.cpu
    regs, mem = cpu.regs, engine.mem
    tool, counters = engine.tool, engine.counters
    steps = []
    append = steps.append
    for factory, address, rd, rs, rt, imm, calls in entries:
        sem = factory(regs, mem, cpu, engine, address, rd, rs, rt, imm)
        append(sem if calls is None
               else _weave(sem, calls, cpu, tool, counters))
    return steps


def _bind_calls(entries, cpu, tool) -> tuple:
    return tuple((bind_fn(fn, tool), bind_resolver(args, cpu))
                 for fn, args in entries)


def _weave(sem: Step, calls: tuple, cpu, tool, counters) -> Step:
    """Bind an instruction's analysis calls around its semantics."""
    if_then_entries, before_entries, after_entries, taken_entries = calls
    if (len(before_entries) == 1
            and not (if_then_entries or after_entries or taken_entries)):
        return _weave_one_before(sem, before_entries[0], cpu, tool,
                                 counters)
    before = _bind_calls(before_entries, cpu, tool) if before_entries \
        else ()
    after = _bind_calls(after_entries, cpu, tool) if after_entries else ()
    taken = _bind_calls(taken_entries, cpu, tool) if taken_entries else ()
    if_then = tuple(
        (bind_fn(if_fn, tool), bind_resolver(if_args, cpu),
         bind_fn(then_fn, tool), bind_resolver(then_args, cpu))
        for if_fn, if_args, then_fn, then_args in if_then_entries)

    def step() -> int | None:
        # If/then pairs run before plain before-calls: SuperPin's
        # signature check must fire before any tool analysis at the
        # boundary instruction, because that instruction belongs to
        # the *next* slice (§4.4).
        for if_fn, if_resolve, then_fn, then_resolve in if_then:
            counters[1] += 1
            if if_fn(*if_resolve()):
                counters[0] += 1
                then_fn(*then_resolve())
        if before:
            counters[0] += len(before)
            for fn, resolve in before:
                fn(*resolve())
        result = sem()
        if result is None:
            if after:
                counters[0] += len(after)
                for fn, resolve in after:
                    fn(*resolve())
        elif result >= 0 and taken:
            counters[0] += len(taken)
            for fn, resolve in taken:
                fn(*resolve())
        return result

    return step


def _weave_one_before(sem: Step, call: tuple, cpu, tool, counters) -> Step:
    """The common shape — one before-call, nothing else — as a lean
    closure (same order and counting as the general step).

    Every ICount2/ICount1 call site has this shape; skipping the general
    step's empty if/then, after and taken checks makes gcc-icount2 about
    10% faster end to end (perfbench ``run_s``).
    """
    fn_entry, recipe = call
    fn = bind_fn(fn_entry, tool)
    static, args = recipe
    if static:
        def step_static() -> int | None:
            counters[0] += 1
            fn(*args)
            return sem()
        return step_static
    resolve = bind_resolver(recipe, cpu)

    def step() -> int | None:
        counters[0] += 1
        fn(*resolve())
        return sem()
    return step


# -- semantics factories ------------------------------------------------------
#
# ``factory(regs, mem, cpu, engine, address, rd, rs, rt, imm) -> Step``:
# each compiles one instruction's architectural semantics to a closure
# over one engine's state.  Picked once per instruction at lowering
# time (see _lower_sem); called once per bind.

def _nop() -> None:
    return None


def _sem_nop(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return _nop


def _sem_add(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(
        rd, (regs[rs] + regs[rt]) & MASK64), None)[1]


def _sem_sub(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(
        rd, (regs[rs] - regs[rt]) & MASK64), None)[1]


def _sem_mul(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(
        rd, (regs[rs] * regs[rt]) & MASK64), None)[1]


def _divmod(regs, cpu, address, rd, rs, rt, want_div: bool) -> Step:
    def sem_divmod() -> None:
        a, b = regs[rs], regs[rt]
        if b == 0:
            cpu.pc = address
            raise ArithmeticFault("division by zero", pc=address)
        if a & _SIGN:
            a -= 1 << 64
        if b & _SIGN:
            b -= 1 << 64
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        if rd:
            regs[rd] = (q if want_div else a - q * b) & MASK64
        return None
    return sem_divmod


def _sem_div(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return _divmod(regs, cpu, address, rd, rs, rt, True)


def _sem_mod(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return _divmod(regs, cpu, address, rd, rs, rt, False)


def _sem_and(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(rd, regs[rs] & regs[rt]), None)[1]


def _sem_or(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(rd, regs[rs] | regs[rt]), None)[1]


def _sem_xor(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(rd, regs[rs] ^ regs[rt]), None)[1]


def _sem_shl(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(
        rd, (regs[rs] << (regs[rt] & 63)) & MASK64), None)[1]


def _sem_shr(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(
        rd, regs[rs] >> (regs[rt] & 63)), None)[1]


def _sem_sar(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    def sem_sar() -> None:
        a = regs[rs]
        if a & _SIGN:
            a -= 1 << 64
        regs[rd] = (a >> (regs[rt] & 63)) & MASK64
        return None
    return sem_sar


def _sem_sltu(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(
        rd, 1 if regs[rs] < regs[rt] else 0), None)[1]


def _sem_slt(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    def sem_slt() -> None:
        a, b = regs[rs], regs[rt]
        if a & _SIGN:
            a -= 1 << 64
        if b & _SIGN:
            b -= 1 << 64
        regs[rd] = 1 if a < b else 0
        return None
    return sem_slt


def _sem_addi(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(
        rd, (regs[rs] + imm) & MASK64), None)[1]


def _sem_muli(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: (regs.__setitem__(
        rd, (regs[rs] * imm) & MASK64), None)[1]


def _sem_andi(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    masked = imm & MASK64
    return lambda: (regs.__setitem__(rd, regs[rs] & masked), None)[1]


def _sem_ori(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    masked = imm & MASK64
    return lambda: (regs.__setitem__(rd, regs[rs] | masked), None)[1]


def _sem_xori(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    masked = imm & MASK64
    return lambda: (regs.__setitem__(rd, regs[rs] ^ masked), None)[1]


def _sem_shli(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    sh = imm & 63
    return lambda: (regs.__setitem__(
        rd, (regs[rs] << sh) & MASK64), None)[1]


def _sem_shri(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    sh = imm & 63
    return lambda: (regs.__setitem__(rd, regs[rs] >> sh), None)[1]


def _sem_sari(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    sh = imm & 63

    def sem_sari() -> None:
        a = regs[rs]
        if a & _SIGN:
            a -= 1 << 64
        regs[rd] = (a >> sh) & MASK64
        return None
    return sem_sari


def _sem_slti(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    def sem_slti() -> None:
        a = regs[rs]
        if a & _SIGN:
            a -= 1 << 64
        regs[rd] = 1 if a < imm else 0
        return None
    return sem_slti


def _sem_li(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    value = imm & MASK64
    return lambda: (regs.__setitem__(rd, value), None)[1]


def _sem_ld(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    read = mem.read
    return lambda: (regs.__setitem__(
        rd, read((regs[rs] + imm) & MASK64)), None)[1]


def _sem_st(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    write = mem.write
    return lambda: (write((regs[rs] + imm) & MASK64, regs[rt]), None)[1]


def _sem_push(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    write = mem.write

    def sem_push() -> None:
        addr = (regs[29] - 1) & MASK64
        regs[29] = addr
        write(addr, regs[rs])
        return None
    return sem_push


def _sem_pop(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    read = mem.read

    def sem_pop() -> None:
        addr = regs[29]
        if rd:
            regs[rd] = read(addr)
        regs[29] = (addr + 1) & MASK64
        return None
    return sem_pop


def _sem_j(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: imm


def _sem_jr(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: regs[rs]


def _sem_call(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    npc = address + 1
    return lambda: (regs.__setitem__(31, npc), imm)[1]


def _sem_callr(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    npc = address + 1
    return lambda: (regs.__setitem__(31, npc), regs[rs])[1]


def _sem_ret(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: regs[31]


def _sem_beq(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: imm if regs[rs] == regs[rt] else None


def _sem_bne(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: imm if regs[rs] != regs[rt] else None


def _sem_bltu(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: imm if regs[rs] < regs[rt] else None


def _sem_bgeu(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return lambda: imm if regs[rs] >= regs[rt] else None


def _signed_branch(regs, rs, rt, imm, want_lt: bool) -> Step:
    def sem_signed_branch() -> int | None:
        a, b = regs[rs], regs[rt]
        if a & _SIGN:
            a -= 1 << 64
        if b & _SIGN:
            b -= 1 << 64
        taken = a < b if want_lt else a >= b
        return imm if taken else None
    return sem_signed_branch


def _sem_blt(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return _signed_branch(regs, rs, rt, imm, True)


def _sem_bge(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    return _signed_branch(regs, rs, rt, imm, False)


def _sem_syscall(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    npc = address + 1

    def sem_syscall() -> int:
        cpu.pc = npc
        engine.dispatch_syscall()
        if engine.exited:
            return EXIT_GUEST
        return cpu.pc
    return sem_syscall


def _sem_halt(regs, mem, cpu, engine, address, rd, rs, rt, imm):
    def sem_halt() -> int:
        cpu.pc = address
        engine.exited = True
        engine.exit_code = regs[1]
        return EXIT_GUEST
    return sem_halt


#: Opcode -> semantics factory (the closure backend's lowering table).
SEMANTICS = {
    Op.ADD: _sem_add, Op.SUB: _sem_sub, Op.MUL: _sem_mul,
    Op.DIV: _sem_div, Op.MOD: _sem_mod,
    Op.AND: _sem_and, Op.OR: _sem_or, Op.XOR: _sem_xor,
    Op.SHL: _sem_shl, Op.SHR: _sem_shr, Op.SAR: _sem_sar,
    Op.SLT: _sem_slt, Op.SLTU: _sem_sltu,
    Op.ADDI: _sem_addi, Op.MULI: _sem_muli, Op.ANDI: _sem_andi,
    Op.ORI: _sem_ori, Op.XORI: _sem_xori, Op.SHLI: _sem_shli,
    Op.SHRI: _sem_shri, Op.SARI: _sem_sari, Op.SLTI: _sem_slti,
    Op.LI: _sem_li, Op.LD: _sem_ld, Op.ST: _sem_st,
    Op.PUSH: _sem_push, Op.POP: _sem_pop,
    Op.J: _sem_j, Op.JR: _sem_jr, Op.CALL: _sem_call,
    Op.CALLR: _sem_callr, Op.RET: _sem_ret,
    Op.BEQ: _sem_beq, Op.BNE: _sem_bne, Op.BLTU: _sem_bltu,
    Op.BGEU: _sem_bgeu, Op.BLT: _sem_blt, Op.BGE: _sem_bge,
    Op.SYSCALL: _sem_syscall, Op.HALT: _sem_halt, Op.NOP: _sem_nop,
}
