"""The IR interpreter: executes a module under the cost model, driving
the cooperative tasking layer and (optionally) a sampling monitor.

Execution is fully deterministic: the discrete-event scheduler always
advances the lowest-clock thread, the run queue is FIFO, and the PMU
overflow check is exact — so repeated runs produce identical sample
streams (a property the tests assert; it also makes Table/Fig
regeneration reproducible, unlike the paper's hardware runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chapel.arith import int_div, int_mod, real_mod
from ..chapel.types import RecordType
from ..ir import instructions as I
from ..ir.module import Function, Module
from .builtins import BUILTINS, ProgramHalt
from .costmodel import CLOCK_HZ, CostModel, DEFAULT_COST_MODEL
from .memory import Heap
from .tasking import (
    SCHED_YIELD,
    Frame,
    Scheduler,
    SpawnRecord,
    Task,
    chunk_iteration_space,
)
from .values import (
    ArrayChunk,
    ArrayValue,
    AssociativeDomainValue,
    ClassValue,
    DomainChunk,
    DomainValue,
    RangeValue,
    RecordValue,
    RuntimeError_,
    SparseDomainValue,
    TupleValue,
    copy_value,
    default_value,
    value_slots,
)


#: Instructions a thread runs before the scheduler picks again (both
#: engines' quantum loops).
QUANTUM = 64


class ExecutionError(RuntimeError_):
    """A runtime error annotated with source location and call stack."""

    def __init__(self, message: str, loc: object, stack: list[str]) -> None:
        self.loc = loc
        self.stack = stack
        super().__init__(f"{loc}: {message}\n  in " + " <- ".join(stack))


class IterState:
    """Iterator over a range/domain/array (or a chunk thereof)."""

    __slots__ = ("kind", "pos", "end", "payload", "zippered")

    def __init__(self, kind: str, pos: int, end: int, payload: object, zippered: bool) -> None:
        self.kind = kind  # "range" | "domain" | "array"
        self.pos = pos  # linear position, pre-incremented by iter_next
        self.end = end  # inclusive
        self.payload = payload
        self.zippered = zippered


@dataclass
class RunResult:
    """Outcome of one program execution."""

    output: list[str]
    wall_seconds: float
    total_cycles: float
    idle_cycles: float
    busy_cycles: float
    instructions_executed: int
    heap: Heap
    halted: bool = False
    halt_message: str = ""

    @property
    def cpu_utilization(self) -> float:
        total = self.busy_cycles + self.idle_cycles
        return self.busy_cycles / total if total else 1.0


def _binop_scalar(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if isinstance(a, int) and isinstance(b, int):
            if b == 0:
                raise RuntimeError_("integer division by zero")
            return int_div(a, b)
        if b == 0:
            raise RuntimeError_("division by zero")
        return a / b
    if op == "%":
        if isinstance(a, int) and isinstance(b, int):
            if b == 0:
                raise RuntimeError_("integer modulo by zero")
            return int_mod(a, b)
        if b == 0:
            raise RuntimeError_("modulo by zero")
        return real_mod(a, b)
    if op == "**":
        return a**b
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "&&":
        return a and b
    if op == "||":
        return a or b
    raise RuntimeError_(f"unknown operator {op!r}")


def _tuple_binop(op: str, a, b, cm: CostModel) -> tuple[TupleValue, int]:
    """Elementwise ``a op b`` where ``a`` or ``b`` is a tuple (the other
    side may be a scalar): the result and its cycle cost."""
    if isinstance(a, TupleValue) and isinstance(b, TupleValue):
        if len(a.elems) != len(b.elems):
            raise RuntimeError_("tuple size mismatch in arithmetic")
        elems = [_binop_scalar(op, x, y) for x, y in zip(a.elems, b.elems)]
    elif isinstance(a, TupleValue):
        elems = [_binop_scalar(op, x, b) for x in a.elems]
    else:
        elems = [_binop_scalar(op, a, y) for y in b.elems]
    return TupleValue(elems), cm.tuple_op_per_slot * len(elems) + cm.make_tuple_base


class Interpreter:
    """Executes a :class:`Module` and reports timing/allocation stats.

    ``monitor`` (if given) receives ``take_sample(thread, task, stack,
    iid)`` on every PMU overflow — see ``repro.sampling``.
    """

    def __init__(
        self,
        module: Module,
        config: dict[str, object] | None = None,
        num_threads: int = 12,
        cost_model: CostModel | None = None,
        monitor: object | None = None,
        sample_threshold: float | None = None,
        skid: int = 0,
        skid_compensation: bool = False,
        engine: str = "fast",
    ) -> None:
        self.module = module
        self.config = dict(config or {})
        self.num_threads = num_threads
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.monitor = monitor
        self.sample_threshold = sample_threshold
        #: PMU skid: the sampled IP lands `skid` instructions after the
        #: overflow point (real PMUs overshoot; the paper defers "skid
        #: compensation" to future work — implemented here as an
        #: extension). With ``skid_compensation`` the monitor receives
        #: the precise overflow-time stack instead (PEBS-style).
        self.skid = skid
        self.skid_compensation = skid_compensation
        #: Pending skidded samples per thread id: (countdown,
        #: precise_stack, precise_iid, task).
        self._pending_skid: dict[int, list] = {}

        self.heap = Heap()
        self.scheduler = Scheduler(num_threads)
        self.output: list[str] = []
        self._last_write_complete = True
        self.globals_store: dict[str, list] = {}
        self.instructions_executed = 0
        self._penalties: dict[str, float] = {}
        self._spawn_records: dict[int, SpawnRecord] = {}
        self._pending_entry: list[Function] = []
        #: The stack of every idle sample: one tuple, shared by all.
        self._idle_stack = ((SCHED_YIELD, -1),)

        self._dispatch = {
            I.Alloca: self._ex_alloca,
            I.Load: self._ex_load,
            I.Store: self._ex_store,
            I.FieldAddr: self._ex_field_addr,
            I.ElemAddr: self._ex_elem_addr,
            I.TupleElemAddr: self._ex_tuple_elem_addr,
            I.BinOp: self._ex_binop,
            I.UnOp: self._ex_unop,
            I.Cast: self._ex_cast,
            I.Call: self._ex_call,
            I.Ret: self._ex_ret,
            I.Br: self._ex_br,
            I.CBr: self._ex_cbr,
            I.MakeRange: self._ex_make_range,
            I.MakeDomain: self._ex_make_domain,
            I.MakeSparseDomain: self._ex_make_sparse_domain,
            I.MakeAssocDomain: self._ex_make_assoc_domain,
            I.MakeArray: self._ex_make_array,
            I.ArraySlice: self._ex_array_slice,
            I.ArrayReindex: self._ex_array_reindex,
            I.DomainOp: self._ex_domain_op,
            I.MakeTuple: self._ex_make_tuple,
            I.TupleGet: self._ex_tuple_get,
            I.NewObject: self._ex_new_object,
            I.IterInit: self._ex_iter_init,
            I.IterNext: self._ex_iter_next,
            I.IterValue: self._ex_iter_value,
            I.SpawnJoin: self._ex_spawn_join,
        }

        #: Execution engine: "fast" runs straight-line stretches of
        #: register-only steps built once per block (see ``engine.py``);
        #: "generic" is the reference dict-dispatch loop.  Both produce
        #: bit-identical results (a tested invariant).
        if engine not in ("fast", "generic"):
            raise ValueError(f"unknown engine {engine!r}: expected 'fast' or 'generic'")
        self.engine = engine
        self._fast_engine = None
        if engine == "fast":
            from .engine import FastEngine

            self._fast_engine = FastEngine(self)

    # -- public API ------------------------------------------------------------

    def run(self) -> RunResult:
        """Runs module init then ``main`` (if present) to completion."""
        entry = self.module.global_init
        if entry is None:
            raise RuntimeError_("module has no init function")
        self._pending_entry = []
        if self.module.main is not None:
            self._pending_entry.append(self.module.main)
        frame = Frame(entry, None, None)
        frame.penalty = self._penalty(entry)
        task = Task(
            frame, is_main=True, task_id=self.scheduler.next_task_id()
        )
        self.scheduler.enqueue(task)

        halted = False
        halt_message = ""
        try:
            self._event_loop(task)
        except ProgramHalt as h:
            halted = True
            halt_message = str(h)
        return self.build_run_result(halted=halted, halt_message=halt_message)

    def build_run_result(
        self, halted: bool = False, halt_message: str = ""
    ) -> RunResult:
        """Assembles a :class:`RunResult` from the current scheduler
        state.  ``run()`` calls this at completion; ``collect_stage``
        calls it directly after a sink stopped the run early (the
        clocks then reflect exactly the truncated execution).

        Tolerates the immediate-stop edge: a run unwound before any
        thread advanced (or an interpreter whose thread list is empty)
        reports zero time rather than tripping ``max()`` on an empty
        sequence."""
        threads = self.scheduler.threads
        total = sum(t.clock for t in threads)
        idle = sum(t.idle_cycles for t in threads)
        busy = sum(t.busy_cycles for t in threads)
        wall = max((t.clock for t in threads), default=0.0)
        return RunResult(
            output=self.output,
            wall_seconds=wall / CLOCK_HZ,
            total_cycles=total,
            idle_cycles=idle,
            busy_cycles=busy,
            instructions_executed=self.instructions_executed,
            heap=self.heap,
            halted=halted,
            halt_message=halt_message,
        )

    # -- scheduling ------------------------------------------------------------

    def _event_loop(self, main_task: Task) -> None:
        sched = self.scheduler
        pick_thread = sched.pick_thread
        run_queue = sched.run_queue
        idle_cost = self.cost_model.idle_quantum
        threshold = self.sample_threshold
        sampling = threshold is not None and self.monitor is not None
        if sampling:
            take = self.monitor.take_sample
            idle_stack = self._idle_stack
        else:
            threshold = None
        while main_task.state != "done":
            thread = pick_thread()
            if thread.task is None:
                if run_queue:
                    task = run_queue.popleft()
                    task.state = "running"
                    # Causality: the task carries its virtual time; a
                    # thread whose clock lags fast-forwards (it was idle
                    # in the meantime — that time is sampled as idle,
                    # like the explicit __sched_yield ticks).
                    if task.last_clock > thread.clock:
                        delta = task.last_clock - thread.clock
                        thread.idle_cycles += delta
                        thread.clock = task.last_clock
                        self._accrue_pmu(thread, delta, idle=True)
                    thread.task = task
                elif sched.any_running:
                    # Idle stretch: the queue is empty and nothing can
                    # enqueue work until a busy thread runs, so the idle
                    # threads tick until a busy thread is min; each
                    # thread a tick made samples due for is handed back
                    # (_pmu_overflow's idle branch, inline).
                    stretch = sched.idle_stretch(idle_cost, threshold)
                    try:
                        for thread in stretch:
                            pmu = thread.pmu_counter
                            while pmu >= threshold:
                                pmu -= threshold
                                thread.pmu_counter = pmu
                                take(thread, None, idle_stack, -1)
                    finally:
                        stretch.close()
                    thread = pick_thread()
                else:
                    raise RuntimeError_(
                        "scheduler stalled: no runnable tasks but main not done"
                    )
            self._run_quantum(thread)

    def _run_quantum(self, thread) -> None:
        eng = self._fast_engine
        if eng is not None:
            eng.run_quantum(thread)
        else:
            self._run_quantum_generic(thread)

    def _run_quantum_generic(self, thread) -> None:
        for _ in range(QUANTUM):
            task = thread.task
            if task is None:
                return
            frame = task.frame
            if frame is None:
                return
            instr = frame.block.instructions[frame.index]
            self.instructions_executed += 1
            handler = self._dispatch.get(type(instr))
            if handler is None:
                raise self._error(f"no handler for {instr.opname}", instr, task)
            try:
                cost = handler(thread, task, frame, instr)
            except ProgramHalt:
                raise
            except ExecutionError:
                raise
            except RuntimeError_ as exc:
                raise self._error(str(exc), instr, task) from exc
            scaled = cost * frame.penalty
            thread.clock += scaled
            thread.busy_cycles += scaled
            task.last_clock = thread.clock
            self._accrue_pmu(thread, scaled, idle=False)
            if self.skid > 0:
                self._deliver_skidded(thread)

    def _accrue_pmu(self, thread, cost: float, idle: bool) -> None:
        if self.sample_threshold is None or self.monitor is None:
            return
        thread.pmu_counter += cost
        if thread.pmu_counter >= self.sample_threshold:
            self._pmu_overflow(thread, idle)

    def _pmu_overflow(self, thread, idle: bool) -> None:
        """Drains due PMU overflows (the slow path: only entered when
        the inline ``>= threshold`` check fires)."""
        while thread.pmu_counter >= self.sample_threshold:
            thread.pmu_counter -= self.sample_threshold
            if idle or thread.task is None:
                self.monitor.take_sample(thread, None, self._idle_stack, -1)
            elif self.skid <= 0:
                task = thread.task
                stack = task.stack_walk()
                self.monitor.take_sample(thread, task, stack, stack[0][1])
            else:
                # Skidded delivery: remember the precise overflow point,
                # deliver after `skid` more instructions of this thread.
                task = thread.task
                stack = task.stack_walk()
                self._pending_skid.setdefault(thread.thread_id, []).append(
                    [self.skid, stack, stack[0][1], task]
                )

    def _deliver_skidded(self, thread) -> None:
        """Counts down pending skidded samples; delivers those due."""
        pending = self._pending_skid.get(thread.thread_id)
        if not pending:
            return
        due = []
        for entry in pending:
            entry[0] -= 1
            if entry[0] <= 0:
                due.append(entry)
        if not due:
            return
        self._pending_skid[thread.thread_id] = [
            e for e in pending if e[0] > 0
        ]
        for _, precise_stack, precise_iid, task in due:
            if self.skid_compensation:
                # PEBS-style precise sample: the overflow-time state.
                self.monitor.take_sample(thread, task, precise_stack, precise_iid)
            else:
                cur = thread.task
                if cur is None or cur.frame is None:
                    self.monitor.take_sample(
                        thread, task, precise_stack, precise_iid
                    )
                else:
                    stack = cur.stack_walk()
                    self.monitor.take_sample(thread, cur, stack, stack[0][1])

    def _error(self, message: str, instr, task: Task) -> ExecutionError:
        stack = [f for f, _ in task.stack_walk()] if task.frame else []
        return ExecutionError(message, instr.loc, stack or ["<no stack>"])

    def _penalty(self, fn: Function) -> float:
        p = self._penalties.get(fn.name)
        if p is None:
            n = sum(len(b.instructions) for b in fn.blocks)
            p = self.cost_model.function_penalty(n)
            self._penalties[fn.name] = p
        return p

    # -- operand access -----------------------------------------------------------

    def _val(self, frame: Frame, op: I.Value) -> object:
        if isinstance(op, I.Constant):
            return op.value
        if isinstance(op, I.Register):
            try:
                return frame.regs[op.rid]
            except KeyError:
                raise RuntimeError_(f"register {op} read before definition")
        if isinstance(op, I.GlobalRef):
            return (self._global_box(op), 0)
        raise RuntimeError_(f"unknown operand kind {type(op).__name__}")

    def _global_box(self, ref: I.GlobalRef) -> list:
        """A global's one-slot storage cell, created with the type's
        default value on first use (the fast engine shares this)."""
        box = self.globals_store.get(ref.name)
        if box is None:
            box = [default_value(ref.type)] if not _needs_none(ref.type) else [None]
            self.globals_store[ref.name] = box
        return box

    # -- instruction handlers ----------------------------------------------------
    # Each returns the cycle cost; frame.index advances here unless the
    # instruction transfers control.

    def _ex_alloca(self, thread, task, frame, instr: I.Alloca) -> int:
        frame.regs[instr.result.rid] = ([None], 0)
        frame.index += 1
        return self.cost_model.alloca

    def _ex_load(self, thread, task, frame, instr: I.Load) -> int:
        lst, i = self._val(frame, instr.addr)
        v = lst[i]
        frame.regs[instr.result.rid] = v
        frame.index += 1
        return self.cost_model.load

    def _ex_store(self, thread, task, frame, instr: I.Store) -> int:
        value = self._val(frame, instr.value)
        lst, i = self._val(frame, instr.addr)
        cost = self.cost_model.store
        if isinstance(value, (TupleValue, RecordValue)):
            cost += self.cost_model.copy_per_slot * value_slots(value)
            value = copy_value(value)
        lst[i] = value
        frame.index += 1
        return cost

    def _ex_field_addr(self, thread, task, frame, instr: I.FieldAddr) -> int:
        base = self._val(frame, instr.base)
        cost = self.cost_model.field_addr
        if isinstance(base, tuple):
            obj = base[0][base[1]]
        else:
            obj = base
        if obj is None:
            raise RuntimeError_("field access through nil")
        if isinstance(obj, ClassValue):
            cost += self.cost_model.class_field_extra
        if not isinstance(obj, (RecordValue, ClassValue)):
            raise RuntimeError_(
                f"field access on non-record value {type(obj).__name__}"
            )
        frame.regs[instr.result.rid] = (obj.fields, instr.index)
        frame.index += 1
        return cost

    def _ex_elem_addr(self, thread, task, frame, instr: I.ElemAddr) -> int:
        arr = self._val(frame, instr.base)
        if not isinstance(arr, ArrayValue):
            raise RuntimeError_("indexing a non-array value")
        coords = tuple(self._val(frame, ix) for ix in instr.indices)
        frame.regs[instr.result.rid] = (arr.root.data, arr.flat_of(coords))
        frame.index += 1
        cost = self.cost_model.elem_addr
        if any(not isinstance(ix, I.Constant) for ix in instr.indices):
            cost += self.cost_model.elem_addr_dynamic_extra
        if arr.is_reindex:
            cost += self.cost_model.elem_addr_reindex_extra
        if self.heap._live_bytes > self.cost_model.llc_bytes:
            cost += self.cost_model.mem_stall
        return cost

    def _ex_tuple_elem_addr(self, thread, task, frame, instr: I.TupleElemAddr) -> int:
        lst, i = self._val(frame, instr.base)
        tup = lst[i]
        if not isinstance(tup, TupleValue):
            raise RuntimeError_("tuple element access on non-tuple")
        k = self._val(frame, instr.index)
        if not 0 <= k < len(tup.elems):
            raise RuntimeError_(
                f"tuple index {k} out of range 0..{len(tup.elems) - 1}"
            )
        frame.regs[instr.result.rid] = (tup.elems, k)
        frame.index += 1
        cost = self.cost_model.tuple_elem_addr
        if not isinstance(instr.index, I.Constant):
            cost += self.cost_model.tuple_index_dynamic_extra
        return cost

    # scalar/tuple arithmetic -----------------------------------------------------

    def _ex_binop(self, thread, task, frame, instr: I.BinOp) -> int:
        a = self._val(frame, instr.lhs)
        b = self._val(frame, instr.rhs)
        cm = self.cost_model
        if isinstance(a, TupleValue) or isinstance(b, TupleValue):
            out, cost = _tuple_binop(instr.op, a, b, cm)
            frame.regs[instr.result.rid] = out
            frame.index += 1
            return cost
        result = _binop_scalar(instr.op, a, b)
        frame.regs[instr.result.rid] = result
        frame.index += 1
        if instr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return cm.cmp_op
        if instr.op == "**":
            return cm.real_pow
        if instr.op == "/" and isinstance(result, float):
            return cm.real_div
        if isinstance(result, float):
            return cm.real_op
        return cm.int_op

    def _ex_unop(self, thread, task, frame, instr: I.UnOp) -> int:
        v = self._val(frame, instr.operand)
        if instr.op == "-":
            if isinstance(v, TupleValue):
                out: object = TupleValue([-x for x in v.elems])
                cost = self.cost_model.tuple_op_per_slot * len(v.elems)
            else:
                out = -v
                cost = self.cost_model.int_op
        elif instr.op == "!":
            out = not v
            cost = self.cost_model.int_op
        else:
            raise RuntimeError_(f"unknown unary op {instr.op!r}")
        frame.regs[instr.result.rid] = out
        frame.index += 1
        return cost

    def _ex_cast(self, thread, task, frame, instr: I.Cast) -> int:
        v = self._val(frame, instr.value)
        from ..chapel.types import IntType, RealType

        ty = instr.result.type
        if isinstance(ty, RealType):
            out: object = float(v)
        elif isinstance(ty, IntType):
            out = int(v)
        else:
            out = v
        frame.regs[instr.result.rid] = out
        frame.index += 1
        return self.cost_model.int_op

    # calls ------------------------------------------------------------------------

    def _ex_call(self, thread, task, frame, instr: I.Call) -> int:
        args = [self._val(frame, a) for a in instr.args]
        if instr.is_builtin:
            impl = BUILTINS.get(instr.callee)
            if impl is None:
                raise RuntimeError_(f"unknown builtin {instr.callee!r}")
            result, cost = impl(self, thread, args)
            if instr.result is not None:
                frame.regs[instr.result.rid] = result
            frame.index += 1
            return self.cost_model.builtin_call + cost
        callee = self.module.get_function(instr.callee)
        if callee is None:
            raise RuntimeError_(f"call to unknown function {instr.callee!r}")
        new_frame = Frame(callee, frame, instr.iid)
        new_frame.penalty = self._penalty(callee)
        for p, a in zip(callee.params, args):
            new_frame.regs[p.register.rid] = a
        # The caller's index stays at the call; it advances on return
        # (so stack walks report the call site while the callee runs).
        task.frame = new_frame
        return self.cost_model.call_overhead

    def _ex_ret(self, thread, task, frame, instr: I.Ret) -> int:
        value = self._val(frame, instr.value) if instr.value is not None else None
        caller = frame.caller
        if caller is None:
            self._finish_task_root(thread, task)
            return self.cost_model.ret
        call_instr = caller.block.instructions[caller.index]
        assert isinstance(call_instr, I.Call)
        if call_instr.result is not None:
            caller.regs[call_instr.result.rid] = value
        caller.index += 1
        task.frame = caller
        return self.cost_model.ret

    def _finish_task_root(self, thread, task: Task) -> None:
        """Root frame returned: run the next entry (main task) or
        complete the worker task and maybe release its joiner."""
        if task.is_main and self._pending_entry:
            nxt = self._pending_entry.pop(0)
            frame = Frame(nxt, None, None)
            frame.penalty = self._penalty(nxt)
            task.frame = frame
            return
        task.frame = None
        task.state = "done"
        thread.task = None
        spawn = task.spawn
        if spawn is not None and not task.is_main:
            spawn.completed += 1
            spawn.completion_clock = max(spawn.completion_clock, thread.clock)
            if spawn.completed >= spawn.n_tasks and spawn.waiter is not None:
                waiter = spawn.waiter
                spawn.waiter = None
                # The join releases when the last worker finishes.
                waiter.last_clock = max(waiter.last_clock, spawn.completion_clock)
                self.scheduler.enqueue(waiter)

    def _ex_br(self, thread, task, frame, instr: I.Br) -> int:
        frame.block = instr.target
        frame.index = 0
        return self.cost_model.br

    def _ex_cbr(self, thread, task, frame, instr: I.CBr) -> int:
        cond = self._val(frame, instr.cond)
        frame.block = instr.then_block if cond else instr.else_block
        frame.index = 0
        return self.cost_model.cbr

    # ranges / domains / arrays ------------------------------------------------------

    def _ex_make_range(self, thread, task, frame, instr: I.MakeRange) -> int:
        lo = self._val(frame, instr.ops[0])
        hi = self._val(frame, instr.ops[1])
        step = self._val(frame, instr.ops[2])
        if instr.counted:
            hi = lo + (hi - 1) * abs(step) if step != 1 else lo + hi - 1
        frame.regs[instr.result.rid] = RangeValue(lo, hi, step)
        frame.index += 1
        return self.cost_model.make_range

    def _ex_make_domain(self, thread, task, frame, instr: I.MakeDomain) -> int:
        dims = tuple(self._val(frame, d) for d in instr.ops)
        if not all(isinstance(d, RangeValue) for d in dims):
            raise RuntimeError_("domain dimensions must be ranges")
        frame.regs[instr.result.rid] = DomainValue(dims)
        frame.index += 1
        return self.cost_model.make_domain

    def _ex_make_sparse_domain(
        self, thread, task, frame, instr: I.MakeSparseDomain
    ) -> int:
        parent = self._val(frame, instr.parent_domain)
        if not isinstance(parent, DomainValue):
            raise RuntimeError_("sparse subdomain parent is not a domain")
        frame.regs[instr.result.rid] = SparseDomainValue(parent)
        frame.index += 1
        return self.cost_model.make_domain

    def _ex_make_assoc_domain(
        self, thread, task, frame, instr: I.MakeAssocDomain
    ) -> int:
        frame.regs[instr.result.rid] = AssociativeDomainValue()
        frame.index += 1
        return self.cost_model.make_domain

    def _ex_make_array(self, thread, task, frame, instr: I.MakeArray) -> int:
        dom = self._val(frame, instr.domain)
        if not isinstance(
            dom, (DomainValue, SparseDomainValue, AssociativeDomainValue)
        ):
            raise RuntimeError_("array domain is not a domain value")
        n = dom.size
        elem_ty = instr.elem_type
        if isinstance(elem_ty, (RecordType,)) or isinstance(
            default_value(elem_ty), (TupleValue, RecordValue)
        ):
            data = [default_value(elem_ty) for _ in range(n)]
            slot_factor = value_slots(data[0]) if n else 1
        else:
            data = [default_value(elem_ty)] * n
            slot_factor = 1
        alloc = self.heap.allocate(
            "array", n * slot_factor, instr.loc, frame.function.name
        )
        arr = ArrayValue(dom, elem_ty, data=data, heap_id=alloc.heap_id)
        if isinstance(dom, (SparseDomainValue, AssociativeDomainValue)):
            # Irregular domains grow; their arrays must grow with them.
            dom.register_array(arr)
        frame.regs[instr.result.rid] = arr
        frame.index += 1
        # Allocation + zero-fill is charged per scalar slot — Chapel
        # array creation (domain registration, default init) is what
        # LULESH's Variable Globalization hoists (paper §V.C).
        return (
            self.cost_model.make_array_base
            + self.cost_model.make_array_per_elem * n * slot_factor
        )

    def _ex_array_slice(self, thread, task, frame, instr: I.ArraySlice) -> int:
        arr = self._val(frame, instr.base)
        dom = self._val(frame, instr.domain)
        if not isinstance(arr, ArrayValue) or not isinstance(dom, DomainValue):
            raise RuntimeError_("bad slice operands")
        frame.regs[instr.result.rid] = arr.slice(dom)
        frame.index += 1
        return self.cost_model.array_slice

    def _ex_array_reindex(self, thread, task, frame, instr: I.ArrayReindex) -> int:
        arr = self._val(frame, instr.base)
        dom = self._val(frame, instr.domain)
        if not isinstance(arr, ArrayValue) or not isinstance(dom, DomainValue):
            raise RuntimeError_("bad reindex operands")
        frame.regs[instr.result.rid] = arr.reindex(dom)
        frame.index += 1
        return self.cost_model.array_reindex

    def _ex_domain_op(self, thread, task, frame, instr: I.DomainOp) -> int:
        base = self._val(frame, instr.base)
        args = [self._val(frame, a) for a in instr.ops[1:]]
        op = instr.op
        out: object
        if op == "size":
            out = base.size
        elif op == "domain":
            if not isinstance(base, ArrayValue):
                raise RuntimeError_(".domain on non-array")
            out = base.domain
        elif op in ("low", "high"):
            if isinstance(base, RangeValue):
                out = base.lo if op == "low" else base.hi
            elif isinstance(base, DomainValue):
                coords = [d.lo if op == "low" else d.hi for d in base.dims]
                out = coords[0] if base.rank == 1 else TupleValue(coords)
            else:
                raise RuntimeError_(f".{op} on {type(base).__name__}")
        elif op == "dim":
            if not isinstance(base, DomainValue):
                raise RuntimeError_(".dim on non-domain")
            out = base.dims[args[0]]
        elif op in ("expand", "translate", "interior"):
            if not isinstance(base, DomainValue):
                raise RuntimeError_(f".{op} on non-domain")
            if len(args) == 1 and isinstance(args[0], TupleValue):
                amounts = tuple(args[0].elems)
            else:
                amounts = tuple(args)
            out = getattr(base, op)(amounts)
        elif op == "insert":
            idx = args[0]
            if isinstance(base, SparseDomainValue):
                coords = (
                    tuple(idx.elems) if isinstance(idx, TupleValue) else (idx,)
                )
                out = base.insert(coords)
            elif isinstance(base, AssociativeDomainValue):
                out = base.insert(idx)
            else:
                raise RuntimeError_(
                    "index insertion on a non-irregular domain"
                )
        else:
            raise RuntimeError_(f"unknown domain op {op!r}")
        frame.regs[instr.result.rid] = out
        frame.index += 1
        return self.cost_model.domain_op

    def _ex_make_tuple(self, thread, task, frame, instr: I.MakeTuple) -> int:
        elems = [copy_value(self._val(frame, e)) for e in instr.ops]
        tup = TupleValue(elems)
        frame.regs[instr.result.rid] = tup
        frame.index += 1
        return (
            self.cost_model.make_tuple_base
            + self.cost_model.make_tuple_per_slot * value_slots(tup)
        )

    def _ex_tuple_get(self, thread, task, frame, instr: I.TupleGet) -> int:
        tup = self._val(frame, instr.tup)
        k = self._val(frame, instr.index)
        if not isinstance(tup, TupleValue):
            raise RuntimeError_("tuple access on non-tuple value")
        if not 0 <= k < len(tup.elems):
            raise RuntimeError_(f"tuple index {k} out of range")
        frame.regs[instr.result.rid] = tup.elems[k]
        frame.index += 1
        cost = self.cost_model.tuple_get
        if not isinstance(instr.index, I.Constant):
            cost += self.cost_model.tuple_index_dynamic_extra
        return cost

    def _ex_new_object(self, thread, task, frame, instr: I.NewObject) -> int:
        rec = self.module.records.get(instr.type_name)
        if rec is None:
            raise RuntimeError_(f"unknown record type {instr.type_name!r}")
        args = [copy_value(self._val(frame, a)) for a in instr.ops]
        fields: list = []
        for i, (_, fty) in enumerate(rec.fields):
            if i < len(args):
                fields.append(args[i])
            else:
                fields.append(default_value(fty))
        cm = self.cost_model
        if rec.is_class:
            nslots = sum(value_slots(f) for f in fields) if fields else 1
            alloc = self.heap.allocate(
                "object", nslots, instr.loc, frame.function.name
            )
            obj: object = ClassValue(rec, fields, heap_id=alloc.heap_id)
            cost = cm.new_object_base + cm.new_object_per_field * len(fields)
        else:
            obj = RecordValue(rec, fields)
            cost = cm.new_record_base + cm.new_record_per_field * len(fields)
        frame.regs[instr.result.rid] = obj
        frame.index += 1
        return cost

    # iterators -----------------------------------------------------------------------

    def _ex_iter_init(self, thread, task, frame, instr: I.IterInit) -> int:
        it = self._val(frame, instr.iterable)
        cm = self.cost_model
        z = instr.zippered
        if isinstance(it, RangeValue):
            state = IterState("range", -1, it.size - 1, it, z)
            cost = cm.iter_init_range
        elif isinstance(it, DomainValue):
            state = IterState("domain", -1, it.size - 1, it, z)
            cost = cm.iter_init_domain
        elif isinstance(it, (SparseDomainValue, AssociativeDomainValue)):
            state = IterState("domain", -1, it.size - 1, it, z)
            cost = cm.iter_init_domain
        elif isinstance(it, DomainChunk):
            state = IterState("domain", it.lo - 1, it.hi, it.domain, z)
            cost = cm.iter_init_domain
        elif isinstance(it, ArrayValue):
            state = IterState("array", -1, it.size - 1, it, z)
            cost = cm.iter_init_array
        elif isinstance(it, ArrayChunk):
            state = IterState("array", it.lo - 1, it.hi, it.array, z)
            cost = cm.iter_init_array
        else:
            raise RuntimeError_(f"cannot iterate {type(it).__name__}")
        if z:
            cost += cm.iter_init_zip_extra
        frame.regs[instr.result.rid] = state
        frame.index += 1
        return cost

    def _ex_iter_next(self, thread, task, frame, instr: I.IterNext) -> int:
        state = self._val(frame, instr.state)
        if not isinstance(state, IterState):
            raise RuntimeError_("iter_next on non-iterator")
        state.pos += 1
        frame.regs[instr.result.rid] = state.pos <= state.end
        frame.index += 1
        cm = self.cost_model
        cost = {
            "range": cm.iter_next_range,
            "domain": cm.iter_next_domain,
            "array": cm.iter_next_array,
        }[state.kind]
        if state.zippered:
            cost += cm.iter_next_zip_extra
        return cost

    def _ex_iter_value(self, thread, task, frame, instr: I.IterValue) -> int:
        state = self._val(frame, instr.state)
        if not isinstance(state, IterState):
            raise RuntimeError_("iter_value on non-iterator")
        cm = self.cost_model
        cost = cm.iter_value
        if state.kind == "range":
            rng: RangeValue = state.payload  # type: ignore[assignment]
            out: object = rng.nth(state.pos)
        elif state.kind == "domain":
            dom: DomainValue = state.payload  # type: ignore[assignment]
            coords = dom.coords_of(state.pos)
            out = coords[0] if dom.rank == 1 else TupleValue(list(coords))
            cost += cm.iter_value_domain_extra
        else:  # array
            arr: ArrayValue = state.payload  # type: ignore[assignment]
            coords = arr.domain.coords_of(state.pos)
            out = (arr.root.data, arr.flat_of(coords))
            cost += cm.iter_value_domain_extra
            if arr.is_reindex:
                cost += cm.elem_addr_reindex_extra
            if self.heap._live_bytes > cm.llc_bytes:
                cost += cm.mem_stall
        frame.regs[instr.result.rid] = out
        frame.index += 1
        return cost

    # tasking --------------------------------------------------------------------------

    def _ex_spawn_join(self, thread, task, frame, instr: I.SpawnJoin) -> int:
        iterables = [self._val(frame, it) for it in instr.iterables]
        captures = [self._val(frame, c) for c in instr.captures]
        outlined = self.module.get_function(instr.outlined)
        if outlined is None:
            raise RuntimeError_(f"unknown outlined function {instr.outlined!r}")
        chunks = chunk_iteration_space(iterables, instr.kind, self.num_threads)
        cm = self.cost_model
        if not chunks:
            frame.index += 1
            return cm.spawn_base
        tag = self.scheduler.next_spawn_tag()
        # The pre-spawn stack is recorded *fully glued*: a worker task
        # spawning a nested parallel loop prepends its own pre-spawn
        # stack, so post-mortem gluing (paper §IV.C) always reaches main.
        pre_stack = task.stack_walk()
        if task.spawn is not None and not task.is_main:
            pre_stack = pre_stack + task.spawn.pre_spawn_stack
        record = SpawnRecord(
            tag=tag,
            kind=instr.kind,
            pre_spawn_stack=pre_stack,
            n_tasks=len(chunks),
        )
        self._spawn_records[tag] = record
        penalty = self._penalty(outlined)
        spawn_clock = thread.clock
        for chunk_args in chunks:
            wframe = Frame(outlined, None, None)
            wframe.penalty = penalty
            all_args = list(chunk_args) + captures
            for p, a in zip(outlined.params, all_args):
                wframe.regs[p.register.rid] = a
            wtask = Task(
                wframe, spawn=record, task_id=self.scheduler.next_task_id()
            )
            wtask.last_clock = spawn_clock  # workers start at spawn time
            self.scheduler.enqueue(wtask)
        # The spawner suspends at the join; it resumes after the spawn
        # instruction once all workers complete.
        frame.index += 1
        record.waiter = task
        task.state = "joining"
        thread.task = None
        return cm.spawn_base + cm.spawn_per_task * len(chunks)


def _needs_none(ty) -> bool:
    from ..chapel.types import ArrayType, DomainType, RangeType

    return isinstance(ty, (ArrayType, DomainType, RangeType))
