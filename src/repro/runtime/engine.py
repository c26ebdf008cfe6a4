"""Fast execution engine: register-only steps run in straight-line stretches.

The generic loop (``Interpreter._run_quantum_generic``) pays, per
instruction, a ``type(instr)`` dict lookup, operand kind tests in
``_val``, cost-model attribute reads, and writes of the frame index,
clock, busy cycles, task clock and PMU counter.  This engine resolves
the static part once per basic block, the first time the block runs,
into a *plan*:

* every instruction that touches only registers, memory cells and the
  heap's live-byte count gets a *register-only step*,
  ``step(regs) -> cost``, with its register ids, constants, global
  names and static costs bound;
* every other instruction (transfers, calls, spawns, allocation,
  domain algebra) keeps its generic handler, which stays the single
  source of truth for its semantics.

A block's instructions all belong to one function, whose frames all
carry one icache penalty, so a step returns its cost already scaled by
that penalty: a static cost is multiplied once, when the plan is built.

``run_quantum`` runs each maximal stretch of register-only steps, up
to the quantum budget, in one ``for`` loop that holds the clock, busy
cycles and PMU counter in locals; a run without sampling takes a loop
that has no PMU counter at all.  The loop writes its state and the
frame index back once per stretch, and before the only calls that read
them: the monitor when a sample is due, and the error path.

Semantics are bit-for-bit those of the generic loop:

* per instruction, ``scaled = cost * penalty``, then ``clock +=
  scaled``, ``busy += scaled``, ``pmu += scaled`` and the ``>=
  threshold`` compare, in that order (re-associating would round
  differently under the non-integer icache penalties);
* a sample due after an instruction is delivered inside the stretch:
  the loop writes the stretch back up to that instruction, hands the
  monitor the task's stack (one concatenation of the leaf onto the
  frame's calling context) for each due sample, re-reads the clock,
  which charges the stack walks to it, and goes on.  An exception the
  sink raises there (``StopSampling``) leaves the stretch written back
  and propagates; it is never taken for a step fault;
* a step raises only where the generic handler raises, and before it
  mutates anything.  The engine then writes the stretch back, leaves
  ``frame.index`` at the faulting instruction (counted as executed)
  and re-executes it with the generic handler, which raises the error
  the generic loop raises there, message and all;
* with PMU skid every instruction is a stretch of its own, its due
  samples go through ``Interpreter._pmu_overflow``, and pending
  skidded samples are delivered after each one;
* a ``Br``, or a ``CBr`` on a register or constant, switches blocks in
  place: the engine picks the target as ``Interpreter._ex_cbr`` does,
  charges the branch's scaled cost as the generic loop charges a
  handler's, and goes on in the target block's plan (a branch never
  changes task, frame or penalty).  A ``CBr`` on an undefined register
  takes the generic handler, which raises the generic loop's error.

``tests/runtime/test_engine.py`` asserts engine-vs-generic equality of
outputs, cycle and instruction counts, error states and sample streams.
"""

from __future__ import annotations

import operator
from dataclasses import fields, replace
from functools import partial

from ..chapel.types import IntType, RealType
from ..ir import instructions as I
from .builtins import ProgramHalt
from .interpreter import QUANTUM, ExecutionError, IterState, _binop_scalar, _tuple_binop
from .values import (
    _VALUE_AGGREGATES,
    ArrayValue,
    ClassValue,
    RangeValue,
    RecordValue,
    RuntimeError_,
    TupleValue,
    copy_value,
    value_slots,
)

#: Instructions after which the engine must re-resolve the current
#: task/frame/block (they transfer control or switch tasks).
_TRANSFERS = (I.Call, I.Ret, I.Br, I.CBr, I.SpawnJoin)

_CMP_FNS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "&&": lambda a, b: a and b,
    "||": lambda a, b: a or b,
}

_ARITH_FNS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class _Fault(Exception):
    """Raised by a step at a check the generic handler also makes; the
    engine re-executes the instruction generically for the error."""


def _operand(op):
    """``(rid, None)`` for a register operand, ``(None, value)`` for a
    constant, None for any other kind (the instruction then keeps its
    generic handler)."""
    if isinstance(op, I.Register):
        return op.rid, None
    if isinstance(op, I.Constant):
        return None, op.value
    return None


class FastEngine:
    """Per-interpreter plan cache + quantum loop (see module docstring)."""

    def __init__(self, interp) -> None:
        self.interp = interp
        cm = interp.cost_model
        #: The cost model with every cost a float.  Steps return these,
        #: so ``cost * penalty`` multiplies two floats, which CPython
        #: runs specialized (an int operand takes the generic path).
        #: Costs are small integers, which a float holds exactly, so
        #: every sum and product is the generic loop's.
        self.costs = replace(cm, **{f.name: float(getattr(cm, f.name)) for f in fields(cm)})
        #: id(block) -> (block, steps, ends, handlers, transfers,
        #: branches).  The block ref in the value pins the object so ids
        #: are never reused while a plan is live.
        self._plans: dict[int, tuple] = {}
        self._factories = {
            I.Alloca: self._alloca,
            I.Load: self._load,
            I.Store: self._store,
            I.FieldAddr: self._field_addr,
            I.ElemAddr: self._elem_addr,
            I.TupleElemAddr: self._tuple_elem_addr,
            I.BinOp: self._binop,
            I.UnOp: self._unop,
            I.Cast: self._cast,
            I.MakeRange: self._make_range,
            I.MakeTuple: self._make_tuple,
            I.TupleGet: self._tuple_get,
            I.IterNext: self._iter_next,
            I.IterValue: self._iter_value,
        }

    # -- quantum loop ----------------------------------------------------------

    def run_quantum(self, thread) -> None:
        interp = self.interp
        plans = self._plans
        threshold = interp.sample_threshold
        sampling = threshold is not None and interp.monitor is not None
        if sampling:
            # A float compares with the float PMU counter on CPython's
            # specialized path; an integer threshold converts exactly.
            threshold = float(threshold)
            take = interp.monitor.take_sample
        has_skid = interp.skid > 0
        overflow = interp._pmu_overflow
        deliver = interp._deliver_skidded
        budget = QUANTUM
        executed = 0
        try:
            task = thread.task
            while budget > 0:
                if task is None:
                    return
                frame = task.frame
                if frame is None:
                    return
                block = frame.block
                plan = plans.get(id(block))
                if plan is None or plan[0] is not block:
                    plan = self._build_plan(block, frame.penalty)
                    plans[id(block)] = plan
                _, steps, ends, handlers, transfers, branches = plan
                instrs = block.instructions
                regs = frame.regs
                # The frame (hence its icache penalty) is fixed until the
                # next transfer, which breaks this loop.
                penalty = frame.penalty
                while budget > 0:
                    i = frame.index
                    n = ends[i]
                    if n > i:
                        # A stretch of register-only steps [i, n); each
                        # step returns its cost already scaled by the
                        # penalty.
                        if has_skid:
                            n = i + 1
                        elif n - i > budget:
                            n = i + budget
                        clock = thread.clock
                        busy = thread.busy_cycles
                        fault = False
                        j = i
                        if not sampling:
                            try:
                                for j in range(i, n):
                                    scaled = steps[j](regs)
                                    clock += scaled
                                    busy += scaled
                            except Exception:
                                n = j
                                fault = True
                            sent = -1
                        else:
                            pmu = thread.pmu_counter
                            # The instruction after which a sample was
                            # last delivered (-1: none), and whether the
                            # sink is running (its exceptions are not
                            # step faults).
                            sent = -1
                            sending = False
                            try:
                                for j in range(i, n):
                                    scaled = steps[j](regs)
                                    clock += scaled
                                    busy += scaled
                                    pmu += scaled
                                    if pmu >= threshold:
                                        # Deliver inside the stretch: write
                                        # its state back, take the due
                                        # samples, re-read the clock (the
                                        # walks are charged to it), go on.
                                        sending = True
                                        frame.index = j + 1
                                        thread.clock = clock
                                        thread.busy_cycles = busy
                                        task.last_clock = clock
                                        thread.pmu_counter = pmu
                                        if has_skid:
                                            overflow(thread, False)
                                        else:
                                            # A stretch never holds its
                                            # block's terminator, so j + 1
                                            # is an instruction of it.
                                            leaf = instrs[j + 1].iid
                                            ctx = frame.ctx
                                            if ctx is None:
                                                ctx = frame.context()
                                            stack = ((frame.function.name, leaf),) + ctx
                                            while pmu >= threshold:
                                                pmu -= threshold
                                                thread.pmu_counter = pmu
                                                take(thread, task, stack, leaf)
                                        clock = thread.clock
                                        pmu = thread.pmu_counter
                                        sent = j
                                        sending = False
                            except Exception:
                                if sending:
                                    executed += j + 1 - i
                                    raise
                                n = j
                                fault = True
                            thread.pmu_counter = pmu
                        frame.index = n
                        thread.clock = clock
                        thread.busy_cycles = busy
                        # After a delivery at the stretch's last step the
                        # task clock stays at the pre-walk time, as in the
                        # generic loop.
                        if n > i and sent != n - 1:
                            task.last_clock = clock
                        executed += n - i
                        budget -= n - i
                        if fault:
                            executed += 1
                            self._fault(thread, task, frame, n)
                        if has_skid:
                            deliver(thread)
                        continue
                    executed += 1
                    budget -= 1
                    br = branches[i]
                    if br is not None:
                        target, other, rid, scaled = br
                        try:
                            if rid is not None and not regs[rid]:
                                target = other
                        except KeyError:
                            br = None  # the generic handler raises
                    if br is not None:
                        # A branch: switch blocks in place and go on in
                        # the target's plan (same task, frame, penalty).
                        frame.block = target
                        frame.index = 0
                        clock = thread.clock + scaled
                        thread.clock = clock
                        thread.busy_cycles += scaled
                        task.last_clock = clock
                        if sampling:
                            pmu = thread.pmu_counter + scaled
                            thread.pmu_counter = pmu
                            if pmu >= threshold:
                                overflow(thread, False)
                        if has_skid:
                            deliver(thread)
                        block = target
                        plan = plans.get(id(block))
                        if plan is None or plan[0] is not block:
                            plan = self._build_plan(block, penalty)
                            plans[id(block)] = plan
                        _, steps, ends, handlers, transfers, branches = plan
                        instrs = block.instructions
                        continue
                    try:
                        cost = handlers[i](thread, task, frame, instrs[i])
                    except ProgramHalt:
                        raise
                    except ExecutionError:
                        raise
                    except RuntimeError_ as exc:
                        raise interp._error(str(exc), instrs[i], task) from exc
                    scaled = cost * penalty
                    thread.clock += scaled
                    thread.busy_cycles += scaled
                    task.last_clock = thread.clock
                    if sampling:
                        pmu = thread.pmu_counter + scaled
                        thread.pmu_counter = pmu
                        if pmu >= threshold:
                            overflow(thread, False)
                    if has_skid:
                        deliver(thread)
                    if transfers[i]:
                        # Control transfer / possible task switch: fall
                        # back out to re-resolve task, frame, and plan.
                        task = thread.task
                        break
        finally:
            interp.instructions_executed += executed

    def _fault(self, thread, task, frame, i: int) -> None:
        """Instruction ``i``'s step raised: re-executes it with the
        generic handler, which raises the generic loop's error."""
        interp = self.interp
        instr = frame.block.instructions[i]
        try:
            interp._dispatch[type(instr)](thread, task, frame, instr)
        except RuntimeError_ as exc:
            raise interp._error(str(exc), instr, task) from exc
        raise RuntimeError(
            f"fast engine: the {instr.opname} step raised where the generic handler does not"
        )

    # -- plan construction -----------------------------------------------------

    def _build_plan(self, block, penalty: float) -> tuple:
        """The plan of ``block``.  Its steps return costs scaled by
        ``penalty``, its function's icache penalty (every frame of a
        function carries the same one)."""
        instrs = block.instructions
        dispatch = self.interp._dispatch
        steps = []
        handlers = []
        for instr in instrs:
            factory = self._factories.get(type(instr))
            step = factory(instr, penalty) if factory is not None else None
            steps.append(step)
            handlers.append(
                None if step is not None else dispatch.get(type(instr), self._no_handler)
            )
        # ends[i]: one past the stretch of register-only steps that
        # starts at i (i itself when instruction i has none).
        ends = [0] * len(instrs)
        end = len(instrs)
        for i in range(len(instrs) - 1, -1, -1):
            if steps[i] is None:
                end = i
            ends[i] = end
        transfers = [isinstance(instr, _TRANSFERS) for instr in instrs]
        branches = [self._branch(instr, penalty) for instr in instrs]
        return (block, steps, ends, handlers, transfers, branches)

    def _branch(self, instr, p):
        """``(target, other, cond_rid, scaled cost)`` for a branch whose
        condition is a register or constant (Br: no condition), or None."""
        if isinstance(instr, I.Br):
            return instr.target, instr.target, None, self.costs.br * p
        if not isinstance(instr, I.CBr):
            return None
        cond = instr.cond
        if isinstance(cond, I.Register):
            return instr.then_block, instr.else_block, cond.rid, self.costs.cbr * p
        if isinstance(cond, I.Constant):
            target = instr.then_block if cond.value else instr.else_block
            return target, target, None, self.costs.cbr * p
        return None

    def _no_handler(self, thread, task, frame, instr):
        raise self.interp._error(f"no handler for {instr.opname}", instr, task)

    # -- register-only steps ---------------------------------------------------
    # Each factory returns ``step(regs) -> scaled cost`` mirroring the
    # corresponding Interpreter._ex_* handler (same mutations, same
    # costs), or None for an operand shape it does not take.  A step
    # reads a register ``r`` or constant ``v`` operand as
    # ``regs[r] if r is not None else v``.  It returns ``cost * p``,
    # the product the generic loop forms: a static cost is multiplied
    # here, once; a cost known only at run time, in the step.

    def _alloca(self, instr, p):
        def step(regs, _r=instr.result.rid, _c=self.costs.alloca * p):
            regs[_r] = ([None], 0)
            return _c

        return step

    def _load(self, instr, p):
        interp = self.interp
        addr = instr.addr
        rid = instr.result.rid
        cost = self.costs.load * p
        if isinstance(addr, I.Register):

            def step(regs, _a=addr.rid, _r=rid, _c=cost):
                lst, i = regs[_a]
                regs[_r] = lst[i]
                return _c

            return step
        if isinstance(addr, I.GlobalRef):

            def step(
                regs, _s=interp.globals_store, _n=addr.name, _g=addr,
                _new=interp._global_box, _r=rid, _c=cost,
            ):
                regs[_r] = (_s.get(_n) or _new(_g))[0]
                return _c

            return step
        return None

    def _store(self, instr, p):
        interp = self.interp
        value = _operand(instr.value)
        addr = instr.addr
        if value is None or not isinstance(addr, (I.Register, I.GlobalRef)):
            return None
        is_reg = isinstance(addr, I.Register)

        def step(
            regs, _vr=value[0], _vv=value[1], _a=addr.rid if is_reg else None,
            _s=interp.globals_store, _n=None if is_reg else addr.name, _g=addr,
            _new=interp._global_box, _b=self.costs.store,
            _ps=self.costs.copy_per_slot, _p=p, _bp=self.costs.store * p,
        ):
            v = regs[_vr] if _vr is not None else _vv
            if _a is not None:
                lst, i = regs[_a]
            else:
                lst = _s.get(_n) or _new(_g)
                i = 0
            if type(v) in _VALUE_AGGREGATES:
                cost = (_b + _ps * value_slots(v)) * _p
                v = v.copy()
            else:
                cost = _bp
            lst[i] = v
            return cost

        return step

    def _field_addr(self, instr, p):
        if not isinstance(instr.base, I.Register):
            return None
        cm = self.costs

        def step(
            regs, _b=instr.base.rid, _r=instr.result.rid, _ix=instr.index,
            _rc=cm.field_addr * p, _cc=(cm.field_addr + cm.class_field_extra) * p,
        ):
            base = regs[_b]
            obj = base[0][base[1]] if isinstance(base, tuple) else base
            if type(obj) is ClassValue:
                cost = _cc
            elif type(obj) is RecordValue:
                cost = _rc
            else:
                raise _Fault
            regs[_r] = (obj.fields, _ix)
            return cost

        return step

    def _elem_addr(self, instr, p):
        interp = self.interp
        cm = self.costs
        indices = [_operand(ix) for ix in instr.indices]
        if not isinstance(instr.base, I.Register) or None in indices:
            return None
        cost = cm.elem_addr
        if any(not isinstance(ix, I.Constant) for ix in instr.indices):
            cost += cm.elem_addr_dynamic_extra
        base, rid = instr.base.rid, instr.result.rid
        re, heap, llc, stall = cm.elem_addr_reindex_extra, interp.heap, cm.llc_bytes, cm.mem_stall

        if len(indices) == 1:
            # A root rank-1 unit-step array carries its bounds, so an
            # in-range index needs no flat_of call.
            def step(
                regs, _b=base, _ir=indices[0][0], _iv=indices[0][1], _r=rid, _c=cost,
                _re=re, _heap=heap, _llc=llc, _st=stall, _p=p, _cp=cost * p,
            ):
                arr = regs[_b]
                c = regs[_ir] if _ir is not None else _iv
                if type(arr) is not ArrayValue:
                    raise _Fault
                lo = arr.lo
                if lo <= c <= arr.hi:
                    regs[_r] = (arr.data, c - lo)
                else:
                    regs[_r] = (arr.root.data, arr.flat_of((c,)))
                if not arr.is_reindex and _heap._live_bytes <= _llc:
                    return _cp
                cost = _c
                if arr.is_reindex:
                    cost += _re
                if _heap._live_bytes > _llc:
                    cost += _st
                return cost * _p

            return step

        consts = tuple(v for _, v in indices) if all(r is None for r, _ in indices) else None

        def step(
            regs, _b=base, _ix=tuple(indices), _k=consts, _r=rid, _c=cost, _re=re,
            _heap=heap, _llc=llc, _st=stall, _p=p,
        ):
            arr = regs[_b]
            if _k is not None:
                coords = _k
            else:
                coords = tuple([regs[r] if r is not None else v for r, v in _ix])
            if type(arr) is not ArrayValue:
                raise _Fault
            regs[_r] = (arr.root.data, arr.flat_of(coords))
            cost = _c
            if arr.is_reindex:
                cost += _re
            if _heap._live_bytes > _llc:
                cost += _st
            return cost * _p

        return step

    def _tuple_elem_addr(self, instr, p):
        index = _operand(instr.index)
        if not isinstance(instr.base, I.Register) or index is None:
            return None
        cm = self.costs
        cost = cm.tuple_elem_addr
        if not isinstance(instr.index, I.Constant):
            cost += cm.tuple_index_dynamic_extra

        def step(
            regs, _b=instr.base.rid, _kr=index[0], _kv=index[1], _r=instr.result.rid,
            _c=cost * p,
        ):
            lst, i = regs[_b]
            tup = lst[i]
            k = regs[_kr] if _kr is not None else _kv
            if type(tup) is not TupleValue or not 0 <= k < len(tup.elems):
                raise _Fault
            regs[_r] = (tup.elems, k)
            return _c

        return step

    def _binop(self, instr, p):
        lhs, rhs = _operand(instr.lhs), _operand(instr.rhs)
        if lhs is None or rhs is None:
            return None
        cm = self.costs
        op = instr.op
        # (cost of a float result, cost of any other result), as
        # Interpreter._ex_binop charges them.
        if op in _CMP_FNS:
            fc = ic = cm.cmp_op
        elif op == "**":
            fc = ic = cm.real_pow
        elif op == "/":
            fc, ic = cm.real_div, cm.int_op
        else:
            fc, ic = cm.real_op, cm.int_op
        fn = _CMP_FNS.get(op) or _ARITH_FNS.get(op) or partial(_binop_scalar, op)

        def step(
            regs, _ra=lhs[0], _va=lhs[1], _rb=rhs[0], _vb=rhs[1], _r=instr.result.rid,
            _fn=fn, _fc=fc * p, _ic=ic * p, _op=op, _cm=cm, _p=p,
        ):
            a = regs[_ra] if _ra is not None else _va
            b = regs[_rb] if _rb is not None else _vb
            if type(a) is TupleValue or type(b) is TupleValue:
                out, cost = _tuple_binop(_op, a, b, _cm)
                regs[_r] = out
                return cost * _p
            out = _fn(a, b)
            regs[_r] = out
            return _fc if type(out) is float else _ic

        return step

    def _unop(self, instr, p):
        operand = _operand(instr.operand)
        if operand is None:
            return None
        cm = self.costs
        vr, vv = operand
        rid = instr.result.rid
        if instr.op == "-":

            def step(
                regs, _vr=vr, _vv=vv, _r=rid, _ic=cm.int_op * p, _sc=cm.tuple_op_per_slot, _p=p,
            ):
                v = regs[_vr] if _vr is not None else _vv
                if type(v) is TupleValue:
                    regs[_r] = TupleValue([-x for x in v.elems])
                    return _sc * len(v.elems) * _p
                regs[_r] = -v
                return _ic

            return step
        if instr.op == "!":

            def step(regs, _vr=vr, _vv=vv, _r=rid, _ic=cm.int_op * p):
                regs[_r] = not (regs[_vr] if _vr is not None else _vv)
                return _ic

            return step
        return None

    def _cast(self, instr, p):
        value = _operand(instr.value)
        if value is None:
            return None
        ty = instr.result.type
        conv = float if isinstance(ty, RealType) else int if isinstance(ty, IntType) else None

        def step(
            regs, _vr=value[0], _vv=value[1], _r=instr.result.rid, _conv=conv,
            _c=self.costs.int_op * p,
        ):
            v = regs[_vr] if _vr is not None else _vv
            regs[_r] = _conv(v) if _conv is not None else v
            return _c

        return step

    def _make_range(self, instr, p):
        ops = [_operand(op) for op in instr.ops[:3]]
        if None in ops:
            return None
        (lr, lv), (hr, hv), (sr, sv) = ops

        def step(
            regs, _lr=lr, _lv=lv, _hr=hr, _hv=hv, _sr=sr, _sv=sv, _r=instr.result.rid,
            _ct=instr.counted, _c=self.costs.make_range * p,
        ):
            lo = regs[_lr] if _lr is not None else _lv
            hi = regs[_hr] if _hr is not None else _hv
            by = regs[_sr] if _sr is not None else _sv
            if _ct:
                hi = lo + (hi - 1) * abs(by) if by != 1 else lo + hi - 1
            regs[_r] = RangeValue(lo, hi, by)
            return _c

        return step

    def _make_tuple(self, instr, p):
        ops = [_operand(op) for op in instr.ops]
        if None in ops:
            return None
        cm = self.costs

        def step(
            regs, _ops=tuple(ops), _r=instr.result.rid, _b=cm.make_tuple_base,
            _ps=cm.make_tuple_per_slot, _p=p,
        ):
            tup = TupleValue([copy_value(regs[r] if r is not None else v) for r, v in _ops])
            regs[_r] = tup
            return (_b + _ps * value_slots(tup)) * _p

        return step

    def _tuple_get(self, instr, p):
        tup, index = _operand(instr.tup), _operand(instr.index)
        if tup is None or index is None:
            return None
        cm = self.costs
        cost = cm.tuple_get
        if not isinstance(instr.index, I.Constant):
            cost += cm.tuple_index_dynamic_extra

        def step(
            regs, _tr=tup[0], _tv=tup[1], _kr=index[0], _kv=index[1], _r=instr.result.rid,
            _c=cost * p,
        ):
            t = regs[_tr] if _tr is not None else _tv
            k = regs[_kr] if _kr is not None else _kv
            if type(t) is not TupleValue or not 0 <= k < len(t.elems):
                raise _Fault
            regs[_r] = t.elems[k]
            return _c

        return step

    def _iter_next(self, instr, p):
        if not isinstance(instr.state, I.Register):
            return None
        cm = self.costs
        costs = {
            "range": cm.iter_next_range,
            "domain": cm.iter_next_domain,
            "array": cm.iter_next_array,
        }
        zx = cm.iter_next_zip_extra

        def step(
            regs, _s=instr.state.rid, _r=instr.result.rid,
            _costs={k: c * p for k, c in costs.items()},
            _zcosts={k: (c + zx) * p for k, c in costs.items()},
        ):
            state = regs[_s]
            if type(state) is not IterState:
                raise _Fault
            pos = state.pos + 1
            state.pos = pos
            regs[_r] = pos <= state.end
            return _zcosts[state.kind] if state.zippered else _costs[state.kind]

        return step

    def _iter_value(self, instr, p):
        if not isinstance(instr.state, I.Register):
            return None
        interp = self.interp
        cm = self.costs

        def step(
            regs, _s=instr.state.rid, _r=instr.result.rid, _base=cm.iter_value * p,
            _dc=cm.iter_value + cm.iter_value_domain_extra,
            _dcp=(cm.iter_value + cm.iter_value_domain_extra) * p,
            _re=cm.elem_addr_reindex_extra, _heap=interp.heap, _llc=cm.llc_bytes,
            _st=cm.mem_stall, _p=p,
        ):
            state = regs[_s]
            if type(state) is not IterState:
                raise _Fault
            kind = state.kind
            if kind == "range":
                regs[_r] = state.payload.nth(state.pos)
                return _base
            if kind == "domain":
                dom = state.payload
                coords = dom.coords_of(state.pos)
                regs[_r] = coords[0] if dom.rank == 1 else TupleValue(list(coords))
                return _dcp
            arr = state.payload
            regs[_r] = (arr.root.data, arr.flat_of(arr.domain.coords_of(state.pos)))
            cost = _dc
            if arr.is_reindex:
                cost += _re
            if _heap._live_bytes > _llc:
                cost += _st
            return cost * _p

        return step
