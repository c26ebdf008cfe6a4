"""IR core tests: instructions, builder, module containers, printer,
debug info."""

import pytest

from repro.chapel.tokens import SourceLocation
from repro.chapel.types import BOOL, INT, REAL, VOID
from repro.ir import (
    BasicBlock,
    Constant,
    Function,
    FunctionParam,
    GlobalVar,
    IRBuilder,
    LineTable,
    Module,
    Register,
    collect_variables,
    print_function,
    print_module,
)
from repro.ir import instructions as I

LOC = SourceLocation("t.chpl", 10, 1)
LOC2 = SourceLocation("t.chpl", 11, 1)


def make_fn(name="f"):
    return Function(name, [], VOID, LOC)


class TestValues:
    def test_registers_are_unique(self):
        a, b = Register(INT), Register(INT)
        assert a.rid != b.rid

    def test_constant_repr(self):
        assert str(Constant(INT, 7)) == "7"

    @pytest.mark.parametrize(
        "cls, fields, text",
        [
            (Constant, (INT, 7), "Constant(type=IntType(width=64), value=7)"),
            (I.GlobalRef, (REAL, "g"), "GlobalRef(type=RealType(width=64), name='g')"),
        ],
    )
    def test_operand_records(self, cls, fields, text):
        """Constants and global references are immutable values: equal
        and hashed by their fields, and copied or pickled whole."""
        import copy
        import dataclasses
        import pickle

        value = cls(*fields)
        assert repr(value) == text
        assert value == cls(*fields) and hash(value) == hash(cls(*fields))
        assert value != fields and value != cls(BOOL, fields[1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.type = BOOL
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is cls and clone == value and repr(clone) == text

    def test_register_producer_backlink(self):
        fn = make_fn()
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        r = b.binop(LOC, "+", Constant(INT, 1), Constant(INT, 2), INT)
        assert isinstance(r.producer, I.BinOp)


class TestBuilder:
    def test_emits_in_order_with_unique_iids(self):
        fn = make_fn()
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        addr = b.alloca(LOC, INT, "x")
        b.store(LOC, Constant(INT, 1), addr)
        v = b.load(LOC2, addr, INT)
        b.ret(LOC2)
        iids = [i.iid for i in fn.entry.instructions]
        assert iids == sorted(iids)
        assert len(set(iids)) == len(iids)

    def test_emit_after_terminator_opens_dead_block(self):
        fn = make_fn()
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.ret(LOC)
        b.store(LOC, Constant(INT, 1), b.alloca(LOC, INT, "x"))
        # the stray instructions landed in a fresh block, not after ret
        assert isinstance(fn.entry.instructions[-1], I.Ret)
        assert len(fn.blocks) > 1

    def test_cbr_successors(self):
        fn = make_fn()
        b = IRBuilder(fn)
        entry = b.new_block("entry")
        t1, t2 = b.new_block("t"), b.new_block("e")
        b.set_block(entry)
        b.cbr(LOC, Constant(BOOL, True), t1, t2)
        assert entry.successors() == [t1, t2]

    def test_cbr_same_target_single_successor(self):
        fn = make_fn()
        b = IRBuilder(fn)
        entry = b.new_block("entry")
        t = b.new_block("t")
        b.set_block(entry)
        b.cbr(LOC, Constant(BOOL, True), t, t)
        assert entry.successors() == [t]


class TestModule:
    def test_instruction_index(self):
        m = Module("m")
        fn = make_fn()
        m.add_function(fn)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        r = b.binop(LOC, "+", Constant(INT, 1), Constant(INT, 2), INT)
        b.ret(LOC)
        idx = m.instruction_index()
        got_fn, got_instr = idx[r.producer.iid]
        assert got_fn is fn and got_instr is r.producer

    def test_globals(self):
        m = Module()
        m.add_global(GlobalVar("Pos", REAL, LOC))
        assert "Pos" in m.globals

    def test_find_instruction(self):
        fn = make_fn()
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.ret(LOC)
        iid = fn.entry.instructions[0].iid
        assert fn.find_instruction(iid) is fn.entry.instructions[0]
        assert fn.find_instruction(-5) is None


class TestReplaceOperand:
    def test_binop_replace(self):
        fn = make_fn()
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        r = b.binop(LOC, "+", Constant(INT, 1), Constant(INT, 2), INT)
        r2 = b.binop(LOC, "*", r, Constant(INT, 3), INT)
        new = Constant(INT, 3)
        r2.producer.replace_operand(r, new)
        assert r2.producer.lhs is new


class TestPrinter:
    def test_print_function_contains_instructions(self):
        fn = make_fn("myfunc")
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        addr = b.alloca(LOC, INT, "counter")
        b.store(LOC, Constant(INT, 0), addr)
        b.ret(LOC)
        text = print_function(fn)
        assert "myfunc" in text
        assert "alloca" in text and "counter" in text
        assert "line 10" in text

    def test_print_module(self):
        m = Module("prog")
        m.add_global(GlobalVar("G", INT, LOC, is_config=True))
        fn = make_fn()
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.ret(LOC)
        m.add_function(fn)
        text = print_module(m)
        assert "global @G: int config" in text


class TestDebugInfo:
    def test_line_table_resolution(self):
        m = Module()
        fn = make_fn()
        m.add_function(fn)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        r = b.binop(LOC2, "+", Constant(INT, 1), Constant(INT, 1), INT)
        b.ret(LOC2)
        lt = LineTable(m)
        assert lt.resolve(r.producer.iid).line == 11
        assert lt.function_of(r.producer.iid) == "f"
        assert lt.resolve(999999) is None

    def test_collect_variables(self):
        m = Module()
        m.add_global(GlobalVar("G", INT, LOC))
        fn = make_fn()
        m.add_function(fn)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.alloca(LOC, REAL, "local_x")
        b.alloca(LOC, REAL, "_tmp", is_temp=True)
        b.ret(LOC)
        vars_ = collect_variables(m)
        names = {v.name: v for v in vars_}
        assert names["G"].is_global and names["G"].context == "main"
        assert names["local_x"].context == "f"
        assert names["_tmp"].is_temp
