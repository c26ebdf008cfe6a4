"""IR verifier tests: every structural invariant has a violation test."""

import pytest

from repro.chapel.tokens import SourceLocation
from repro.chapel.types import BOOL, INT, VOID
from repro.ir import (
    BasicBlock,
    Constant,
    Function,
    IRBuilder,
    Module,
    Register,
    VerificationError,
    verify_function,
    verify_module,
)
from repro.ir import instructions as I

LOC = SourceLocation("t.chpl", 1, 1)


def valid_fn(name="ok"):
    fn = Function(name, [], VOID, LOC)
    b = IRBuilder(fn)
    b.set_block(b.new_block("entry"))
    b.ret(LOC)
    return fn


class TestVerifyFunction:
    def test_valid_passes(self):
        verify_function(valid_fn())

    def test_no_blocks(self):
        fn = Function("empty", [], VOID, LOC)
        with pytest.raises(VerificationError, match="no blocks"):
            verify_function(fn)

    def test_missing_terminator(self):
        fn = Function("f", [], VOID, LOC)
        b = IRBuilder(fn)
        blk = b.new_block("entry")
        b.set_block(blk)
        b.alloca(LOC, INT, "x")
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(fn)

    def test_empty_block(self):
        fn = valid_fn()
        fn.add_block(BasicBlock("empty"))
        with pytest.raises(VerificationError, match="empty block"):
            verify_function(fn)

    def test_mid_block_terminator(self):
        fn = Function("f", [], VOID, LOC)
        b = IRBuilder(fn)
        blk = b.new_block("entry")
        b.set_block(blk)
        ret1 = I.Ret(LOC)
        ret2 = I.Ret(LOC)
        blk.append(ret1)
        blk.append(ret2)
        with pytest.raises(VerificationError, match="mid-block"):
            verify_function(fn)

    def test_branch_to_foreign_block(self):
        fn = Function("f", [], VOID, LOC)
        other = valid_fn("other")
        b = IRBuilder(fn)
        blk = b.new_block("entry")
        b.set_block(blk)
        b.br(LOC, other.entry)
        with pytest.raises(VerificationError, match="foreign"):
            verify_function(fn)

    def test_use_of_undefined_register(self):
        fn = Function("f", [], VOID, LOC)
        b = IRBuilder(fn)
        blk = b.new_block("entry")
        b.set_block(blk)
        ghost = Register(INT)
        blk.append(I.Store(LOC, ghost, ghost))
        blk.append(I.Ret(LOC))
        with pytest.raises(VerificationError, match="undefined register"):
            verify_function(fn)

    def test_nonvoid_ret_without_value(self):
        fn = Function("f", [], INT, LOC)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.ret(LOC)  # missing value
        with pytest.raises(VerificationError, match="without value"):
            verify_function(fn)

    def test_params_count_as_defined(self):
        from repro.ir import FunctionParam

        reg = Register(INT, hint="arg")
        fn = Function("f", [FunctionParam("x", INT, "in", reg)], INT, LOC)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.ret(LOC, reg)
        verify_function(fn)


class TestVerifyModule:
    def test_call_to_unknown_function(self):
        m = Module()
        fn = Function("f", [], VOID, LOC)
        m.add_function(fn)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.call(LOC, "ghost_fn", [], VOID)
        b.ret(LOC)
        with pytest.raises(VerificationError, match="unknown function"):
            verify_module(m)

    def test_builtin_calls_allowed(self):
        m = Module()
        fn = Function("f", [], VOID, LOC)
        m.add_function(fn)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.call(LOC, "writeln", [Constant(INT, 1)], VOID, is_builtin=True)
        b.ret(LOC)
        verify_module(m)

    def test_spawn_of_unknown_outlined(self):
        m = Module()
        fn = Function("f", [], VOID, LOC)
        m.add_function(fn)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.spawn_join(LOC, "missing_outlined", "forall", [Constant(INT, 0)], [])
        b.ret(LOC)
        with pytest.raises(VerificationError, match="unknown outlined"):
            verify_module(m)


class TestCompileVerifiesOnce:
    """``lower_program`` verifies ``module.functions``; lowering itself
    does not verify, so every lowered function must end up there."""

    @pytest.mark.parametrize("program", ["lulesh", "minimd", "clomp", "spmv"])
    def test_each_function_verified_once(self, monkeypatch, program):
        import importlib

        from repro.compiler.lower import compile_source
        from repro.ir import verifier

        calls = []
        verify = verifier.verify_function

        def counting(f, module=None):
            calls.append(f)
            verify(f, module)

        monkeypatch.setattr(verifier, "verify_function", counting)
        gen = importlib.import_module(f"repro.bench.programs.{program}")
        module = compile_source(gen.build_source(), f"{program}.chpl")
        assert calls == list(module.functions.values())

    @pytest.mark.parametrize(
        "src",
        [
            "proc __module_init() { }\nproc main() { }",
            "var A: [0..3] int;\nproc forall_fn_chpl1() { }\n"
            "proc main() { forall i in 0..3 { A[i] = i; } }",
            "var A: [0..3] int;\nforall i in 0..3 { A[i] = i; }\n"
            "proc forall_fn_chpl1() { }",
        ],
        ids=["module-init", "outlined-after", "outlined-before"],
    )
    def test_proc_cannot_shadow_a_generated_function(self, src):
        from repro.chapel.errors import NameError_
        from repro.compiler.lower import compile_source

        with pytest.raises(NameError_, match="compiler-generated"):
            compile_source(src, "shadow.chpl")


class TestAnalysisInvariants:
    """Debug-info and alloca-binding invariants used by the advisor."""

    def _module_with(self, fn):
        m = Module()
        m.add_function(fn)
        return m

    def test_verify_for_analysis_accepts_lowered_code(self):
        from repro.compiler.lower import compile_source
        from repro.ir.verifier import verify_for_analysis

        m = compile_source(
            "proc main() { var s = 0; for i in 0..3 { s = s + i; } writeln(s); }",
            "t.chpl",
        )
        verify_for_analysis(m)

    def test_missing_location_rejected(self):
        from repro.ir.verifier import verify_debug_info

        fn = Function("f", [], VOID, LOC)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.ret(LOC)
        fn.blocks[0].instructions[0].loc = None
        with pytest.raises(VerificationError, match="no debug location"):
            verify_debug_info(fn)

    def test_degenerate_location_rejected(self):
        from repro.ir.verifier import verify_debug_info

        fn = Function("f", [], VOID, LOC)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.ret(SourceLocation("", 0, 0))
        with pytest.raises(VerificationError, match="degenerate"):
            verify_debug_info(fn)

    def test_anonymous_alloca_rejected(self):
        from repro.ir.verifier import verify_debug_info

        fn = Function("f", [], VOID, LOC)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.alloca(LOC, INT, "")
        b.ret(LOC)
        with pytest.raises(VerificationError, match="binds no variable"):
            verify_debug_info(fn)

    def test_unroll_clones_share_binding(self):
        from repro.ir.verifier import verify_alloca_bindings

        fn = Function("f", [], VOID, LOC)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        # param-loop unrolling: same declaration cloned, same type.
        b.alloca(LOC, INT, "dx")
        b.alloca(LOC, INT, "dx")
        b.ret(LOC)
        verify_alloca_bindings(fn)

    def test_conflicting_types_at_one_location_rejected(self):
        from repro.ir.verifier import verify_alloca_bindings

        fn = Function("f", [], VOID, LOC)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.alloca(LOC, INT, "dx")
        b.alloca(LOC, BOOL, "dx")
        b.ret(LOC)
        with pytest.raises(VerificationError, match="conflicting types"):
            verify_alloca_bindings(fn)

    def test_sibling_scopes_may_reuse_a_name(self):
        from repro.ir.verifier import verify_alloca_bindings

        fn = Function("f", [], VOID, LOC)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.alloca(LOC, INT, "k")
        b.alloca(SourceLocation("t.chpl", 9, 1), BOOL, "k")
        b.ret(LOC)
        verify_alloca_bindings(fn)

    def test_duplicate_formal_home_rejected(self):
        from repro.ir.verifier import verify_alloca_bindings

        fn = Function("f", [], VOID, LOC)
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.alloca(LOC, INT, "x", formal_home="x")
        b.alloca(SourceLocation("t.chpl", 2, 1), INT, "x", formal_home="x")
        b.ret(LOC)
        with pytest.raises(VerificationError, match="two home allocas"):
            verify_alloca_bindings(fn)
