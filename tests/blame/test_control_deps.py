"""Control-dependence tests (implicit blame edges), by source line."""

import pytest

from repro.blame.control_deps import control_deps
from repro.ir import instructions as I

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import compile_src


def deps_by_line(src, fn="main", transitive=True):
    """Source line → lines of the branches controlling it."""
    m = compile_src(src)
    f = m.functions[fn]
    deps = control_deps(f)
    instrs = list(f.instructions())
    out = {}
    for k, block in enumerate(f.blocks):
        if transitive:
            controllers = [i for n, i in enumerate(instrs) if deps.transitive[k] >> n & 1]
            assert all(isinstance(c, I.CBr) for c in controllers)
        else:
            controllers = deps.immediate[k]
        for instr in block.instructions:
            out.setdefault(instr.loc.line, set()).update(
                c.loc.line for c in controllers
            )
    return out


class TestControlDeps:
    def test_if_body_controlled_by_condition(self):
        src = (
            "proc main() {\n"       # 1
            "var x = 0;\n"           # 2
            "var c = true;\n"        # 3
            "if c {\n"               # 4
            "x = 1;\n"               # 5
            "}\n"
            "}"
        )
        d = deps_by_line(src)
        assert 4 in d[5]
        assert 4 not in d.get(2, set())

    def test_else_branch_also_controlled(self):
        src = (
            "proc main() {\n"
            "var c = false;\n"
            "var x = 0;\n"
            "if c {\n"               # 4
            "x = 1;\n"               # 5
            "} else {\n"
            "x = 2;\n"               # 7
            "}\n"
            "}"
        )
        d = deps_by_line(src)
        assert 4 in d[5]
        assert 4 in d[7]

    def test_nested_loops_transitive_vs_immediate(self):
        src = (
            "proc main() {\n"
            "var s = 0;\n"
            "for i in 1..3 {\n"      # 3 (outer control)
            "for j in 1..3 {\n"      # 4 (inner control)
            "s += i * j;\n"          # 5
            "}\n"
            "}\n"
            "}"
        )
        trans = deps_by_line(src, transitive=True)
        imm = deps_by_line(src, transitive=False)
        # transitive: body controlled by both loop levels
        assert {3, 4} <= trans[5]
        # immediate: only the innermost loop's branch
        assert 4 in imm[5]
        assert 3 not in imm[5]

    def test_straightline_code_uncontrolled(self):
        src = "proc main() {\nvar a = 1;\nvar b = a + 2;\n}"
        d = deps_by_line(src)
        assert d.get(2, set()) == set()
        assert d.get(3, set()) == set()

    def test_while_self_control(self):
        src = (
            "proc main() {\n"
            "var i = 0;\n"
            "while i < 5 {\n"        # 3
            "i += 1;\n"              # 4
            "}\n"
            "}"
        )
        d = deps_by_line(src)
        assert 3 in d[4]
        # the loop test controls its own re-execution
        assert 3 in d[3]


class TestParallelRefSemantics:
    def test_forall_over_array_writes_through_refs(self):
        src = """
var A: [0..23] real;
proc main() {
  forall a in A {
    a = 2.5;
  }
  writeln(+ reduce A);
}
"""
        import sys, os
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
        from conftest import output_of

        assert output_of(src) == ["60.0"]

    def test_zippered_forall_mixed_ref_value(self):
        src = """
var A: [0..9] real;
proc main() {
  forall (a, i) in zip(A, 0..9) {
    a = i * 3.0;
  }
  writeln(A[9]);
}
"""
        from conftest import output_of

        assert output_of(src) == ["27.0"]
