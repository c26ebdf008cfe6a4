"""Small-unit coverage: heap accounting, instruction printing, report
assembly helpers."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from conftest import compile_src

from repro.chapel.tokens import SourceLocation
from repro.runtime.memory import BYTES_PER_SLOT, Heap

LOC = SourceLocation("x.chpl", 3, 1)


class TestHeap:
    def test_allocation_accounting(self):
        h = Heap()
        a = h.allocate("array", 100, LOC, "main")
        b = h.allocate("object", 10, LOC, "f")
        assert a.heap_id != b.heap_id
        assert h.total_bytes == 110 * BYTES_PER_SLOT
        assert h.peak_bytes == h.total_bytes
        assert h.allocation_count == 2

    def test_free_reduces_live_not_total(self):
        h = Heap()
        a = h.allocate("array", 1000, LOC, "main")
        h.free(a.heap_id)
        h.allocate("array", 10, LOC, "main")
        assert h.total_bytes == 1010 * BYTES_PER_SLOT
        assert h.peak_bytes == 1000 * BYTES_PER_SLOT
        assert h._live_bytes == 10 * BYTES_PER_SLOT

    def test_free_unknown_id_noop(self):
        h = Heap()
        h.free(12345)  # must not raise

    def test_large_allocations_filter(self):
        h = Heap()
        h.allocate("array", 10, LOC, "main")  # 80 B
        big = h.allocate("array", 1000, LOC, "main")  # 8000 B
        larges = h.large_allocations(4096)
        assert [a.heap_id for a in larges] == [big.heap_id]


class TestInstructionPrinting:
    def test_runtime_instruction_reprs(self):
        src = """
var D: domain(1) = {0..3};
var A: [D] real;
proc main() {
  var S = A[D];
  var E = D.expand(1);
  forall i in D { A[i] = 1.0; }
}
"""
        m = compile_src(src)
        from repro.ir.printer import print_module

        text = print_module(m)
        assert "makedomain" in text
        assert "makearray" in text
        assert "arrayslice" in text
        assert "domainop.expand" in text
        assert "spawnjoin[forall]" in text
        assert "; outlined from main" in text

    def test_record_and_global_printing(self):
        m = compile_src(
            "record R { var a: int; }\nvar g: R = new R(1);\nproc main() { }"
        )
        from repro.ir.printer import print_module

        text = print_module(m)
        assert "record R { a: int }" in text
        assert "global @g: R" in text


class TestReportHelpers:
    def test_build_rows_min_blame_and_temps(self):
        from repro.blame.attribution import AttributionResult, VariableBlame
        from repro.blame.report import build_rows

        rows = {
            ("main", "hot"): VariableBlame("hot", "main", None, False, samples=90),
            ("main", "cold"): VariableBlame("cold", "main", None, False, samples=2),
            ("main", "_tmp"): VariableBlame("_tmp", "main", None, True, samples=50),
        }
        att = AttributionResult(rows=rows, total_samples=100)
        visible = build_rows(att, min_blame=0.05)
        names = [r.name for r in visible]
        assert names == ["hot"]
        with_temps = build_rows(att, min_blame=0.0, include_temps=True)
        assert {r.name for r in with_temps} == {"hot", "cold", "_tmp"}

    def test_blame_of_with_context_filter(self):
        from repro.blame.report import BlameReport, BlameRow, RunStats

        rows = [
            BlameRow("x", "int", 0.5, "f", 5, False),
            BlameRow("x", "int", 0.2, "g", 2, False),
        ]
        rep = BlameReport("p", rows, RunStats(user_samples=10))
        assert rep.blame_of("x", context="g") == pytest.approx(0.2)
        assert rep.blame_of("x") == pytest.approx(0.5)  # first match
        assert rep.blame_of("nope") == 0.0
