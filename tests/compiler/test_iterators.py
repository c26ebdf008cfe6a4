"""User-defined serial iterator tests (`iter` procs with `yield`,
expanded inline — the paper's future-work feature)."""

import pytest

from repro.chapel.errors import NameError_, TypeError_
from repro.compiler.lower import compile_source

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import output_of, profile_src, run_src


class TestIteratorSemantics:
    def test_simple_counting_iterator(self):
        src = """
iter countdown(n: int): int {
  var k = n;
  while k > 0 {
    yield k;
    k -= 1;
  }
}
proc main() {
  for v in countdown(4) { write(v); }
  writeln("");
}
"""
        assert output_of(src) == ["4321"]

    def test_filtered_iterator(self):
        src = """
iter odds(hi: int): int {
  for i in 1..hi {
    if i % 2 == 1 then yield i;
  }
}
proc main() { writeln(oddsum(9)); }
proc oddsum(hi: int): int {
  var s = 0;
  for o in odds(hi) { s += o; }
  return s;
}
"""
        assert output_of(src) == ["25"]

    def test_multiple_yields_in_body(self):
        src = """
iter edges(n: int): int {
  yield 0;
  for i in 1..n-1 { yield i * 10; }
  yield 999;
}
proc main() {
  var parts = 0;
  for e in edges(3) { parts += e; }
  writeln(parts);
}
"""
        assert output_of(src) == ["1029"]  # 0 + 10 + 20 + 999

    def test_ref_param_iterator_writes_through(self):
        src = """
iter drain(ref acc: real, n: int): int {
  for i in 1..n {
    acc += i * 1.0;
    yield i;
  }
}
proc main() {
  var total = 0.0;
  var count = 0;
  for i in drain(total, 5) { count += 1; }
  writeln(total, count);
}
"""
        assert output_of(src) == ["15.0 5"]

    def test_break_exits_whole_iteration(self):
        src = """
iter nats(): int {
  var i = 0;
  while true {
    yield i;
    i += 1;
  }
}
proc main() {
  var s = 0;
  for n in nats() {
    if n > 5 then break;
    s += n;
  }
  writeln(s);
}
"""
        assert output_of(src) == ["15"]

    def test_continue_skips_to_next_yield(self):
        src = """
iter r(): int {
  for i in 1..6 { yield i; }
}
proc main() {
  var s = 0;
  for v in r() {
    if v % 2 == 0 then continue;
    s += v;
  }
  writeln(s);
}
"""
        assert output_of(src) == ["9"]

    def test_nested_same_iterator(self):
        src = """
iter r(n: int): int {
  for i in 1..n { yield i; }
}
proc main() {
  var s = 0;
  for a in r(3) {
    for b in r(3) { s += a * b; }
  }
  writeln(s);
}
"""
        assert output_of(src) == ["36"]

    def test_yield_type_coercion(self):
        src = """
iter halves(n: int): real {
  for i in 1..n { yield i; }
}
proc main() {
  var s = 0.0;
  for h in halves(3) { s += h / 2.0; }
  writeln(s);
}
"""
        assert output_of(src) == ["3.0"]


class TestIteratorScopes:
    """The consumer body sees the loop's names, not the iterator's."""

    def test_iterator_formal_does_not_hide_a_global_from_the_body(self):
        src = """
var x = 1.5;
iter pairs(x: int): int { yield x; yield x + 1; }
proc main() { for v in pairs(2) { var y = v * 1.5; x += y; } writeln(x); }
"""
        assert output_of(src) == ["9.0"]

    def test_iterator_local_is_not_visible_in_the_body(self):
        src = """iter two(): int { var t = 5; yield t; }
proc main() { var s = 0; for i in two() { s += t; } writeln(s); }
"""
        with pytest.raises(NameError_, match="undefined identifier 't'") as info:
            compile_source(src)
        assert (info.value.loc.line, info.value.loc.column) == (2, 48)


class TestIteratorBlame:
    def test_iterator_body_attributes_in_consumer_context(self):
        """Inline expansion means iterator statements are profiled in
        the consuming function — the Chapel reality the paper's tool
        had to cope with."""
        src = """
var OUT: [0..199] real;
iter work(n: int): int {
  for i in 0..n-1 {
    yield i;
  }
}
proc main() {
  for i in work(200) {
    OUT[i] = sqrt(i * 1.0) + i * 0.5;
  }
}
"""
        res = profile_src(src, threshold=307)
        assert res.report.blame_of("OUT") > 0.4
        row = res.report.row_for("i")
        assert row is not None and row.context == "main"


class TestIteratorErrors:
    def test_yield_outside_iterator(self):
        with pytest.raises(TypeError_, match="yield outside"):
            compile_source("proc main() { yield 1; }")

    def test_iterator_needs_yield(self):
        with pytest.raises(TypeError_, match="never yields"):
            compile_source("iter empty(): int { var x = 1; }\nproc main() { }")

    def test_iterator_needs_yield_type(self):
        with pytest.raises(TypeError_, match="yield type"):
            compile_source("iter f() { yield 1; }\nproc main() { }")

    def test_return_forbidden_in_iterator(self):
        with pytest.raises(TypeError_, match="return"):
            compile_source(
                "iter f(): int { yield 1; return; }\nproc main() { }"
            )

    def test_recursive_iterator_rejected(self):
        src = """
iter f(n: int): int {
  for x in f(n - 1) { yield x; }
  yield n;
}
proc main() { for v in f(3) { } }
"""
        with pytest.raises(TypeError_, match="recursive"):
            compile_source(src)

    def test_iterator_not_callable_as_expression(self):
        src = "iter f(): int { yield 1; }\nproc main() { var x = f(); }"
        with pytest.raises(TypeError_, match="for loop"):
            compile_source(src)

    def test_forall_over_iterator_rejected(self):
        src = "iter f(): int { yield 1; }\nproc main() { forall x in f() { } }"
        with pytest.raises(TypeError_, match="plain"):
            compile_source(src)

    def test_zip_with_iterator_rejected(self):
        src = (
            "iter f(): int { yield 1; }\n"
            "proc main() { for (a, b) in zip(f(), 0..3) { } }"
        )
        with pytest.raises(TypeError_):
            compile_source(src)
