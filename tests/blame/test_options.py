"""Ablation-switch tests: each BlameOptions flag produces the expected
strictly-weaker analysis."""

import pytest

from repro.blame.options import ABLATIONS, FULL, BlameOptions
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import compile_src

ALIAS_SRC = """
var A: [0..29] real;
var View = A[0..29];
proc main() {
  for t in 1..6 {
    forall i in 0..29 { View[i] = View[i] + sqrt(i * 1.0); }
  }
}
"""

HIER_SRC = """
record Z { var v: real; }
var zs: [0..19] Z;
proc main() {
  for t in 1..8 {
    forall i in 0..19 { zs[i].v = zs[i].v + i; }
  }
}
"""

CONTROL_SRC = """
proc main() {
  var flag = true;
  var x = 0.0;
  for i in 1..600 {
    if flag {
      x += i * 1.0;
    }
  }
  writeln(x);
}
"""


def prof(src, options=None, threshold=307):
    return Profiler(
        src, RunConfig(num_threads=4, threshold=threshold, blame_options=options)
    ).profile()


class TestOptions:
    def test_default_is_full(self):
        assert BlameOptions() == FULL
        assert FULL.implicit_control and FULL.alias_tracking

    def test_without_builder(self):
        o = FULL.without(alias_tracking=False, stack_gluing=False)
        assert not o.alias_tracking and not o.stack_gluing
        assert o.implicit_control  # untouched flags stay on

    def test_ablations_registry_complete(self):
        assert "full" in ABLATIONS
        assert ABLATIONS["full"] == FULL
        for tag, opts in ABLATIONS.items():
            if tag == "full":
                continue
            assert opts != FULL

    def test_no_alias_tracking_severs_view_to_base(self):
        full = prof(ALIAS_SRC)
        ablated = prof(ALIAS_SRC, FULL.without(alias_tracking=False))
        assert full.report.blame_of("A") > 0.3
        assert ablated.report.blame_of("A") < full.report.blame_of("A") * 0.5
        # the view itself keeps its direct blame either way
        assert ablated.report.blame_of("View") > 0.2

    def test_no_hierarchy_drops_arrow_rows(self):
        full = prof(HIER_SRC)
        ablated = prof(HIER_SRC, FULL.without(hierarchical_paths=False))
        assert any(r.name.startswith("->") for r in full.report.rows)
        assert not any(r.name.startswith("->") for r in ablated.report.rows)
        # whole-variable rows survive
        assert ablated.report.blame_of("zs") > 0.3

    def test_no_implicit_control_shrinks_blame_sets(self):
        from repro.blame.static_info import ModuleBlameInfo

        m = compile_src(CONTROL_SRC)
        full_map = ModuleBlameInfo(m).variable_lines_map("main")
        ablated_map = ModuleBlameInfo(
            m, options=FULL.without(implicit_control=False)
        ).variable_lines_map("main")
        # the controlling `if flag` line (6) leaves x's blame lines;
        # line 5 (the loop: i feeds x explicitly) stays either way.
        assert full_map["x"] >= ablated_map["x"]
        assert 6 in full_map["x"]  # line of `if flag {`
        assert 6 not in ablated_map["x"]
        assert 5 in ablated_map["x"]  # explicit data flow via i

    def test_no_gluing_reduces_or_preserves_user_samples(self):
        src = """
var A: [0..39] real;
proc main() {
  forall i in 0..39 { A[i] = i * 2.0 + sqrt(i + 1.0); }
}
"""
        full = prof(src)
        ablated = prof(src, FULL.without(stack_gluing=False))
        assert ablated.report.stats.user_samples <= full.report.stats.user_samples
        # worker samples still resolve (post stacks have user frames),
        # but their call paths stop at the outlined frame
        assert all(not i.was_glued for i in ablated.postmortem.instances)
