"""End-to-end integration tests: source → compile → sampled run →
post-mortem → blame report, on scenarios that cross every module."""

import pytest

from repro.baselines.hpctk import HpctkAttributor
from repro.baselines.pprof import build_pprof_profile
from repro.blame.aggregate import merge_reports
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler
from repro.views.code_centric import render_code_centric
from repro.views.data_centric import render_data_centric
from repro.views.hybrid import render_hybrid

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from conftest import compile_src, profile_src, sample_src


class TestStencilScenario:
    """A 2-D Jacobi-style stencil: domains, slices, forall, reductions."""

    SRC = """
config const n: int = 14;
config const iters: int = 4;
var D: domain(2) = {0..n+1, 0..n+1};
var Inner: domain(2) = {1..n, 1..n};
var Grid: [D] real;
var Next: [D] real;

proc sweep() {
  forall (i, j) in Inner {
    Next[i, j] = (Grid[i-1, j] + Grid[i+1, j] + Grid[i, j-1] + Grid[i, j+1]) * 0.25;
  }
  forall (i, j) in Inner {
    Grid[i, j] = Next[i, j];
  }
}

proc main() {
  forall (i, j) in D { Grid[i, j] = if i == 0 then 1.0 else 0.0; }
  for it in 1..iters { sweep(); }
  writeln(+ reduce Grid);
}
"""

    @pytest.fixture(scope="class")
    def res(self):
        return profile_src(self.SRC, threshold=499, num_threads=8)

    def test_runs_and_converges(self, res):
        total = float(res.run_result.output[0])
        assert total > 0

    def test_blame_names_the_grids(self, res):
        assert res.report.blame_of("Next") > 0.2
        assert res.report.blame_of("Grid") > 0.2

    def test_all_views_render(self, res):
        assert "Next" in render_data_centric(res.report, top=10)
        assert "sweep" in render_code_centric(res.module, res.postmortem)
        assert "main" in render_hybrid(res.report)


class TestDeepCallChain:
    SRC = """
var OUT: [0..19] real;
proc leaf(x: real): real {
  var acc = 0.0;
  for k in 1..24 { acc += sqrt(x + k); }
  return acc;
}
proc mid(x: real): real { return leaf(x) * 2.0; }
proc top(x: real): real { return mid(x) + 1.0; }
proc main() {
  forall i in 0..19 { OUT[i] = top(i * 1.0); }
}
"""

    def test_return_chain_bubbles_to_out(self):
        res = profile_src(self.SRC, threshold=211)
        assert res.report.blame_of("OUT") > 0.3

    def test_leaf_local_reported_in_leaf_context(self):
        res = profile_src(self.SRC, threshold=211)
        row = res.report.row_for("acc")
        assert row is not None and row.context == "leaf"


class TestFastVsPlainProfile:
    SRC = """
var A: [0..39] real;
proc main() {
  forall i in 0..39 {
    var t = i * 2.0;
    A[i] = t + sqrt(t + 1.0);
  }
}
"""

    def test_fast_degrades_variable_visibility(self):
        plain = profile_src(self.SRC, threshold=311)
        fast = Profiler(self.SRC, RunConfig(threshold=311, fast=True)).profile()
        plain_names = {r.name for r in plain.report.rows}
        fast_names = {r.name for r in fast.report.rows}
        # --fast optimizes the local t away (copy-prop + dce), so blame
        # can no longer name it — the paper's §V footnote phenomenon.
        assert "t" in plain_names
        assert "t" not in fast_names

    def test_fast_still_attributes_globals(self):
        fast = Profiler(self.SRC, RunConfig(threshold=311, fast=True)).profile()
        assert fast.report.blame_of("A") > 0.3


class TestBaselinesAgreeOnSamples:
    SRC = """
var BIG: [0..1999] real;
proc hot() {
  forall i in 0..1999 { BIG[i] = BIG[i] * 0.5 + 1.0; }
}
proc main() { for t in 1..3 { hot(); } }
"""

    @pytest.fixture(scope="class")
    def run(self):
        return sample_src(self.SRC, threshold=997, num_threads=8)

    def test_three_tools_one_sample_stream(self, run):
        res, samples = run
        # blame
        assert res.report.blame_of("BIG") > 0.5
        # pprof: raw frames
        pprof_rows = build_pprof_profile(samples)
        assert sum(r.flat for r in pprof_rows) == res.monitor.n_samples
        # hpctk: the big array is plainly indexed → partially attributed
        att = HpctkAttributor(res.module, res.interpreter)
        out = att.attribute(samples)
        assert out.total == len([s for s in samples if not s.is_idle])
        assert out.fraction_of("BIG") > 0.05

    def test_blame_beats_hpctk_attribution(self, run):
        """The paper's core claim: blame attributes what allocation-
        based data-centric tools leave as 'unknown data'."""
        res, samples = run
        att = HpctkAttributor(res.module, res.interpreter)
        out = att.attribute(samples)
        assert res.report.blame_of("BIG") > out.fraction_of("BIG")


class TestMultiLocaleAggregation:
    def test_merge_two_simulated_locales(self):
        src = """
var V: [0..29] real;
proc main() {
  forall i in 0..29 { V[i] = sqrt(i * 1.0); }
}
"""
        r1 = profile_src(src, threshold=311).report
        r2 = profile_src(src, threshold=311).report
        r2.locale_id = 1
        merged = merge_reports([r1, r2], program="two-locales")
        assert merged.stats.user_samples == r1.stats.user_samples + r2.stats.user_samples
        assert merged.blame_of("V") == pytest.approx(r1.blame_of("V"), rel=0.2)


class TestErrorPropagation:
    def test_profiling_a_crashing_program_raises_cleanly(self):
        from repro.runtime.interpreter import ExecutionError

        src = """
var A: [0..3] real;
proc main() { A[99] = 1.0; }
"""
        with pytest.raises(ExecutionError, match="out of bounds"):
            profile_src(src)

    def test_compile_errors_surface(self):
        from repro.chapel.errors import NameError_

        with pytest.raises(NameError_):
            profile_src("proc main() { ghost(); }")
