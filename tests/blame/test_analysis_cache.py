"""Blame analysis is a plain function of the module: separate analyses
of one module agree, analyses of distinct modules stay keyed to their
own instructions, and repeated profiles of one module are identical."""

from repro.blame.static_info import ModuleBlameInfo
from repro.compiler.lower import compile_source
from repro.pipeline import analyze_stage
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

SRC = """
var total: real;
proc scale(ref x: real, f: real) {
  x = x * f;
}
proc main() {
  var acc = 0.0;
  for i in 1..40 {
    acc = acc + i * 0.5;
  }
  scale(acc, 2.0);
  total = acc;
  writeln(total);
}
"""


def fresh_module(tag="cache_test.chpl"):
    return compile_source(SRC, tag)


class TestModuleCache:
    def test_distinct_modules_do_not_share(self):
        m1 = fresh_module("a.chpl")
        m2 = fresh_module("b.chpl")
        info1 = analyze_stage(m1)
        info2 = analyze_stage(m2)
        assert info1 is not info2
        # Same source, but iids differ: the blame tables must be keyed
        # to each module's own instructions.
        assert info1.functions["main"].blame_sets.by_iid.keys() != (
            info2.functions["main"].blame_sets.by_iid.keys()
        )


class TestCachedResultsMatchFresh:
    def test_blame_tables_identical(self):
        module = fresh_module()
        staged = analyze_stage(module)
        fresh = ModuleBlameInfo(module)
        assert staged is not fresh
        assert list(staged.functions) == list(fresh.functions)
        for name, fresh_info in fresh.functions.items():
            staged_info = staged.functions[name]
            assert staged_info.blame_sets.by_var == fresh_info.blame_sets.by_var
            assert staged_info.blame_sets.by_iid == fresh_info.blame_sets.by_iid
            assert staged_info.exit_vars == fresh_info.exit_vars

    def test_repeated_profiles_identical(self):
        module = fresh_module("cache_prof.chpl")
        run = RunConfig(num_threads=4, threshold=997)
        samples1, samples2 = [], []
        r1 = Profiler(module, run).profile(tap=samples1.extend)
        r2 = Profiler(module, run).profile(tap=samples2.extend)
        assert r2.static_info is not r1.static_info  # analyzed afresh
        assert r1.run_result.output == r2.run_result.output
        s1 = [(s.thread_id, s.leaf_iid, tuple(s.stack)) for s in samples1]
        s2 = [(s.thread_id, s.leaf_iid, tuple(s.stack)) for s in samples2]
        assert s1 == s2
        rows1 = [(r.context, r.name, r.samples) for r in r1.report.rows]
        rows2 = [(r.context, r.name, r.samples) for r in r2.report.rows]
        assert rows1 == rows2
