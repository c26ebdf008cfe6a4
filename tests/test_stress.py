"""Stress / scale tests: deeper programs, larger structures, many
functions — confidence the pipeline holds beyond toy sizes."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from conftest import compile_src, output_of, profile_src


class TestScale:
    def test_many_functions(self):
        parts = []
        for k in range(40):
            parts.append(
                f"proc f{k}(x: real): real {{ return x + {k}.0; }}"
            )
        calls = " + ".join(f"f{k}(1.0)" for k in range(40))
        parts.append(f"proc main() {{ writeln({calls}); }}")
        src = "\n".join(parts)
        # sum over k of (1+k) = 40 + 780
        assert output_of(src) == ["820.0"]

    def test_deep_call_chain(self):
        parts = ["proc f0(x: int): int { return x + 1; }"]
        for k in range(1, 30):
            parts.append(
                f"proc f{k}(x: int): int {{ return f{k-1}(x) + 1; }}"
            )
        parts.append("proc main() { writeln(f29(0)); }")
        assert output_of("\n".join(parts)) == ["30"]

    def test_deep_recursion(self):
        src = """
proc depth(n: int): int {
  if n == 0 then return 0;
  return depth(n - 1) + 1;
}
proc main() { writeln(depth(300)); }
"""
        assert output_of(src) == ["300"]

    @pytest.mark.parametrize("threshold", [None, 99991])
    def test_deep_recursion_memory_grows_linearly(self, threshold):
        # A call must not copy its caller's calling context: that would
        # hold depth**2 / 2 entries at the bottom of a recursion.  A
        # sampled frame keeps its context, as a sample keeps its stack,
        # so the sampled run samples rarely.
        import tracemalloc

        from repro.runtime.interpreter import Interpreter
        from repro.sampling.monitor import Monitor

        src = """
proc depth(n: int): int {
  if n == 0 then return 0;
  return depth(n - 1) + 1;
}
proc main() { writeln(depth(N)); }
"""
        peaks = {}
        for n in (1000, 4000):
            module = compile_src(src.replace("N", str(n)))
            monitor = None if threshold is None else Monitor(sink=lambda batch: None)
            interp = Interpreter(module, num_threads=1, monitor=monitor,
                                 sample_threshold=threshold)
            tracemalloc.start()
            try:
                result = interp.run()
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.output == [str(n)]
        # Linear growth is 4x; a context copied at every call is 14x.
        assert peaks[4000] < 6 * peaks[1000], peaks

    @pytest.mark.parametrize("faults", [None, "truncate=0.5:50,seed=3"])
    def test_deep_recursion_profile_memory_grows_linearly(self, faults):
        # Post-mortem must not index every suffix of every intact path:
        # that holds depth**2 / 2 frames per path of a recursion.  Its
        # recovery evidence is worked out only for the samples held
        # back, and a recursion is ambiguous below its deepest frame.
        import tracemalloc

        from repro.blame.postmortem import REASON_TRUNCATED
        from repro.run_config import RunConfig
        from repro.tooling.profiler import Profiler

        src = """
proc depth(n: int): int {
  if n == 0 then return 0;
  return depth(n - 1) + 1;
}
proc main() { writeln(depth(N)); }
"""
        peaks = {}
        for n in (1000, 4000):
            module = compile_src(src.replace("N", str(n)))
            run = RunConfig(num_threads=1, threshold=9973, faults=faults)
            tracemalloc.start()
            try:
                result = Profiler(module, run).profile()
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.run_result.output == [str(n)]
        assert peaks[4000] < 6 * peaks[1000], peaks
        pm = result.postmortem
        if faults is None:
            assert pm.n_unknown == 0
        else:
            assert pm.unknown_by_reason() == {REASON_TRUNCATED: 8}
            assert pm.n_recovered == 0

    def test_wide_record(self):
        fields = "\n".join(f"  var f{k}: real;" for k in range(24))
        src = f"""
record Wide {{
{fields}
}}
var w: Wide = new Wide();
proc main() {{
  w.f23 = 9.5;
  w.f0 = w.f23 * 2.0;
  writeln(w.f0);
}}
"""
        assert output_of(src) == ["19.0"]

    def test_3d_domain(self):
        src = """
var D: domain(3) = {0..3, 0..3, 0..3};
var V: [D] real;
proc main() {
  forall (i, j, k) in D {
    V[i, j, k] = i * 16.0 + j * 4.0 + k;
  }
  writeln(+ reduce V);
}
"""
        # sum of 0..63
        assert output_of(src) == ["2016.0"]

    def test_profile_of_bigger_program_terminates_quickly(self):
        src = """
var A: [0..999] real;
var B: [0..999] real;
proc phase1() {
  forall i in 0..999 { A[i] = sqrt(i * 1.0); }
}
proc phase2() {
  forall i in 0..999 { B[i] = A[i] * 2.0 + 1.0; }
}
proc main() {
  for t in 1..3 { phase1(); phase2(); }
  writeln(+ reduce B > 0.0);
}
"""
        res = profile_src(src, threshold=4999, num_threads=12)
        assert res.run_result.output == ["true"]
        assert res.report.blame_of("B") > 0.2
        assert res.report.blame_of("A") > 0.2

    def test_static_analysis_scales_to_benchmark_modules(self):
        from repro.bench.programs import lulesh
        from repro.blame.static_info import ModuleBlameInfo

        m = compile_src(lulesh.build_source())
        info = ModuleBlameInfo(m)
        # every function analyzed, none empty
        assert len(info.functions) == len(m.functions)
        big = info.functions["CalcElemFBHourglassForce"]
        assert big.blame_sets.by_var
