"""Experiment harness unit tests."""

import pytest

from repro.bench import harness
from repro.bench.harness import SpeedupResult, TimingRow, time_variant
from repro.run_config import RunConfig


class TestTimingRows:
    def test_speedup_math(self):
        base = TimingRow("orig", 2.0)
        fast = TimingRow("opt", 1.0)
        assert fast.speedup_vs(base) == pytest.approx(2.0)

    def test_speedup_result_lookup(self):
        r = SpeedupResult("x")
        r.rows["orig"] = TimingRow("orig", 4.0)
        r.rows["opt"] = TimingRow("opt", 2.0)
        assert r.speedup("opt", "orig") == pytest.approx(2.0)


class TestTimeVariant:
    def test_prefers_self_timer(self):
        src = """
proc main() {
  var t0 = getCurrentTime();
  var s = 0.0;
  for i in 1..2000 { s += i * 1.0; }
  var t1 = getCurrentTime();
  writeln("elapsed", t1 - t0);
}
"""
        t = time_variant(src, "t.chpl", RunConfig(num_threads=2))
        assert t > 0
        # The self-timer excludes nothing here, but must be < whole wall
        # (which includes module init and the writeln itself).
        from repro.tooling.profiler import run_only

        wall = run_only(src, RunConfig(num_threads=2)).wall_seconds
        assert t <= wall

    def test_falls_back_to_wall(self):
        src = "proc main() { var s = 0; for i in 1..100 { s += i; } }"
        t = time_variant(src, "t.chpl", RunConfig(num_threads=2))
        assert t > 0

    def test_deterministic(self):
        src = "proc main() { var s = 0.0; for i in 1..500 { s += i; } }"
        assert time_variant(src, "t.chpl") == time_variant(src, "t.chpl")


class TestProfileHelpers:
    def test_minimd_profile_smoke(self):
        res = harness.minimd_profile(
            optimized=True, num_bins=4, per_bin=3, steps=1
        )
        assert res.report.rows
        assert any(l.startswith("energy") for l in res.run_result.output)

    def test_clomp_profile_smoke(self):
        res = harness.clomp_profile(
            optimized=True, num_parts=4, zones_per_part=5, timesteps=1
        )
        assert res.report.rows

    def test_lulesh_profile_smoke(self):
        res = harness.lulesh_profile(edge_elems=2, max_steps=1)
        assert res.report.rows
        assert res.report.blame_of("hourgam") >= 0

    def test_lulesh_time_variants_differ_only_in_variant(self):
        from repro.bench.programs import lulesh

        t_orig = harness.lulesh_time(lulesh.ORIGINAL, edge_elems=2, max_steps=1)
        t_best = harness.lulesh_time(lulesh.BEST_CASE, edge_elems=2, max_steps=1)
        assert t_orig > 0 and t_best > 0
