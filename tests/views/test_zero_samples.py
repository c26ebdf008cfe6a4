"""Zero-sample denominators: a run whose every sample was dropped (or
that never crossed the PMU threshold) must render every view and merge
cleanly — no division by the empty denominator anywhere."""

from __future__ import annotations

import pytest

from repro.artifact import merge_snapshots, snapshot_from_result
from repro.blame.attribution import AttributionResult, VariableBlame
from repro.pipeline import VIEWS, render_stage
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

SRC = """
config const n: int = 40;
var A: [0..99] real;
proc main() {
  forall i in 0..n-1 { A[i] = sqrt(i * 1.0); }
}
"""


@pytest.fixture(scope="module")
def dropped_everything():
    return Profiler(SRC, RunConfig(threshold=311, faults="drop=1.0,seed=1")).profile()


class TestZeroSamples:
    def test_percentage_guards_the_empty_denominator(self):
        row = VariableBlame(name="A", context="main", type=None, is_temp=False)
        assert row.percentage(0) == 0.0
        empty = AttributionResult(rows={}, total_samples=0)
        assert empty.blame_of("A") == 0.0
        assert empty.sorted_rows() == []

    def test_fully_dropped_run_has_no_rows(self, dropped_everything):
        report = dropped_everything.report
        assert report.stats.user_samples == 0
        assert report.stats.unknown_samples == 0
        assert report.rows == []

    def test_fully_dropped_run_renders_every_view(self, dropped_everything):
        for view in VIEWS:
            assert render_stage(dropped_everything, view)

    def test_zero_sample_snapshots_merge_and_render(self, dropped_everything):
        a = snapshot_from_result(
            dropped_everything, source_sha256="a" * 64, locale_id=0
        )
        b = snapshot_from_result(
            dropped_everything, source_sha256="a" * 64, locale_id=1
        )
        merged = merge_snapshots([a, b], program="drop.chpl")
        assert merged.report.stats.user_samples == 0
        assert all(r.blame == 0.0 for r in merged.report.rows)
        for view in ("data", "code", "hybrid"):
            assert render_stage(merged, view)
