"""Tolerant post-mortem: zero-cost clean path, recovery, <unknown>."""

import sys, os

from repro.blame.postmortem import (
    REASON_LOST_TAG,
    REASON_MALFORMED,
    REASON_NO_DEBUG,
    process_samples,
)
from repro.blame.report import UNKNOWN_BUCKET
from repro.resilience.faults import FAULT_CLASSES, FaultPlan
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import profile_src, sample_src

PAR = """
var A: [0..199] real;
var B: [0..199] real;
proc kernel() {
  forall i in 0..199 { A[i] = sqrt(i * 1.0) + i * 0.25; }
}
proc other() {
  forall i in 0..199 { B[i] = i * 2.0; }
}
proc main() { kernel(); other(); }
"""


class TestZeroCostCleanPath:
    def test_tolerant_is_bit_identical_on_clean_stream(self):
        res, samples = sample_src(PAR, threshold=211)
        strict = process_samples(
            res.module, samples,
            options=res.static_info.options, tolerant=False,
        )
        tolerant = process_samples(
            res.module, samples,
            options=res.static_info.options, tolerant=True,
        )
        assert strict.instances == tolerant.instances
        assert not tolerant.unknown
        assert not tolerant.quarantined
        assert tolerant.n_recovered == 0

    def test_clean_report_has_no_unknown_row(self):
        res = profile_src(PAR, threshold=211)
        assert all(r.name != UNKNOWN_BUCKET for r in res.report.rows)
        assert res.report.stats.unknown_samples == 0
        assert res.report.unknown_by_reason == {}


class TestDegradedRuns:
    def _profile(self, fault, rate, seed=7):
        plan = FaultPlan(seed=seed).with_rate(fault, rate)
        run = RunConfig(num_threads=4, threshold=211, faults=plan)
        return Profiler(PAR, run, filename="test.chpl").profile()

    def test_every_fault_class_completes(self):
        for fault in FAULT_CLASSES:
            res = self._profile(fault, 0.3)
            assert res.report.rows is not None
            stats = res.report.stats
            assert (
                stats.unknown_samples >= 0
                and stats.quarantined_samples >= 0
                and stats.recovered_samples >= 0
            )

    def test_tagloss_recovered_by_suffix_match(self):
        res = self._profile("tagloss", 0.5)
        assert res.report.stats.recovered_samples > 0
        recovered = [i for i in res.postmortem.instances if i.was_recovered]
        assert recovered
        for inst in recovered:
            assert inst.frames[-1][0] == "main"

    def test_truncate_recovered_or_unknown_never_misattributed(self):
        res = self._profile("truncate", 0.5)
        stats = res.report.stats
        fs = res.fault_stats
        assert fs.truncated > 0
        # Every truncated walk either glued back or is explicitly
        # unknown — none is silently attributed with a partial stack.
        for inst in res.postmortem.instances:
            root = inst.frames[-1][0]
            f = res.module.get_function(root)
            assert root == "main" or (f is not None and f.is_artificial)

    def test_unknown_bucket_row_rendered_with_provenance(self):
        # Corrupt every sample's payload: half get an invalid leaf and
        # are quarantined at validation with a reason.
        res = self._profile("corrupt", 1.0)
        stats = res.report.stats
        assert stats.quarantined_samples > 0
        assert res.report.quarantine_by_reason.get(REASON_MALFORMED)

    def test_unknown_percentages_share_denominator(self):
        res = self._profile("strip", 0.9, seed=2)
        report = res.report
        if report.stats.unknown_samples:
            unknown_rows = [r for r in report.rows if r.name == UNKNOWN_BUCKET]
            assert len(unknown_rows) == 1
            assert unknown_rows[0].samples == report.stats.unknown_samples
            reasons = report.unknown_by_reason
            assert sum(reasons.values()) == report.stats.unknown_samples
            assert set(reasons) <= {
                REASON_NO_DEBUG, REASON_LOST_TAG, "truncated-stack",
            }

    def test_degraded_run_deterministic(self):
        a = self._profile("drop", 0.3)
        b = self._profile("drop", 0.3)
        assert [
            (r.name, r.context, r.samples) for r in a.report.rows
        ] == [(r.name, r.context, r.samples) for r in b.report.rows]
