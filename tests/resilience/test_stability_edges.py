"""Stability-metric edge cases the fault sweep never hits: tied blame
shares, empty and singleton reports, and fully disjoint variable sets.
The adaptive stopping rule consumes these metrics at checkpoints where
any of those shapes can genuinely occur (first rounds, heavy
quarantine), so the boundary behaviour is load-bearing."""

from __future__ import annotations

from repro.blame.report import UNKNOWN_BUCKET, BlameReport, BlameRow, RunStats
from repro.resilience.stability import (
    compare_reports,
    kendall_tau,
    ranking,
    top_n_overlap,
)


def _report(rows_spec):
    """rows_spec: list of (name, samples) — blame derived, order kept."""
    total = sum(s for _, s in rows_spec) or 1
    rows = [
        BlameRow(
            name=name,
            type_str="real",
            context="main",
            samples=samples,
            blame=samples / total,
            is_path=False,
        )
        for name, samples in rows_spec
    ]
    return BlameReport(
        program="t.chpl",
        rows=rows,
        stats=RunStats(total_raw_samples=total, user_samples=total),
    )


EMPTY = _report([])
SINGLETON = _report([("only", 10)])


class TestTiedShares:
    """Rows with identical blame: the report's display order decides the
    ranking, and the metrics must stay well-defined (no division by the
    number of resolved pairs)."""

    def test_tied_rows_keep_report_order(self):
        rep = _report([("a", 10), ("b", 10), ("c", 10)])
        assert ranking(rep) == ["main::a", "main::b", "main::c"]

    def test_tie_reorder_keeps_overlap(self):
        a = _report([("a", 10), ("b", 10), ("c", 10)])
        b = _report([("c", 10), ("a", 10), ("b", 10)])
        assert top_n_overlap(a, b, n=3) == 1.0

    def test_tie_reorder_moves_plain_tau(self):
        # Plain tau-a does penalize reordered ties — exactly why the
        # adaptive bench gates on resolved_kendall_tau instead.
        a = _report([("a", 10), ("b", 10)])
        b = _report([("b", 10), ("a", 10)])
        assert kendall_tau(a, b) == -1.0

    def test_all_tied_compare_reports_is_finite(self):
        a = _report([("a", 10), ("b", 10)])
        point = compare_reports("drop", 0.1, a, a)
        assert point.top5_overlap == 1.0
        assert point.kendall_tau == 1.0


class TestEmptyAndSingleton:
    def test_empty_vs_empty(self):
        assert top_n_overlap(EMPTY, EMPTY) == 1.0
        assert kendall_tau(EMPTY, EMPTY) == 1.0
        assert ranking(EMPTY) == []

    def test_empty_clean_vs_populated(self):
        rep = _report([("a", 10)])
        # No clean rows: nothing to lose — vacuous full overlap.
        assert top_n_overlap(EMPTY, rep) == 1.0

    def test_populated_clean_vs_empty(self):
        rep = _report([("a", 10)])
        assert top_n_overlap(rep, EMPTY) == 0.0
        assert kendall_tau(rep, EMPTY) == 1.0  # < 2 shared rows

    def test_singleton_agreement_is_neutral(self):
        other = _report([("only", 25)])
        assert top_n_overlap(SINGLETON, other) == 1.0
        assert kendall_tau(SINGLETON, other) == 1.0

    def test_unknown_only_report_ranks_empty(self):
        rep = _report([(UNKNOWN_BUCKET, 10)])
        assert ranking(rep) == []
        assert top_n_overlap(rep, SINGLETON) == 1.0


class TestDisjointSets:
    def test_fully_disjoint_overlap_zero(self):
        a = _report([("a", 10), ("b", 5)])
        b = _report([("x", 10), ("y", 5)])
        assert top_n_overlap(a, b) == 0.0

    def test_fully_disjoint_tau_neutral(self):
        a = _report([("a", 10), ("b", 5)])
        b = _report([("x", 10), ("y", 5)])
        # No shared rows: tau has no evidence of disagreement.
        assert kendall_tau(a, b) == 1.0

    def test_disjoint_compare_reports_completes(self):
        a = _report([("a", 10)])
        b = _report([("x", 10)])
        point = compare_reports("strip", 0.3, a, b)
        assert point.completed
        assert point.top5_overlap == 0.0
        assert point.kendall_tau == 1.0

    def test_context_distinguishes_same_name(self):
        # Same variable name in different contexts is a different key.
        a = _report([("v", 10)])
        b_rows = [
            BlameRow(
                name="v",
                type_str="real",
                context="helper",
                samples=10,
                blame=1.0,
                is_path=False,
            )
        ]
        b = BlameReport(
            program="t.chpl",
            rows=b_rows,
            stats=RunStats(total_raw_samples=10, user_samples=10),
        )
        assert top_n_overlap(a, b) == 0.0


class TestQuarantineRate:
    def test_sweep_point_reads_the_run_stats_rate(self):
        # The sweep and `--fail-on-quarantine-rate` share one formula:
        # RunStats.quarantine_rate.
        clean = _report([("a", 10)])
        degraded = _report([("a", 10)])
        degraded.stats.quarantined_samples = 3
        point = compare_reports("corrupt", 0.1, clean, degraded)
        assert point.quarantine_rate == degraded.stats.quarantine_rate > 0.0

    def test_no_samples_is_zero(self):
        assert RunStats().quarantine_rate == 0.0
