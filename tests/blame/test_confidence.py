"""Blame-share confidence intervals: Wilson bounds, the
degradation-widening invariant, and the resolved-pairs Kendall-τ."""

from __future__ import annotations

import pytest

from repro.blame.confidence import (
    BlameInterval,
    blame_intervals,
    max_half_width,
    rank_agreement,
    resolved_kendall_tau,
    widen_interval,
    wilson_interval,
    z_value,
)
from repro.blame.report import (
    UNKNOWN_BUCKET,
    BlameReport,
    BlameRow,
    RunStats,
)


def _row(name, blame, samples, context="main"):
    return BlameRow(
        name=name,
        type_str="real",
        blame=blame,
        context=context,
        samples=samples,
        is_path=False,
    )


def _report(rows):
    total = sum(r.samples for r in rows)
    return BlameReport(
        program="t.chpl",
        rows=rows,
        stats=RunStats(total_raw_samples=total, user_samples=total),
    )


class TestZValue:
    def test_standard_quantiles(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-4)
        assert z_value(0.99) == pytest.approx(2.575829, abs=1e-4)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_degenerate_confidence(self, bad):
        with pytest.raises(ValueError):
            z_value(bad)


class TestWilson:
    def test_brackets_the_point_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_extremes_stay_in_bounds(self):
        lo0, hi0 = wilson_interval(0, 50)
        assert lo0 == 0.0 and hi0 < 0.2
        lo1, hi1 = wilson_interval(50, 50)
        assert lo1 > 0.8 and hi1 == 1.0

    def test_no_evidence_is_total_uncertainty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_narrows_with_evidence(self):
        w_small = wilson_interval(10, 40)
        w_big = wilson_interval(100, 400)
        assert (w_big[1] - w_big[0]) < (w_small[1] - w_small[0])

    def test_higher_confidence_is_wider(self):
        w90 = wilson_interval(30, 100, confidence=0.90)
        w99 = wilson_interval(30, 100, confidence=0.99)
        assert (w99[1] - w99[0]) > (w90[1] - w90[0])


class TestWiden:
    def test_clean_is_identity(self):
        assert widen_interval(0.2, 0.4, degraded=0, n=100) == (0.2, 0.4)

    def test_quarantined_widens_never_shrinks(self):
        """The adaptive contract: degraded samples must widen, never
        shrink, the intervals — monotonically in the degraded count."""
        lo, hi = 0.2, 0.4
        prev_lo, prev_hi = lo, hi
        for degraded in (1, 5, 20, 100, 1000):
            wlo, whi = widen_interval(lo, hi, degraded, n=100)
            assert wlo <= prev_lo and whi >= prev_hi
            prev_lo, prev_hi = wlo, whi

    def test_clamped_to_unit_interval(self):
        lo, hi = widen_interval(0.05, 0.95, degraded=10_000, n=10)
        assert lo == 0.0 and hi == 1.0


class TestBlameIntervals:
    def test_tops_only_and_skips_unknown(self):
        rows = [
            BlameRow(UNKNOWN_BUCKET, "", 0.5, UNKNOWN_BUCKET, 50, False),
            _row("a", 0.3, 30),
            _row("b", 0.2, 20),
        ]
        ivs = blame_intervals(_report(rows), total=100, top_n=1)
        assert [iv.name for iv in ivs] == ["a"]
        assert ivs[0].share == pytest.approx(0.3)
        assert ivs[0].key == "main::a"

    def test_empty_report_means_no_evidence(self):
        assert max_half_width([]) == 1.0

    def test_half_width_and_row_encoding(self):
        iv = BlameInterval("a", "main", 0.3, 0.25, 0.35)
        assert iv.half_width == pytest.approx(0.05)
        assert iv.as_row() == ["main::a", 0.3, 0.25, 0.35]


class TestResolvedTau:
    def test_true_ties_are_excluded(self):
        """Symmetric arrays (LULESH's hgfx/hgfy/hgfz) have essentially
        identical shares; their arbitrary relative order must not count
        against agreement."""
        clean = _report(
            [_row("big", 0.50, 500), _row("x", 0.201, 201), _row("y", 0.200, 200)]
        )
        swapped = _report(
            [_row("big", 0.50, 500), _row("y", 0.200, 200), _row("x", 0.201, 201)]
        )
        assert resolved_kendall_tau(clean, swapped) == 1.0

    def test_resolved_disagreement_still_counts(self):
        clean = _report([_row("a", 0.6, 600), _row("b", 0.4, 400)])
        flipped = _report([_row("b", 0.4, 400), _row("a", 0.6, 600)])
        assert resolved_kendall_tau(clean, flipped) == -1.0

    def test_no_resolved_pairs_is_agreement(self):
        clean = _report([_row("x", 0.301, 301), _row("y", 0.300, 300)])
        other = _report([_row("y", 0.300, 300), _row("x", 0.301, 301)])
        assert resolved_kendall_tau(clean, other) == 1.0


class TestRankAgreement:
    def test_identical_reports_agree_perfectly(self):
        rep = _report([_row("a", 0.6, 60), _row("b", 0.4, 40)])
        assert rank_agreement(rep, rep) == (1.0, 1.0)

    def test_disjoint_reports_have_no_overlap(self):
        a = _report([_row("a", 1.0, 10)])
        b = _report([_row("b", 1.0, 10)])
        overlap, tau = rank_agreement(a, b)
        assert overlap == 0.0
        assert tau == 1.0  # no shared pairs — no evidence of disagreement
