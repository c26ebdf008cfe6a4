"""Multi-locale degradation: crashes, retries, stragglers, partials."""

import pytest

from repro.errors import AggregationError
from repro.resilience.faults import FaultPlan
from repro.run_config import RunConfig
from repro.tooling.multilocale import profile_locales
from repro.views.degradation import degradation_lines

SPMD = """
config const localeId: int = 0;
config const numLocales: int = 1;
config const n: int = 120;

var chunk = n / numLocales;
var lo = localeId * chunk;
var hi = lo + chunk - 1;
var A: [0..n-1] real;

proc main() {
  forall i in lo..hi {
    A[i] = sqrt(i * 1.0) + i * 0.5;
  }
  writeln("locale", localeId, "sum", + reduce A);
}
"""


def _profile(faults=None, **kw):
    kw.setdefault("retry_backoff", 0.0)
    run = RunConfig(num_threads=4, threshold=499, faults=faults)
    return profile_locales(SPMD, run=run, **kw)


class TestCrashes:
    def test_crashed_locale_marked_missing_in_partial_merge(self):
        res = _profile(num_locales=3, faults="crash=1")
        assert res.num_locales == 2
        assert res.missing_locales == (1,)
        assert res.merged.missing_locales == (1,)
        assert res.outcomes[1].status == "crashed"
        assert res.outcomes[1].attempts == 3  # initial + 2 retries
        total = sum(r.report.stats.user_samples for r in res.per_locale)
        assert res.merged.stats.user_samples == total

    def test_partial_merge_reported_in_degradation_notes(self):
        res = _profile(num_locales=3, faults="crash=2")
        notes = "\n".join(degradation_lines(res.merged))
        assert "locale" in notes and "2" in notes and "partial" in notes

    def test_allow_partial_off_raises(self):
        with pytest.raises(AggregationError):
            _profile(num_locales=2, faults="crash=0", allow_partial=False)

    def test_all_locales_down_raises(self):
        with pytest.raises(AggregationError, match="all 2 locales failed"):
            _profile(num_locales=2, faults="crash=0;1")

    def test_transient_crash_retried_to_success(self):
        # Seed 3 makes locale 0 crash on attempt 0 but not attempt 1 —
        # a bounded retry turns a transient fault into a clean outcome.
        plan = FaultPlan(seed=3, crash_rate=0.5)
        assert plan.should_crash(0, 0) and not plan.should_crash(0, 1)
        res = _profile(num_locales=1, faults=plan)
        assert res.outcomes[0].status == "ok"
        assert res.outcomes[0].attempts == 2
        assert res.missing_locales == ()


class TestStragglers:
    def test_straggler_flagged_but_kept(self):
        res = _profile(
            num_locales=2,
            faults="straggle=1,straggle-delay=0.05",
            locale_timeout=0.02,
        )
        assert res.stragglers == (1,)
        assert res.outcomes[1].status == "straggler"
        assert res.outcomes[1].succeeded
        assert res.missing_locales == ()
        assert res.num_locales == 2  # its report still merged

    def test_drop_stragglers_marks_missing(self):
        res = _profile(
            num_locales=2,
            faults="straggle=1,straggle-delay=0.05",
            locale_timeout=0.02,
            drop_stragglers=True,
            max_retries=0,
        )
        assert res.outcomes[1].status == "timeout"
        assert res.missing_locales == (1,)
        assert res.merged.missing_locales == (1,)


class TestPerLocaleDecorrelation:
    def test_sample_faults_decorrelated_across_locales(self):
        # The same plan degrades each locale through an independent
        # per-locale seed: locales must not all lose the same samples.
        res = _profile(num_locales=3, faults="drop=0.3,seed=11")
        dropped = [r.fault_stats.dropped for r in res.per_locale]
        assert all(d > 0 for d in dropped)
        assert len(set(dropped)) > 1
