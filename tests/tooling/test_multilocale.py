"""Multi-locale harness tests: SPMD-style partitioning + aggregation."""

import pytest

from repro.run_config import RunConfig
from repro.runtime.interpreter import ExecutionError
from repro.tooling.multilocale import profile_locales

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

RUN = RunConfig(num_threads=4, threshold=499)


class TestMultiLocale:
    def test_each_locale_does_its_share(self):
        res = profile_locales(SPMD, num_locales=4, run=RUN)
        assert res.num_locales == 4
        for k, r in enumerate(res.per_locale):
            assert r.run_result.output[0].startswith(f"locale {k}")
            assert r.report.locale_id == k

    def test_merged_report_aggregates_samples(self):
        res = profile_locales(SPMD, num_locales=3, run=RUN)
        total = sum(r.report.stats.user_samples for r in res.per_locale)
        assert res.merged.stats.user_samples == total
        assert res.merged.locale_id == -1

    def test_merged_blame_consistent_with_locales(self):
        res = profile_locales(SPMD, num_locales=2, run=RUN)
        per = [r.report.blame_of("A") for r in res.per_locale]
        merged = res.merged.blame_of("A")
        assert min(per) - 0.01 <= merged <= max(per) + 0.01

    def test_single_locale_is_the_base_case(self):
        res = profile_locales(SPMD, num_locales=1, run=RUN)
        assert res.merged is res.per_locale[0].report

    def test_zero_locales_rejected(self):
        with pytest.raises(ValueError):
            profile_locales(SPMD, num_locales=0)

    def test_failing_locale_raises_its_located_error(self):
        # Nothing is marked missing: the program's own fault on one
        # locale propagates unchanged.
        source = SPMD.replace(
            "proc main() {",
            "proc main() {\n  var d = 1 - localeId;\n  writeln(7 / d);",
        )
        with pytest.raises(ExecutionError) as info:
            profile_locales(source, num_locales=3, run=RUN, filename="spmd.chpl")
        where = str(info.value).splitlines()[0]
        assert where == "spmd.chpl:13:13: integer division by zero"


class TestPerLocaleDecorrelation:
    def test_sample_faults_decorrelated_across_locales(self):
        # The same plan degrades each locale through an independent
        # per-locale seed: locales must not all lose the same samples.
        run = RunConfig(num_threads=4, threshold=499, faults="drop=0.3,seed=11")
        res = profile_locales(SPMD, num_locales=3, run=run)
        dropped = [r.fault_stats.dropped for r in res.per_locale]
        assert all(d > 0 for d in dropped)
        assert len(set(dropped)) > 1
