"""Streaming collection + post-mortem: bounded memory, identical output.

The acceptance bar: a ``Profiler`` run never holds more than
``batch_size`` samples resident in the monitor, and on the same program
the resulting report (and every view) is exactly what the materialized
reference composition produces — clean or degraded."""

from __future__ import annotations

import pytest

from repro.blame.postmortem import PostmortemConsumer, process_samples
from repro.pipeline import render_stage
from repro.resilience.faults import FaultPlan
from repro.resilience.inject import FaultInjector

from .conftest import FAULT_SPEC, materialized_benchmark, profile_benchmark

BATCH = 32


def report_key(result):
    return [
        (r.name, r.context, r.samples, r.blame) for r in result.report.rows
    ]


class TestStreamingEquivalence:
    @pytest.mark.parametrize("view", ["data", "code", "hybrid", "html"])
    def test_views_identical_clean(self, benchmark_name, view):
        retained = materialized_benchmark(benchmark_name)
        streamed = profile_benchmark(benchmark_name, batch_size=BATCH)
        assert render_stage(streamed, view) == render_stage(retained, view)

    def test_views_identical_degraded(self, benchmark_name):
        retained = materialized_benchmark(benchmark_name, faults=FAULT_SPEC)
        streamed = profile_benchmark(
            benchmark_name, faults=FAULT_SPEC, batch_size=BATCH
        )
        for view in ("data", "code", "hybrid", "html"):
            assert render_stage(streamed, view) == render_stage(retained, view)
        assert report_key(streamed) == report_key(retained)

    def test_degraded_accounting_identical(self, benchmark_name):
        retained = materialized_benchmark(benchmark_name, faults=FAULT_SPEC)
        streamed = profile_benchmark(
            benchmark_name, faults=FAULT_SPEC, batch_size=BATCH
        )
        # postmortem_seconds is host-measured wall time, the one
        # legitimately nondeterministic stat.
        import dataclasses

        assert dataclasses.replace(
            streamed.report.stats, postmortem_seconds=0.0
        ) == dataclasses.replace(retained.report.stats, postmortem_seconds=0.0)
        assert (
            streamed.postmortem.unknown_by_reason()
            == retained.postmortem.unknown_by_reason()
        )
        assert streamed.fault_stats.as_dict() == retained.fault_stats.as_dict()


class TestBoundedMemory:
    def test_peak_resident_bounded_by_batch_size(self, benchmark_name):
        streamed = profile_benchmark(benchmark_name, batch_size=BATCH)
        monitor = streamed.monitor
        assert monitor.n_accepted > BATCH  # the bound was actually exercised
        assert 0 < monitor.peak_resident <= BATCH

    def test_sink_mode_retains_nothing(self, benchmark_name):
        streamed = profile_benchmark(benchmark_name, batch_size=BATCH)
        assert streamed.monitor.samples == []
        # ...but the counts still tell the whole story.
        assert streamed.postmortem.n_runtime > 0
        assert streamed.monitor.dataset_size_bytes() > 0

    def test_retain_mode_counters_match_list(self, benchmark_name):
        retained = materialized_benchmark(benchmark_name)
        monitor = retained.monitor
        assert monitor.n_accepted == len(monitor.samples)
        assert monitor.peak_resident == 0  # never tracked without a sink
        assert monitor.dataset_size_bytes() == sum(
            8 + 8 * len(s.stack) for s in monitor.samples
        )


class TestConsumerContract:
    def samples_of(self, name):
        return list(materialized_benchmark(name).monitor.samples)

    def test_chunked_feed_equals_one_shot(self):
        result = profile_benchmark("minimd")
        samples = self.samples_of("minimd")
        one_shot = process_samples(
            result.module,
            samples,
            options=result.static_info.options,
            tolerant=True,
        )
        consumer = PostmortemConsumer(
            result.module, options=result.static_info.options, tolerant=True
        )
        for k in range(0, len(samples), 7):
            consumer.feed(samples[k : k + 7])
        chunked = consumer.finish()
        assert chunked.instances == one_shot.instances
        assert chunked.n_raw == one_shot.n_raw
        assert chunked.n_runtime == one_shot.n_runtime

    def test_finish_twice_and_feed_after_finish_raise(self):
        result = profile_benchmark("minimd")
        consumer = PostmortemConsumer(result.module)
        consumer.finish()
        with pytest.raises(RuntimeError):
            consumer.finish()
        with pytest.raises(RuntimeError):
            consumer.feed([])


class TestStreamingDegrader:
    def test_chunking_invariant(self):
        samples = list(materialized_benchmark("minimd").monitor.samples)
        module = materialized_benchmark("minimd").module
        plan = FaultPlan.parse(FAULT_SPEC)
        whole = FaultInjector(plan, module=module).degrade_samples(samples)
        for chunk in (1, 5, 64):
            degrade = FaultInjector(plan, module=module).degrader()
            piecewise = []
            for k in range(0, len(samples), chunk):
                piecewise.extend(degrade(samples[k : k + chunk]))
            assert piecewise == whole, f"chunk={chunk}"

    def test_clean_plan_degrader_is_identity(self):
        samples = list(materialized_benchmark("minimd").monitor.samples)
        degrade = FaultInjector(FaultPlan()).degrader()
        assert degrade(samples) == samples
