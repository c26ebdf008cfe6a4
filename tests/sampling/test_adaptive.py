"""Adaptive collection: the round scheduler, the stopping rule, and the
equivalences that make early stopping trustworthy — the adaptive report
must be exactly what a truncated full run would have produced, and a
run that never stops must be exactly the full run."""

from __future__ import annotations

import pytest

from repro.blame.attribution import BlameAttributor
from repro.blame.postmortem import PostmortemConsumer, process_samples
from repro.blame.report import build_rows
from repro.run_config import AdaptiveConfig, RunConfig
from repro.runtime.values import RuntimeError_
from repro.sampling.adaptive import (
    REASON_EXHAUSTED,
    REASON_SETTLED,
    TAU_MIN,
    AdaptiveController,
    AdaptiveTrail,
    StopSampling,
)
from repro.tooling.profiler import Profiler

#: Two arrays with distinct blame levels and an outer timestep loop —
#: enough phase structure to exercise the half-stream guard, small
#: enough to profile in well under a second.
SOURCE = """
config const n = 400;
config const iters = 20;
var A: [0..#n] real;
var B: [0..#n] real;
var total = 0.0;
for it in 0..#iters {
  forall i in 0..#n {
    A[i] = A[i] + i * 2.0;
  }
  forall i in 0..#n {
    B[i] = B[i] + A[i] * 0.5;
  }
  for i in 0..#n {
    total += A[i];
  }
}
"""

CFG = AdaptiveConfig(ci_width=0.05)
#: Samples per round.
ROUND = 64


def _profiler(adaptive=None, faults=None):
    run = RunConfig(
        num_threads=4, threshold=997, batch_size=ROUND, adaptive=adaptive,
        faults=faults,
    )
    return Profiler(SOURCE, run, filename="toy.chpl")


@pytest.fixture(scope="module")
def full():
    samples = []
    result = _profiler().profile(tap=samples.extend)
    return result, samples


@pytest.fixture(scope="module")
def adaptive():
    return _profiler(CFG).profile()


class TestStoppingRule:
    def test_stops_early_and_saves_samples(self, full, adaptive):
        trail = adaptive.adaptive
        assert adaptive.stopped_early
        assert trail.stop_reason == REASON_SETTLED
        assert trail.samples_collected < full[0].monitor.n_samples
        assert trail.samples_collected == adaptive.monitor.n_samples

    def test_streak_and_min_rounds_honoured(self, adaptive):
        trail = adaptive.adaptive
        assert len(trail.rounds) >= max(CFG.min_rounds, CFG.stability_window)
        # The rule fires only after stability_window consecutive stable
        # checkpoints — the trail's tail must show exactly that.
        tail = trail.rounds[-CFG.stability_window :]
        assert all(r.stable for r in tail)
        assert not trail.rounds[-CFG.stability_window - 1].stable

    def test_rounds_follow_batch_size(self, adaptive):
        trail = adaptive.adaptive
        for i, r in enumerate(trail.rounds):
            assert r.round == i + 1
            assert r.n_raw == (i + 1) * ROUND

    def test_settled_checkpoint_is_tight_and_agreed(self, adaptive):
        last = adaptive.adaptive.rounds[-1]
        assert last.max_half_width <= CFG.ci_width
        assert last.top_overlap == 1.0
        assert last.half_overlap == 1.0
        assert last.tau >= TAU_MIN
        assert last.half_tau >= TAU_MIN
        assert last.intervals  # the evidence rides in the trail


class TestEquivalences:
    def test_report_equals_truncated_full_run(self, full, adaptive):
        """The adaptive report must be byte-for-byte what processing the
        full run's stream *prefix* (up to the stopping point) yields —
        early stopping only ever truncates, never distorts."""
        result, samples = full
        n = adaptive.adaptive.samples_collected
        prefix = samples[:n]
        pm = process_samples(result.module, prefix, tolerant=True)
        attr = BlameAttributor(result.static_info).attribute(pm.instances)
        rows = build_rows(attr, unknown_samples=pm.n_unknown)
        assert adaptive.report.rows == rows
        assert adaptive.postmortem.n_user == pm.n_user

    def test_incremental_merge_equals_single_pass(self, adaptive):
        """Per-round delta attribution merged across rounds must equal
        one attribution pass over every consolidated instance."""
        fresh = BlameAttributor(adaptive.static_info).attribute(
            adaptive.postmortem.instances
        )
        assert build_rows(adaptive.attribution) == build_rows(fresh)
        assert adaptive.attribution.total_samples == fresh.total_samples

    def test_exhausted_run_matches_plain_profile(self, full):
        """A rule that never fires (huge min_rounds) runs to the end of
        the stream and reports exactly what the plain path reports."""
        full, _samples = full
        result = _profiler(
            AdaptiveConfig(ci_width=0.05, min_rounds=10_000)
        ).profile()
        trail = result.adaptive
        assert not result.stopped_early
        assert trail.stop_reason == REASON_EXHAUSTED
        assert trail.samples_collected == full.monitor.n_samples
        # closing mode recorded the final partial round without raising.
        assert trail.rounds[-1].n_raw == full.monitor.n_samples
        assert result.report.rows == full.report.rows


class TestDegradation:
    def test_degraded_samples_widen_never_shrink(self, adaptive):
        """Fault-injected telemetry must delay the stop (wider
        intervals), never accelerate it."""
        faulty = _profiler(CFG, faults="drop=0.2,strip=0.2,seed=11").profile()
        trail = faulty.adaptive
        assert any(r.degraded > 0 for r in trail.rounds)
        assert (
            trail.samples_collected >= adaptive.adaptive.samples_collected
        )
        # Same round, degraded evidence: the interval can only be wider.
        for clean_r, faulty_r in zip(adaptive.adaptive.rounds, trail.rounds):
            if faulty_r.degraded > 0:
                assert faulty_r.max_half_width >= clean_r.max_half_width


class TestPlumbing:
    def test_short_final_round_is_recorded_but_never_stops(self, full):
        """Only the flush that ends a completed run delivers a round
        shorter than the batch size: it joins the trail even when it
        meets the rule, and only a full round stops the run."""
        result, samples = full
        run = RunConfig(
            batch_size=64,
            adaptive=AdaptiveConfig(ci_width=0.5, stability_window=2, min_rounds=1),
        )

        def controller():
            consumer = PostmortemConsumer(
                result.module, options=result.static_info.options,
                tolerant=True,
            )
            return AdaptiveController(run, result.static_info, consumer)

        rounds = [samples[:64], samples[64:128]]
        short = controller()
        for batch in [*rounds, samples[128:191]]:
            short.sink(batch)
        assert [r.stable for r in short.trail.rounds] == [False, True, True]
        assert not short.trail.stopped_early
        stopped = controller()
        for batch in rounds:
            stopped.sink(batch)
        with pytest.raises(StopSampling):
            stopped.sink(samples[128:192])
        assert stopped.trail.stopped_early

    def test_trail_dict_roundtrip(self, adaptive):
        d = adaptive.adaptive.as_dict()
        assert AdaptiveTrail.from_dict(d).as_dict() == d

    def test_stop_sampling_unwinds_past_program_errors(self):
        # The interpreter wraps RuntimeError_ into program-level
        # failures; the stop signal must never be caught by that net.
        assert not issubclass(StopSampling, RuntimeError_)
        exc = StopSampling(REASON_SETTLED, rounds=7)
        assert exc.reason == REASON_SETTLED
        assert exc.rounds == 7

    @pytest.mark.parametrize(
        "kw",
        [
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"ci_width": 0.0},
            {"ci_width": 1.0},
            {"stability_window": 0},
            {"min_rounds": 0},
        ],
    )
    def test_config_validation(self, kw):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kw)

    def test_adaptive_true_uses_defaults(self):
        # The default stopping rule is what an adaptive run records.
        result = _profiler(AdaptiveConfig()).profile()
        assert result.adaptive is not None
        assert result.adaptive.ci_width == AdaptiveConfig().ci_width
