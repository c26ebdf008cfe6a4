"""FaultInjector: per-class behavior, determinism, purity."""

import sys, os

from repro.resilience.faults import FaultPlan
from repro.resilience.inject import (
    CORRUPT_IID,
    FaultInjector,
    is_stripped_frame,
)
from repro.sampling.records import RawSample

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import compile_src, profile_src

PAR = """
var A: [0..99] real;
proc kernel() {
  forall i in 0..99 { A[i] = sqrt(i * 1.0) + i * 0.25; }
}
proc main() { kernel(); }
"""


def _samples(n=200, depth=4):
    out = []
    for i in range(n):
        stack = tuple((f"f{d}", 100 * d + i % 7) for d in range(depth))
        out.append(
            RawSample(
                index=i,
                thread_id=i % 4,
                task_id=i % 3,
                stack=stack,
                leaf_iid=stack[0][1],
                spawn_tag=i % 5 if i % 2 else None,
                pre_spawn_stack=(("main", 7),) if i % 2 else None,
            )
        )
    return out


class TestStreamFaults:
    def test_clean_plan_copies_stream_untouched(self):
        samples = _samples()
        inj = FaultInjector(FaultPlan())
        out = inj.degrade_samples(samples)
        assert out == samples and out is not samples

    def test_original_stream_never_mutated(self):
        samples = _samples()
        snapshot = list(samples)
        FaultInjector(FaultPlan(seed=1, drop_rate=0.5, corrupt_rate=0.5,
                                truncate_rate=0.5, tag_loss_rate=0.5)
                      ).degrade_samples(samples)
        assert samples == snapshot

    def test_deterministic_for_same_plan(self):
        samples = _samples()
        a = FaultInjector(FaultPlan(seed=5, drop_rate=0.3)).degrade_samples(samples)
        b = FaultInjector(FaultPlan(seed=5, drop_rate=0.3)).degrade_samples(samples)
        assert a == b
        c = FaultInjector(FaultPlan(seed=6, drop_rate=0.3)).degrade_samples(samples)
        assert a != c

    def test_drop_removes_samples(self):
        samples = _samples()
        inj = FaultInjector(FaultPlan(seed=2, drop_rate=0.4))
        out = inj.degrade_samples(samples)
        assert len(out) < len(samples)
        assert inj.stats.dropped == len(samples) - len(out)

    def test_corrupt_damages_payload(self):
        samples = _samples()
        inj = FaultInjector(FaultPlan(seed=2, corrupt_rate=0.5))
        out = inj.degrade_samples(samples)
        assert len(out) == len(samples)
        bad_leaf = [s for s in out if s.leaf_iid == CORRUPT_IID]
        bad_frame = [
            s for s in out if any(iid >= 10**9 for _, iid in s.stack)
        ]
        assert bad_leaf and bad_frame
        assert inj.stats.corrupted == len(bad_leaf) + len(bad_frame)

    def test_truncate_cuts_the_full_walk(self):
        samples = _samples(depth=4)
        inj = FaultInjector(FaultPlan(seed=2, truncate_rate=1.0, truncate_depth=2))
        out = inj.degrade_samples(samples)
        assert inj.stats.truncated == len(samples)
        for s in out:
            pre = len(s.pre_spawn_stack) if s.pre_spawn_stack else 0
            assert len(s.stack) + pre <= 2
        # Depth below the post-spawn stack loses the continuation but
        # keeps the tasking-layer tag (it is not part of the walk).
        cut = [s for s in out if s.spawn_tag is not None]
        assert cut and all(s.pre_spawn_stack is None for s in cut)

    def test_truncate_spares_shallow_walks(self):
        shallow = [
            RawSample(0, 0, 0, (("f", 1),), 1, None, None),
        ]
        inj = FaultInjector(FaultPlan(seed=2, truncate_rate=1.0, truncate_depth=2))
        assert inj.degrade_samples(shallow) == shallow
        assert inj.stats.truncated == 0

    def test_tagloss_clears_tag_and_pre_spawn(self):
        samples = _samples()
        inj = FaultInjector(FaultPlan(seed=2, tag_loss_rate=1.0))
        out = inj.degrade_samples(samples)
        assert all(s.spawn_tag is None and s.pre_spawn_stack is None for s in out)
        assert inj.stats.tags_lost == sum(
            1 for s in samples if s.spawn_tag is not None
        )

    def test_idle_samples_pass_through(self):
        idle = RawSample(0, 0, -1, (("__sched_yield", -1),), -1, None, None,
                         is_idle=True)
        inj = FaultInjector(FaultPlan(seed=2, drop_rate=1.0))
        assert inj.degrade_samples([idle]) == [idle]

    def test_idle_samples_do_not_shift_later_decisions(self):
        # The fate of sample k must not depend on how many idle samples
        # preceded it (keeps per-class sweeps comparable).
        busy = _samples(50)
        idle = [
            RawSample(900 + i, 0, -1, (("__sched_yield", -1),), -1, None,
                      None, is_idle=True)
            for i in range(10)
        ]
        plan = FaultPlan(seed=3, drop_rate=0.5)
        kept_a = [
            s.index for s in FaultInjector(plan).degrade_samples(busy)
        ]
        kept_b = [
            s.index
            for s in FaultInjector(plan).degrade_samples(idle + busy)
            if not s.is_idle
        ]
        assert kept_a == kept_b


class TestStrip:
    def test_strip_rewrites_frames_to_addresses(self):
        module = compile_src(PAR)
        inj = FaultInjector(FaultPlan(seed=1, strip_rate=0.5), module=module)
        assert inj.stripped_functions
        assert "main" not in inj.stripped_functions
        stack = tuple(
            (name, 10 + k) for k, name in enumerate(inj.stripped_functions)
        )
        out = inj.degrade_samples(
            [RawSample(0, 0, 0, stack, 10, None, None)]
        )
        assert all(is_stripped_frame(f) for f, _ in out[0].stack)
        # iids survive: that's what symbol-table re-identification uses.
        assert [iid for _, iid in out[0].stack] == [iid for _, iid in stack]

    def test_strip_without_module_is_noop(self):
        inj = FaultInjector(FaultPlan(seed=1, strip_rate=0.5))
        samples = _samples()
        assert inj.degrade_samples(samples) == samples


class TestProfiler:
    def test_profiler_end_to_end_with_faults(self):
        res = profile_src(PAR, threshold=211)
        clean_total = res.report.stats.total_raw_samples
        assert clean_total > 0 and res.fault_stats is None
