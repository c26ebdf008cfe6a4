"""Gluing edge cases: lost spawn records, ambiguity, tag collisions.

These exercise the tolerant post-mortem's recovery pass on hand-crafted
degradations of a real run — the situations a lossy collector produces:
a spawn record that never made it to the monitor, a pre-spawn stack
that no longer suffix-matches anything intact, idle-thread samples in a
degraded stream, and duplicate (wrapped-around) spawn tags.
"""

import os
import sys

from repro.blame.postmortem import (
    REASON_LOST_TAG,
    REASON_TRUNCATED,
    PostmortemConsumer,
    _only,
    process_samples,
)
from repro.sampling.records import RawSample

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import sample_src

SRC = """
var A: [0..99] real;
var B: [0..99] real;
proc kernel() {
  forall i in 0..99 { A[i] = sqrt(i * 1.0) + i * 0.25; }
}
proc other() {
  forall i in 0..99 { B[i] = i * 2.0; }
}
proc main() { kernel(); other(); }
"""


def _run():
    """One clean profile; returns (module, options, busy raw samples)."""
    res, samples = sample_src(SRC, threshold=211)
    busy = [s for s in samples if not s.is_idle]
    return res.module, res.static_info.options, busy


def _spawned(samples, fn="forall_fn_chpl1"):
    return [s for s in samples if s.stack[0][0] == fn and s.spawn_tag is not None]


class TestMissingSpawnRecord:
    def test_recovered_from_intact_siblings(self):
        # The spawn record for one worker sample is lost entirely (no
        # tag, no pre-spawn) but intact samples of the same outlined
        # body pin down a unique pre-spawn stack.
        module, options, busy = _run()
        victim = _spawned(busy)[0]
        degraded = victim._replace(spawn_tag=None, pre_spawn_stack=None)
        pm = process_samples(
            module, busy + [degraded], options=options, tolerant=True
        )
        assert pm.n_recovered >= 1 and not pm.unknown
        rec = [i for i in pm.instances if i.was_recovered]
        assert rec and all(i.frames[-1][0] == "main" for i in rec)

    def test_without_siblings_lands_in_unknown(self):
        # No other sample of that outlined function exists: nothing to
        # glue against, so the sample is explicitly unattributable.
        module, options, busy = _run()
        victim = _spawned(busy)[0]
        degraded = victim._replace(spawn_tag=None, pre_spawn_stack=None)
        pm = process_samples(module, [degraded], options=options, tolerant=True)
        assert pm.n_user == 0
        assert [reason for reason, _ in pm.unknown] == [REASON_LOST_TAG]

    def test_ambiguous_pre_spawn_is_not_guessed(self):
        # The same outlined body glued from TWO distinct pre-spawn
        # stacks in this run: a tagless sample of it must NOT be
        # attributed to either (a wrong guess is silent misblame).
        module, options, busy = _run()
        a = _spawned(busy, "forall_fn_chpl1")[0]
        b = _spawned(busy, "forall_fn_chpl2")[0]
        # Forge a second spawn context for chpl1: same worker stack,
        # different (real, complete) pre-spawn path via `other`.
        forged = a._replace(spawn_tag=777, pre_spawn_stack=b.pre_spawn_stack)
        degraded = a._replace(spawn_tag=None, pre_spawn_stack=None)
        pm = process_samples(
            module, [a, forged, degraded], options=options, tolerant=True
        )
        assert [reason for reason, _ in pm.unknown] == [REASON_LOST_TAG]
        assert all(not i.was_recovered for i in pm.instances)


class TestTruncatedContinuations:
    def test_unique_continuation_recovered(self):
        # Walker died mid-walk on a main-task sample; every intact path
        # through the surviving deepest frame continues identically.
        module, options, busy = _run()
        main_task = [s for s in busy if s.spawn_tag is None and len(s.stack) >= 2]
        assert main_task
        victim = main_task[0]
        degraded = victim._replace(stack=victim.stack[:-1])
        pm = process_samples(
            module, busy + [degraded], options=options, tolerant=True
        )
        assert pm.n_recovered >= 1 and not pm.unknown

    def test_non_suffix_matching_continuation_is_unknown(self):
        # The truncated frame's continuation is ambiguous across intact
        # paths — suffix matching must refuse rather than pick one.
        module, options, busy = _run()
        victim = next(
            s for s in busy if s.spawn_tag is None and len(s.stack) >= 2
        )
        deepest = victim.stack[0]
        alt = RawSample(
            index=9000,
            thread_id=0,
            task_id=0,
            stack=(deepest, ("other", victim.stack[-1][1]),
                   victim.stack[-1]),
            leaf_iid=deepest[1],
            spawn_tag=None,
            pre_spawn_stack=None,
        )
        degraded = victim._replace(index=9001, stack=(deepest,))
        pm = process_samples(
            module, [victim, alt, degraded], options=options, tolerant=True
        )
        assert REASON_TRUNCATED in [reason for reason, _ in pm.unknown]

    def test_recovered_path_is_no_evidence(self):
        # The first cut walk glues below its deepest frame; the second's
        # deepest frame occurs only in that recovered path, and evidence
        # comes from the intact paths of the first pass alone.
        module, options, _ = _run()

        def sample(index, *stack):
            return RawSample(index, 0, 0, stack, stack[0][1], None, None)

        intact = sample(0, ("kernel", 50), ("main", 5))
        first = sample(1, ("other", 60), ("kernel", 50))
        second = sample(2, ("kernel", 70), ("other", 60))
        pm = process_samples(module, [intact, first, second], options=options, tolerant=True)
        assert pm.n_recovered == 1
        assert pm.unknown == [(REASON_TRUNCATED, 2)]


class TestIdleAndDuplicateTags:
    def test_idle_samples_stay_runtime_under_degradation(self):
        # Idle-thread samples in a degraded stream are runtime context,
        # never quarantined and never `<unknown>`.
        module, options, busy = _run()
        idle = [
            RawSample(5000 + i, i % 4, -1, (("__sched_yield", -1),), -1,
                      None, None, is_idle=True)
            for i in range(8)
        ]
        degraded = _spawned(busy)[0]._replace(spawn_tag=None, pre_spawn_stack=None)
        pm = process_samples(
            module, idle + busy + [degraded], options=options, tolerant=True
        )
        assert pm.n_runtime == len(idle)
        assert not pm.quarantined

    def test_duplicate_spawn_tags_glue_deterministically(self):
        # Tag collision (16-bit tags wrap in long runs): two intact
        # spawn records share a tag but carry different pre-spawns.
        # Recovery through that tag must be deterministic — the first
        # intact path learned wins, and the result is still complete.
        module, options, busy = _run()
        a = _spawned(busy, "forall_fn_chpl1")[0]
        b = _spawned(busy, "forall_fn_chpl2")[0]
        a2 = a._replace(spawn_tag=42)
        b2 = b._replace(spawn_tag=42)
        degraded = a._replace(index=9100, spawn_tag=42, pre_spawn_stack=None)
        stream = [a2, b2, degraded]
        runs = [
            process_samples(module, stream, options=options, tolerant=True)
            for _ in range(2)
        ]
        for pm in runs:
            rec = [i for i in pm.instances if i.was_recovered]
            assert len(rec) == 1
            # Glued to the first-learned pre-spawn for tag 42 (a2's).
            assert rec[0].frames == tuple(
                list(degraded.stack) + list(a2.pre_spawn_stack)
            )
        assert runs[0].instances == runs[1].instances


class TestLazyEvidence:
    def test_clean_stream_builds_no_evidence(self):
        # Recovery evidence is worked out in finish() only for a held
        # candidate: a clean tolerant run builds none of it.
        module, options, busy = _run()
        consumer = PostmortemConsumer(module, options=options, tolerant=True)
        consumer.feed(busy)
        pm = consumer.finish()
        assert pm.n_user == len(busy) and not pm.unknown
        assert consumer._evidence == {} and consumer._glued is None

    def test_scan_stops_at_the_second_distinct_continuation(self):
        # An ambiguous continuation is refused, so nothing after the
        # second distinct option is built.
        seen = []

        def options():
            for option in [(("a", 1),), (("a", 1),), (("b", 2),), (("c", 3),)]:
                seen.append(option)
                yield option

        assert _only(options()) is None
        assert seen == [(("a", 1),), (("a", 1),), (("b", 2),)]
        assert _only(iter([(("a", 1),), (("a", 1),)])) == (("a", 1),)
        assert _only(iter([])) is None
