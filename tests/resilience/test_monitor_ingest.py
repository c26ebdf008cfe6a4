"""Ingest: the monitor keeps every sample it is handed, and post-mortem
quarantines the malformed ones."""

import os
import sys

from repro.blame.postmortem import REASON_MALFORMED, PostmortemConsumer
from repro.sampling.monitor import STACKWALK_CYCLES, Monitor
from repro.sampling.pmu import PMUConfig
from repro.sampling.records import RawSample

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import compile_src


class _Thread:
    def __init__(self):
        self.thread_id = 0
        self.clock = 0.0


class _Task:
    task_id = 1
    is_main = True
    spawn = None


def _monitor():
    return Monitor(PMUConfig(threshold=211))


def _postmortem(samples):
    """Tolerant post-mortem of ``samples`` against a two-function module."""
    module = compile_src("proc kernel() { } proc main() { kernel(); }")
    consumer = PostmortemConsumer(module, tolerant=True)
    consumer.feed(list(samples))
    return consumer.finish()


class TestIngestValidation:
    def test_well_formed_sample_accepted(self):
        m = _monitor()
        m.take_sample(_Thread(), _Task(), [("kernel", 5), ("main", 1)], 5)
        assert m.n_samples == 1 and m.quarantine_by_reason() == {}

    def test_idle_sample_exempt_from_validation(self):
        # Idle samples legitimately carry iid -1 on a synthetic frame.
        m = _monitor()
        m.take_sample(_Thread(), None, [("__sched_yield", -1)], -1)
        assert m.n_samples == 1 and m.quarantine_by_reason() == {}
        assert m.samples[0].is_idle

    def test_quarantined_sample_still_charged_for_the_walk(self):
        # The stack walk happened before anything could judge the
        # record, so its overhead lands on the thread even though
        # post-mortem quarantines the sample later.
        m = _monitor()
        t = _Thread()
        m.take_sample(t, _Task(), [], 5)
        assert t.clock == STACKWALK_CYCLES
        assert m.overhead.n_samples == 1 and m.n_samples == 1
        assert _postmortem(m.samples).quarantined == [(REASON_MALFORMED, 0)]

    def test_quarantined_record_kept_for_diagnosis(self):
        # Post-mortem's provenance names the sample index; the record
        # itself stays in the monitor's stream (and journal).
        m = _monitor()
        m.take_sample(_Thread(), _Task(), [("kernel", 5), ("main", 1)], 5)
        m.take_sample(_Thread(), _Task(), [("kernel", 5)], -3)
        pm = _postmortem(m.samples)
        [(reason, index)] = pm.quarantined
        assert reason == REASON_MALFORMED
        q = m.samples[index]
        assert q.leaf_iid == -3 and not q.is_idle


class TestPostmortemQuarantine:
    """The two malformed shapes the monitor used to reject at ingest."""

    def test_empty_stack_is_malformed(self):
        pm = _postmortem([RawSample(0, 0, 1, (), 5, None, None)])
        assert pm.quarantined == [(REASON_MALFORMED, 0)]
        assert pm.quarantine_by_reason() == {REASON_MALFORMED: 1}
        assert pm.n_user == 0 and pm.n_unknown == 0 and pm.n_raw == 1

    def test_negative_leaf_iid_is_malformed(self):
        pm = _postmortem([
            RawSample(0, 0, 1, (("kernel", 5), ("main", 1)), 5, None, None),
            RawSample(1, 0, 1, (("kernel", 5), ("main", 1)), -3, None, None),
        ])
        assert pm.quarantined == [(REASON_MALFORMED, 1)]
        assert pm.quarantine_by_reason() == {REASON_MALFORMED: 1}
        assert pm.n_user == 1 and pm.n_unknown == 0 and pm.n_raw == 2

    def test_idle_sample_with_negative_iid_is_runtime(self):
        pm = _postmortem([RawSample(0, 0, -1, (("__sched_yield", -1),), -1, None, None, True)])
        assert pm.quarantined == [] and pm.n_runtime == 1
