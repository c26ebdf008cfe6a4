"""Post-mortem processing tests: stack gluing, trimming, instances."""

import pytest

from repro.blame.postmortem import process_samples
from repro.sampling.records import RawSample

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import compile_src, profile_src, sample_src

PAR = """
var A: [0..49] real;
proc kernel() {
  forall i in 0..49 { A[i] = sqrt(i * 1.0) + i * 0.25; }
}
proc main() { kernel(); }
"""


class TestGluing:
    def test_worker_stacks_glued_to_main(self):
        res = profile_src(PAR, threshold=211)
        glued = [i for i in res.postmortem.instances if i.was_glued]
        assert glued
        for inst in glued:
            funcs = [f for f, _ in inst.frames]
            assert funcs[-1] == "main"
            assert "kernel" in funcs
            assert any(f.startswith("forall_fn") for f in funcs)

    def test_spawn_site_is_frame_between_worker_and_spawner(self):
        res = profile_src(PAR, threshold=211)
        m = res.module
        for inst in res.postmortem.instances:
            if not inst.was_glued:
                continue
            funcs = [f for f, _ in inst.frames]
            k = next(
                i for i, f in enumerate(funcs) if f.startswith("forall_fn")
            )
            # the frame right above the outlined body is its spawner
            outlined = m.get_function(funcs[k])
            assert funcs[k + 1] == outlined.outlined_from

    def test_main_task_samples_not_glued(self):
        src = """
proc main() {
  var s = 0.0;
  for i in 1..800 { s += i * 1.0; }
  writeln(s);
}
"""
        res = profile_src(src, threshold=211)
        assert res.postmortem.instances
        assert all(not i.was_glued for i in res.postmortem.instances)

    def test_locations_resolved(self):
        res = profile_src(PAR, threshold=211)
        for inst in res.postmortem.instances:
            assert len(inst.locations) == len(inst.frames)
            for fname, line in inst.locations:
                assert fname == "test.chpl" and line >= 1


class TestTrimming:
    def test_idle_samples_become_runtime(self):
        res, samples = sample_src(PAR, threshold=211, num_threads=12)
        pm = res.postmortem
        assert pm.n_raw == len(pm.instances) + pm.n_runtime
        assert pm.n_runtime == sum(s.is_idle for s in samples)

    def test_synthetic_frames_removed_from_instances(self):
        res = profile_src(PAR, threshold=211, num_threads=12)
        for inst in res.postmortem.instances:
            assert all(not f.startswith("__sched") for f, _ in inst.frames)

    def test_module_init_samples_kept_as_user_context(self):
        # Big global initialization: samples land in __module_init and
        # must remain attributable (MiniMD's globals live there).
        src = "var BIG: [0..5000] real;\nproc main() { }"
        res = profile_src(src, threshold=211)
        init_insts = [
            i
            for i in res.postmortem.instances
            if i.frames[0][0] == "__module_init"
        ]
        assert init_insts


class TestSyntheticRecords:
    def test_empty_stack_sample_is_runtime(self):
        m = compile_src("proc main() { }")
        s = RawSample(
            index=0,
            thread_id=0,
            task_id=-1,
            stack=(("__sched_yield", -1),),
            leaf_iid=-1,
            spawn_tag=None,
            pre_spawn_stack=None,
            is_idle=True,
        )
        pm = process_samples(m, [s])
        assert pm.n_user == 0 and pm.n_runtime == 1

    def test_unknown_function_sample_is_runtime(self):
        m = compile_src("proc main() { }")
        s = RawSample(
            index=0,
            thread_id=0,
            task_id=1,
            stack=(("libc_internal", 123456),),
            leaf_iid=123456,
            spawn_tag=None,
            pre_spawn_stack=None,
        )
        pm = process_samples(m, [s])
        assert pm.n_user == 0 and pm.n_runtime == 1
